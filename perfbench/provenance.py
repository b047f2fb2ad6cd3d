"""What produced a result: interpreter, numpy, BLAS, machine, config, code."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

#: symbols that report the thread count of the OpenBLAS builds numpy ships with
OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads")


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def collect(root: Path, config: Path, seed: int, threads_requested: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": threads_requested,
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "config_sha256": _sha256([config]),
        "source_sha256": _sha256(sorted((root / "src" / "dhjac").glob("*.py"))),
        "seed": seed,
        "git_commit": git_commit(root),
    }
