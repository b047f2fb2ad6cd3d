"""Command-line front end: pose reports, workspace sweeps, unit experiments.

Exit codes: 0 ok, 1 validation failure, 2 infeasible pose, 3 config error,
4 I/O error.  All numeric CSV fields carry 17 significant digits so that
determinism and unit-invariance checks can compare files byte for byte.
Lengths on the command line (``--z``, ``--y``, pose positionals) are given
in millimeters and converted to the active unit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import dhj, verify
from .errors import ConfigError, KinematicsError
from .model import UNIT_SCALES, ManipulatorConfig, load_config
from .model import resolve_pose  # noqa: F401  (bound here for perfbench/test_tracing.py)
from .selection import ALTERNATE_PLAN, OPPOSITE_PLAN, PRIMARY_PLAN, SelectionPlan

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_IO = 4

SWEEP_HEADER = "theta_deg,psi_deg,cond_G,cond_Jdh,status"

NAMED_PLANS = {
    "primary": PRIMARY_PLAN,
    "alternate": ALTERNATE_PLAN,
    "opposite": OPPOSITE_PLAN,
}


def _labels(axis: np.ndarray) -> list[str]:
    """The CSV label of every value of a grid axis in degrees, as the sweep prints it."""
    return ["%.17g" % v for v in axis.tolist()]


def _units_line(th: str, ps: str, cell: dict) -> str:
    """One ``units`` CSV line of a report cell at the labels ``th``, ``ps``, in one operation."""
    if cell["status"] != "ok":
        return "%s,%s,,,,,,%s\n" % (th, ps, cell["status"])
    base, scaled = cell["k_dh_base"], cell["k_dh_scaled"]
    return "%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,ok\n" % (
        th, ps, cell["k_G_base"], cell["k_G_scaled"], base, scaled, abs(base - scaled) / base)


def parse_plan(text: str) -> SelectionPlan:
    if text in NAMED_PLANS:
        return NAMED_PLANS[text]
    try:
        return SelectionPlan.from_pair_strings(json.loads(text))
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse plan {text!r}: {exc}") from exc


@dataclass
class SweepSpec:
    """Grid specification for condition-number sweeps."""

    range_deg: float  # half-range of both the theta and the psi axis
    steps: int
    y_mm: float
    z_mm: float
    plan: SelectionPlan
    out: str

    def validate(self, cfg: ManipulatorConfig):
        if self.steps < 2:
            raise ConfigError("grid steps must be >= 2")
        if not self.range_deg > 0:  # also refuses NaN
            raise ConfigError("range half-width must be positive")
        if not (math.isfinite(self.y_mm) and math.isfinite(self.z_mm)):
            raise ConfigError(f"--y and --z must be finite, got {self.y_mm!r}, {self.z_mm!r}")
        if self.range_deg > cfg.envelope_deg + 1e-9:
            raise ConfigError(
                f"range exceeds the +/-{cfg.envelope_deg:g} deg envelope "
                "(raise --envelope-deg to override)")
        self.plan.require_points(cfg.limb_count)

    def grids(self):
        """(theta, psi) axes in degrees; both span the same range."""
        axis = np.linspace(-self.range_deg, self.range_deg, self.steps)
        return axis, axis


def _load(args) -> ManipulatorConfig:
    cfg = load_config(args.config)
    if args.unit:
        cfg = cfg.in_unit(args.unit)
    if args.envelope_deg is not None:
        cfg = replace(cfg, envelope_deg=args.envelope_deg)
    return cfg


def _length_from_mm(value_mm: float, unit: str) -> float:
    return value_mm * UNIT_SCALES[unit]


def cmd_pose(args) -> int:
    cfg = _load(args)
    plan = parse_plan(args.plan)
    y = _length_from_mm(args.y, cfg.unit)
    z = _length_from_mm(args.z, cfg.unit)
    th, ps = math.radians(args.theta_deg), math.radians(args.psi_deg)

    rec = dhj.dexterity_at(cfg, y, z, th, ps, plan=plan)
    x, phi_z = rec.pose.x.item(), rec.pose.phi_z.item()
    q, G_T, J_a = rec.pose.q[0], rec.G.stacked[0], rec.fwd.J_a[0]

    record = {
        "unit": cfg.unit,
        "coords": {"y": y, "z": z, "theta_deg": args.theta_deg, "psi_deg": args.psi_deg},
        "dependent": {"x": x, "phi_z_rad": phi_z},
        "q": q.tolist(),
        "G_T": G_T.tolist(),
        "J_a": J_a.tolist(),
        "S": rec.S.tolist(),
        "V_ps": rec.V_ps.tolist(),
        "J_dh": rec.J_dh.tolist(),
        "singular_values": rec.sigmas.tolist(),
        "cond_Jdh": rec.k,
        "cond_G": rec.k_conventional,
        "plan": plan.pair_strings(),
    }
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return EXIT_OK

    def block(name, M):
        body = np.array2string(np.asarray(M), precision=6, suppress_small=True,
                               max_line_width=100)
        print(f"{name}:\n{body}")

    print(f"pose  y={y:g} z={z:g} {cfg.unit}, theta={args.theta_deg:g} deg, "
          f"psi={args.psi_deg:g} deg  (x={x:.3e}, phi_z={phi_z:.3e} rad)")
    print("q_a:", " ".join(f"{v:.6f}" for v in q))
    block("G^T", G_T)
    block("J_a", J_a)
    block("S", rec.S)
    block("V_ps", rec.V_ps)
    block("J_dh", rec.J_dh)
    print("singular values:", " ".join(f"{s:.9g}" for s in rec.sigmas))
    print(f"cond(J_dh) = {rec.k:.9g}")
    print(f"cond(G^T)  = {rec.k_conventional:.9g}")
    return EXIT_OK


def sweep_rows(cfg: ManipulatorConfig, spec: SweepSpec):
    """The sweep CSV lines of one grid, row-major (theta outer), one block at a time.

    The grid is evaluated in blocks of whole theta rows (``dhj.grid_blocks``),
    one ``dhj.condition_numbers_at`` call per block, and each block is yielded
    as soon as it is evaluated, as ``(text, k_g, k_dh)``: its lines in one
    string, and its cond(G^T) and cond(J_dh), NaN where a cell is not "ok".
    Every theta and psi label is formatted once per grid and found by its
    position in the axis, not by its value: -0.0 == 0.0 prints differently.
    """
    y = _length_from_mm(spec.y_mm, cfg.unit)
    z = _length_from_mm(spec.z_mm, cfg.unit)
    thetas, psis = spec.grids()
    th_labels, ps_labels = _labels(thetas), _labels(psis)
    first = 0  # the first theta row of the block
    for th_deg, ps_deg in dhj.grid_blocks(thetas, psis):
        status, k_g, k_dh = dhj.condition_numbers_at(cfg, y, z, np.radians(th_deg),
                                                     np.radians(ps_deg), plan=spec.plan)
        rows = len(th_deg) // len(psis)
        th = [t for t in th_labels[first:first + rows] for _ in ps_labels]
        first += rows
        yield "".join([
            "%s,%s,%.17g,%.17g,ok\n" % (t, p, kg, kd) if code == "ok"
            else "%s,%s,,,%s\n" % (t, p, code)
            for t, p, code, kg, kd in zip(th, ps_labels * rows, status, k_g.tolist(),
                                          k_dh.tolist())]), k_g, k_dh


@contextlib.contextmanager
def _replacing(path: str, newline: str | None = None):
    """Write beside ``path``; the file replaces ``path`` only if the block completes.

    A temporary file that cannot be created is reported under ``path``, the
    name the caller asked for.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            fh = open(tmp, "w", newline=newline)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _dump_json(obj, fh) -> None:
    """``obj`` as indented JSON and a newline, in one write."""
    fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


#: one ``units`` cell as ``json.dump(report, indent=2, sort_keys=True)`` lays it out, two
#: levels deep: an "ok" cell (its four conds, psi, theta) and a refused one (psi, status, theta)
_UNITS_OK_CELL = ('    {\n      "k_G_base": %r,\n      "k_G_scaled": %r,\n'
                  '      "k_dh_base": %r,\n      "k_dh_scaled": %r,\n      "psi": %s,\n'
                  '      "status": "ok",\n      "theta": %s\n    }')
_UNITS_REFUSED_CELL = '    {\n      "psi": %s,\n      "status": "%s",\n      "theta": %s\n    }'


def _write_units_json(report: dict, fh, thetas, psis) -> None:
    """``_dump_json(report, fh)`` byte for byte, each cell through one ``%``-template.

    ``thetas`` and ``psis`` are the radian axes of the experiment, whose cells
    are row-major (theta outer). Each axis value is formatted once (``repr``, as
    the JSON encoder formats a finite float) and cell ``i`` takes the theta at
    ``i // len(psis)`` and the psi at ``i % len(psis)``: by position, not by
    value, since ``-0.0 == 0.0`` prints differently. The conds of an "ok" cell
    are finite and a status is a reason code, which JSON prints as it is. The
    header goes through ``json.dumps``, so a NaN summary prints ``NaN``.
    """
    cells = report["cells"]
    if len(cells) != len(thetas) * len(psis):
        raise ValueError(f"{len(cells)} cells on a {len(thetas)} x {len(psis)} grid")
    text = json.dumps(dict(report, cells=[]), indent=2, sort_keys=True)
    if cells:
        body = ",\n".join([
            _UNITS_OK_CELL % (c["k_G_base"], c["k_G_scaled"], c["k_dh_base"],
                              c["k_dh_scaled"], ps, th) if c["status"] == "ok"
            else _UNITS_REFUSED_CELL % (ps, c["status"], th)
            for (th, ps), c in zip(itertools.product([repr(float(t)) for t in thetas],
                                                     [repr(float(p)) for p in psis]), cells)])
        text = text.replace('"cells": []', f'"cells": [\n{body}\n  ]', 1)
    fh.write(text + "\n")


def write_sweep_csv(path: str, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Stream the ``sweep_rows`` blocks into the sweep CSV, one write per block (the
    file is opened first, so a bad path fails fast).

    Returns cond(G^T) and cond(J_dh) of every cell written, NaN where it is not "ok".
    """
    k_g, k_dh = [], []
    with _replacing(path, newline="") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for text, block_g, block_dh in blocks:
            fh.write(text)
            k_g.append(block_g)
            k_dh.append(block_dh)
    return np.concatenate(k_g), np.concatenate(k_dh)


def _spec_from_args(args, cfg) -> SweepSpec:
    spec = SweepSpec(
        range_deg=args.range_deg,
        steps=args.grid,
        y_mm=args.y,
        z_mm=args.z,
        plan=parse_plan(args.plan),
        out=args.out,
    )
    spec.validate(cfg)
    return spec


def cmd_sweep(args) -> int:
    cfg = _load(args)
    spec = _spec_from_args(args, cfg)
    k_g, k_dh = write_sweep_csv(spec.out, sweep_rows(cfg, spec))
    ok = ~np.isnan(k_dh)  # condition_numbers_at puts NaN exactly at the cells not "ok"
    cells, k_g, k_dh = len(ok), k_g[ok], k_dh[ok]
    print(f"{spec.out}: {cells} cells ({cells - len(k_dh)} skipped), unit {cfg.unit}")
    if len(k_dh):
        med_g, med_dh = np.median(k_g), np.median(k_dh)
        print(f"cond(G^T):  median {med_g:10.2f}   max {k_g.max():10.2f}")
        print(f"cond(J_dh): median {med_dh:10.3f}   max {k_dh.max():10.3f}   "
              f"min {k_dh.min():.3f}")
        print(f"band ratio (medians): {med_g / med_dh:.1f}x")
    return EXIT_OK


def cmd_units(args) -> int:
    cfg = _load(args)
    spec = _spec_from_args(args, cfg)
    th_deg, ps_deg = spec.grids()
    thetas, psis = [math.radians(t) for t in th_deg], [math.radians(p) for p in ps_deg]
    report = dhj.unit_scaling_experiment(
        cfg,
        thetas,
        psis,
        y=_length_from_mm(spec.y_mm, cfg.unit),
        z=_length_from_mm(spec.z_mm, cfg.unit),
        scale=args.scale,
        plan=spec.plan,
    )
    out_json = spec.out
    out_csv = out_json[:-5] + ".csv" if out_json.endswith(".json") else out_json + ".csv"
    # neither file is replaced unless both were written in full
    with _replacing(out_json) as fh_json, _replacing(out_csv, newline="") as fh:
        _write_units_json(report, fh_json, thetas, psis)
        fh.write("theta_deg,psi_deg,cond_G_base,cond_G_scaled,"
                 "cond_Jdh_base,cond_Jdh_scaled,rel_dev_Jdh,status\n")
        # labelled as the sweep labels them, from the degree axes; the cells are row-major
        for (th, ps), cell in zip(itertools.product(_labels(th_deg), _labels(ps_deg)),
                                  report["cells"]):
            fh.write(_units_line(th, ps, cell))
    print(f"k_dh max rel deviation: {report['max_rel_dev_k_dh']:.3e} "
          f"(invariant: {report['k_dh_invariant']})")
    print(f"k_G  max rel deviation: {report['max_rel_dev_k_G']:.3e} "
          f"(unit sensitive: {report['k_G_unit_sensitive']})")
    return EXIT_OK if report["k_dh_invariant"] else EXIT_VALIDATION


def cmd_validate(args) -> int:
    cfg = _load(args)
    report = verify.run_validation(cfg, seed=args.seed, n_poses=args.poses)
    with _replacing(args.out) as fh:
        _dump_json(report, fh)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']}: max_rel_err={check['max_rel_err']:.3e} "
              f"threshold={check['threshold']:.3e} poses={check['poses_tested']}")
    print(f"report written to {args.out}")
    return EXIT_OK if report["all_passed"] else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhjac",
        description="Dimensionally homogeneous Jacobian toolkit for the "
                    "reference 4-DoF PUS/PRS parallel manipulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_out=None, grid=False):
        p.add_argument("--config", required=True, help="manipulator JSON config")
        p.add_argument("--unit", choices=("mm", "m"), default=None,
                       help="convert the config to this unit before computing")
        p.add_argument("--envelope-deg", type=float, default=None,
                       help="override the rotational envelope guard")
        if with_out:
            p.add_argument("--out", default=with_out, help="output path")
        if grid:
            p.add_argument("--grid", type=int, default=51, help="grid points per axis")
            p.add_argument("--range-deg", type=float, default=50.0,
                           help="half-range of both axes")
            p.add_argument("--y", type=float, default=0.0, help="fixed y [mm]")
            p.add_argument("--z", type=float, default=150.0, help="fixed z [mm]")

    p = sub.add_parser("pose", help="evaluate one pose and print the full pipeline")
    common(p)
    p.add_argument("y", type=float, help="platform y [mm]")
    p.add_argument("z", type=float, help="platform z [mm]")
    p.add_argument("theta_deg", type=float, help="rotation about x [deg]")
    p.add_argument("psi_deg", type=float, help="rotation about y [deg]")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("sweep", help="condition-number grid over (theta, psi) to CSV")
    common(p, with_out="sweep.csv", grid=True)

    p = sub.add_parser("units", help="millimeter-vs-meter condition-number experiment")
    common(p, with_out="units_report.json", grid=True)
    p.add_argument("--scale", type=float, default=0.001, help="length scale of the second run")

    p = sub.add_parser("validate", help="run every finite-difference oracle")
    common(p, with_out="validation_report.json")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--poses", type=int, default=100, help="random poses per oracle")

    for name in ("pose", "sweep", "units"):  # validate judges the plans it names itself
        sub.choices[name].add_argument(
            "--plan", default="primary",
            help='selection plan: primary | alternate | opposite '
                 '| JSON like [["1y","2z"],["2y","3z"],["3y","4z"],["4y","1z"]]')
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a rebound ``cmd_*`` name (perfbench's tracer) is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KinematicsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:  # only output files are written; configs fail as ConfigError
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
