"""Forward velocity maps: direct inversion of G^T and the block formula.

The config admits only four limbs, two of them PRS, so G^T stacks four
actuation rows G_a^T over two constraint rows G_c^T and is square.  The
printed block-inversion expression is ambiguous for this partition (the
translation block of G_a^T is 4x3, and both constraint sub-blocks of the
reference mechanism are rank one), so ``block_Ja`` implements the
generalized-inverse reading J_a = N (G_a^T N)^-1 with N an orthonormal
kernel basis of G_c^T, i.e. the actuation map inverted on the
constraint-compatible subspace.

Direct inversion (``invert_full``) is authoritative; the validation report
checks that the block route agrees with it to 1e-9 relative, and falls back
on it where the block route is BlockSingular.

Singular values and the rule that turns them into a condition number live
here, because the conditioning guard of ``invert_full`` needs them; ``dhj``
re-exports both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlockSingular, SingularConfiguration, Stacked, Status
from .screws import InverseJacobian

COND_LIMIT = 1e12

#: sigma_min below this reports an infinite condition number
SIGMA_FLOOR = 1e-300

_EYE6 = np.eye(6)
_EYE6.flags.writeable = False


def singular_values(M: np.ndarray) -> np.ndarray:
    """Descending singular values (N, k) (LAPACK) of matrices (N, m, n); NaN where not finite."""
    M = np.asarray(M, float)
    finite = np.isfinite(M)
    if np.count_nonzero(finite) == finite.size:
        return np.linalg.svd(M, compute_uv=False)
    finite = finite.all(axis=(1, 2))
    sv = np.linalg.svd(np.where(finite[:, None, None], M, 0.0), compute_uv=False)
    sv[~finite] = math.nan
    return sv


def cond_from_sigmas(sv: np.ndarray) -> np.ndarray:
    """2-norm conditions sigma_max / sigma_min (N,) of singular values (N, k); infinite below
    SIGMA_FLOOR."""
    lo = sv[:, -1]
    tiny = lo < SIGMA_FLOOR
    if not np.count_nonzero(tiny):
        return sv[:, 0] / lo
    return np.divide(sv[:, 0], lo, out=np.full(lo.shape, math.inf), where=~tiny)


@dataclass
class ForwardJacobian:
    """J = (G^T)^-1 at a stack of N poses, partitioned into actuated and constraint columns."""

    J: np.ndarray        # (N, 6, 6)
    J_a: np.ndarray      # (N, 6, f)
    J_c: np.ndarray      # (N, 6, 6 - f)
    cond_GT: np.ndarray  # (N,) 2-norm condition of the stacked G^T
    status: Status       # singular configurations


def invert_full(G: InverseJacobian) -> ForwardJacobian:
    """(G^T)^-1 (N, 6, 6) by LAPACK gesv on the identity; cond(G^T) over COND_LIMIT is
    SingularConfiguration (J NaN)."""
    GT = G.stacked
    cond = cond_from_sigmas(singular_values(GT))
    singular = ~(cond <= COND_LIMIT)
    status = Status(len(singular))
    status.refuse(singular, SingularConfiguration,
                  lambda i: f"cond(G^T) = {cond[i]:.3e} exceeds {COND_LIMIT:.1e}", value=cond)
    if not status.refusals:
        J = np.linalg.inv(GT)
    else:
        J = np.linalg.inv(np.where(singular[:, None, None], _EYE6, GT))
        J[singular] = math.nan
    f = G.G_a_T.shape[1]
    return ForwardJacobian(J=J, J_a=J[:, :, :f], J_c=J[:, :, f:], cond_GT=cond, status=status)


def block_Ja(G: InverseJacobian) -> Stacked:
    """Actuated forward blocks J_a = N (G_a^T N)^-1 (N, 6, f) of a stack of G^T; see module
    docs.

    An actuation map singular on the constraint kernel is BlockSingular: the
    ``Stacked`` refuses those poses, and is NaN also where G^T is not finite.
    """
    Ga, Gc = np.asarray(G.G_a_T, float), np.asarray(G.G_c_T, float)
    f, m = Ga.shape[-2], Gc.shape[-2]
    finite = np.flatnonzero(np.isfinite(Ga).all(axis=(1, 2)) & np.isfinite(Gc).all(axis=(1, 2)))
    # orthonormal kernel basis of the constraint rows
    Q, _ = np.linalg.qr(Gc[finite].swapaxes(-1, -2), mode="complete")
    N = Q[..., m:]
    M = Ga[finite] @ N
    sv = np.linalg.svd(M, compute_uv=False)
    singular = sv[:, -1] <= 1e-12 * sv[:, 0]
    status = Status(len(Ga))
    status.refuse(np.isin(np.arange(len(Ga)), finite[singular]), BlockSingular,
                  lambda i: "actuation map singular on the constraint kernel")
    J = np.full((len(Ga), Ga.shape[-1], f), math.nan)
    J[finite[~singular]] = N[~singular] @ np.linalg.solve(M[~singular], np.eye(f))
    return Stacked(J, status)
