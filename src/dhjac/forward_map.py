"""Forward velocity maps: direct inversion of G^T and the block formula.

The printed block-inversion expression is ambiguous for the four-limb
partition (G_av^T is 4x3, and both constraint sub-blocks of the reference
mechanism are rank one), so ``block_Ja`` implements two algebraic readings:

* square partition (f = 3): the classic Schur-complement form
  X = A^-1 + A^-1 B S^-1 C A^-1,  Z = -S^-1 C A^-1,  S = D - C A^-1 B.
* rectangular partition (f != 3): the generalized-inverse reading
  J_a = N (G_a^T N)^-1 with N an orthonormal kernel basis of G_c^T, i.e.
  the actuation map inverted on the constraint-compatible subspace.

Direct inversion (``invert_full``) is authoritative; the block route must
agree with it to 1e-9 relative and falls back on BlockSingular otherwise.

Singular values and the rule that turns them into a condition number live
here, because the conditioning guard of ``invert_full`` needs them; ``dhj``
re-exports both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlockSingular, SingularConfiguration, Status
from .screws import InverseJacobian

COND_LIMIT = 1e12

#: sigma_min below this reports an infinite condition number
SIGMA_FLOOR = 1e-300


def singular_values(M: np.ndarray) -> np.ndarray:
    """Descending singular values (LAPACK) of a matrix or a stack; NaN for a non-finite matrix."""
    M = np.asarray(M, float)
    finite = np.isfinite(M).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[..., None, None], M, 0.0), compute_uv=False)
    sv[~finite] = math.nan
    return sv


def cond_from_sigmas(sv: np.ndarray):
    """2-norm condition sigma_max / sigma_min of one set or a stack; infinite below SIGMA_FLOOR."""
    lo = sv[..., -1]
    return np.divide(sv[..., 0], lo, out=np.full(lo.shape, math.inf),
                     where=~(lo < SIGMA_FLOOR))[()]


@dataclass(frozen=True)
class ForwardJacobian:
    """J = (G^T)^-1 partitioned into actuated and constraint columns, for one pose or a stack."""

    J: np.ndarray        # (..., 6, 6)
    J_a: np.ndarray      # (..., 6, f)
    J_c: np.ndarray      # (..., 6, 6 - f)
    cond_GT: float       # 2-norm condition of the stacked G^T
    status: Status = field(default_factory=Status)  # singular configurations

    @property
    def J_a1(self) -> np.ndarray:
        """Linear-velocity block (first three rows of J_a)."""
        return self.J_a[..., :3, :]

    @property
    def J_a2(self) -> np.ndarray:
        """Angular-velocity block (last three rows of J_a)."""
        return self.J_a[..., 3:, :]


def invert_full(G: InverseJacobian) -> ForwardJacobian:
    """Column solves of G^T J = I; cond(G^T) over COND_LIMIT is SingularConfiguration (J NaN)."""
    GT = G.stacked
    cond = cond_from_sigmas(singular_values(GT))
    singular = ~(cond <= COND_LIMIT)
    status = Status(np.shape(cond))
    status.refuse(singular, SingularConfiguration,
                  lambda i: f"cond(G^T) = {cond[i]:.3e} exceeds {COND_LIMIT:.1e}", value=cond)
    J = np.linalg.solve(np.where(singular[..., None, None], np.eye(6), GT), np.eye(6))
    J[singular] = math.nan
    f = G.G_a_T.shape[-2]
    return ForwardJacobian(J=J, J_a=J[..., :f], J_c=J[..., f:], cond_GT=cond, status=status)


def block_Ja(G: InverseJacobian) -> np.ndarray:
    """Actuated forward block via the partitioned formula; see module docs."""
    A, B = G.G_av_T, G.G_aw_T
    C, D = G.G_cv_T, G.G_cw_T
    f = A.shape[0]
    if f == 3:
        try:
            Ainv = np.linalg.inv(A)
            S = D - C @ Ainv @ B
            Sinv = np.linalg.inv(S)
        except np.linalg.LinAlgError as exc:
            raise BlockSingular(f"inner inverse failed: {exc}") from exc
        X = Ainv + Ainv @ B @ Sinv @ C @ Ainv
        Z = -Sinv @ C @ Ainv
        return np.vstack([X, Z])

    Gc = G.G_c_T
    m = Gc.shape[0]
    # orthonormal kernel basis of the constraint rows
    Q, _ = np.linalg.qr(Gc.T, mode="complete")
    N = Q[:, m:]
    M = G.G_a_T @ N
    if M.shape[0] != M.shape[1]:
        raise BlockSingular(
            f"actuation rows ({M.shape[0]}) do not match the constraint kernel "
            f"dimension ({M.shape[1]})")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise BlockSingular("actuation map singular on the constraint kernel")
    return N @ np.linalg.solve(M, np.eye(f))
