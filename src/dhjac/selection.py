"""Extended selection matrix: weighted component pairs -> nominal velocity.

Each plan row pairs the y-component of one point with the y-component of a
partner so that the platform's constrained freedoms (v_x and w_z for the
TyTzRxRy class) drop out, and adds the z-component of the lower-indexed
point of the pair:

    row(i, j) = (a_ix * v_jy - a_jx * v_iy) / |a_ix - a_jx| + v_kz,
    k = min(i, j).

The cancellation weights are solved from the one-parameter condition
alpha * a_ix + gamma * a_jx = 0 and normalized by |a_ix - a_jx|, which
keeps S dimensionless.  Normalizing by the signed difference instead would
force every row's y-weights to sum to one, collapsing the v_y and v_z
columns of the restricted nominal map to all-ones (rank-deficient for
every plan); the absolute value changes at most a row sign and keeps the
map invertible.  The choice is recorded in the validation report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePair, Status

#: relative threshold on |a_ix - a_jx| below which a pair is degenerate
PAIR_THRESHOLD = 1e-9

#: default plan: cyclic partners (v_1y,v_2z), (v_2y,v_3z), (v_3y,v_4z), (v_4y,v_1z)
PRIMARY_PLAN_PAIRS = ((1, 2), (2, 3), (3, 4), (4, 1))

#: each limb paired with its diametrically opposite partner.  Degenerate at
#: the reference geometry: the PRS anchors share a_x = 0 at every feasible
#: pose, so the (2,4) and (4,2) pairs have coincident x-coordinates.
OPPOSITE_PLAN_PAIRS = ((1, 3), (2, 4), (3, 1), (4, 2))

#: alternate used for plan-equivalence checks: valid at the reference
#: geometry and exercising the non-trivial 1/2-1/2 weights of the {1,3} pair
ALTERNATE_PLAN_PAIRS = ((1, 3), (2, 1), (3, 2), (4, 3))


@dataclass(frozen=True)
class SelectionPlan:
    """One (y-point, z-partner) pair per limb, 1-based indices."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        f = len(self.pairs)
        for r, (i, j) in enumerate(self.pairs):
            if i != r + 1:
                raise ConfigError(
                    f"plan row {r + 1} must draw its y-component from point {r + 1}, "
                    f"got {i}")
            if not (1 <= j <= f) or j == i:
                raise ConfigError(f"plan row {r + 1}: partner {j} invalid")

    @property
    def f(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_pair_strings(cls, pairs) -> "SelectionPlan":
        """Parse the CLI form [["1y", "2z"], ["2y", "3z"], ...]; anything else is ConfigError."""
        parsed = []
        for entry in pairs:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and all(isinstance(s, str) for s in entry)
                    and entry[0].endswith("y") and entry[1].endswith("z")):
                raise ConfigError(f"bad plan pair {entry!r}; expected like ['1y', '2z']")
            parsed.append((int(entry[0][:-1]), int(entry[1][:-1])))
        return cls(pairs=tuple(parsed))

    @functools.cached_property
    def _index(self) -> tuple[np.ndarray, ...]:
        """0-based ``(i, j, rows, y_col_i, y_col_j, z_col)`` of the plan rows: the y-point
        and z-partner of each row, the row numbers, and the columns of S that they fill."""
        i, j = np.array(self.pairs).T - 1
        arrays = (i, j, np.arange(self.f), 3 * i + 1, 3 * j + 1, 3 * np.minimum(i, j) + 2)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def pair_strings(self) -> list[list[str]]:
        return [[f"{i}y", f"{j}z"] for i, j in self.pairs]

    def require_points(self, count: int) -> None:
        """Refuse as ConfigError a plan whose row count is not the point (limb) count."""
        if count != self.f:
            raise ConfigError(f"plan has {self.f} rows but {count} points given")


PRIMARY_PLAN = SelectionPlan(PRIMARY_PLAN_PAIRS)
OPPOSITE_PLAN = SelectionPlan(OPPOSITE_PLAN_PAIRS)
ALTERNATE_PLAN = SelectionPlan(ALTERNATE_PLAN_PAIRS)


@dataclass
class SelectionMatrix:
    """The extended selection matrices of a plan at a stack of N poses."""

    S: np.ndarray  # (N, f, 3f), dimensionless
    status: Status  # degenerate pairs


def build_selection_matrix(plan: SelectionPlan, points) -> SelectionMatrix:
    """Solve the per-pair cancellation weights at the N sets of platform points (N, f, 3).

    A pair whose x-coordinates coincide (relative to the largest |a_x| in the
    point set) is DegeneratePair.
    """
    pts = np.asarray(points, float)
    N, f, _ = pts.shape
    plan.require_points(f)
    i, j, rows, col_i, col_j, col_z = plan._index
    ax = pts[:, :, 0]
    ax_i, ax_j = ax[:, i], ax[:, j]
    scale = np.maximum(np.abs(ax).max(axis=1), 1e-300)
    delta = ax_i - ax_j
    width = np.abs(delta)
    degenerate = width <= PAIR_THRESHOLD * scale[:, None]
    status = Status(N)
    status.refuse_first(degenerate, DegeneratePair,
                        lambda n, r: f"pair (v_{i[r] + 1}y, v_{j[r] + 1}z): a_{i[r] + 1}x - "
                                     f"a_{j[r] + 1}x = {delta[n][r]:.3e} "
                                     f"(threshold {PAIR_THRESHOLD * scale[n]:.3e})",
                        value=delta)
    if status.refusals:
        width = np.where(degenerate, math.nan, width)
    S = np.zeros((N, f, 3 * f))
    S[:, rows, col_i] = -ax_j / width
    S[:, rows, col_j] = ax_i / width
    S[:, rows, col_z] = 1.0
    return SelectionMatrix(S=S, status=status)


#: column indices of the independent freedoms (v_y, v_z, w_x, w_y) in a twist
INDEPENDENT_COLS = (1, 2, 3, 4)
#: column indices of the constrained freedoms (v_x, w_z)
CONSTRAINED_COLS = (0, 5)


def nominal_map(sel: SelectionMatrix, V_p: np.ndarray) -> np.ndarray:
    """V_ps = S V_p (N, f, 6) at a stack of N poses; its columns INDEPENDENT_COLS are the
    square restricted map.

    S and V_p are built from the same points, whose count
    ``build_selection_matrix`` has checked against the plan.
    """
    return sel.S @ V_p
