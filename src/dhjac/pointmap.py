"""Point-velocity map: platform twist -> linear velocities of chosen points.

The shifting property v_i = v + w x a_i, stacked over the chosen points,
gives the 3f x 6 matrix with row blocks [I, -skew(a_i)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoints
from .model import collinear


def skew(a: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])


def point_velocity(v: np.ndarray, w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Velocity of the platform point at offset a from the reference point."""
    return np.asarray(v, float) + np.cross(w, a)


@dataclass(frozen=True)
class PointVelocityMap:
    points: tuple[np.ndarray, ...]
    V_p: np.ndarray  # 3f x 6

    @property
    def count(self) -> int:
        return len(self.points)


def build_Vp(points) -> PointVelocityMap:
    """Stack [I, -skew(a_i)] blocks; raises DegeneratePoints on collinear input."""
    pts = [np.asarray(p, float) for p in points]
    if len(pts) >= 3 and collinear(pts):
        raise DegeneratePoints("point set is collinear")
    Vp = np.zeros((3 * len(pts), 6))
    for i, a in enumerate(pts):
        Vp[3 * i:3 * i + 3, :3] = np.eye(3)
        Vp[3 * i:3 * i + 3, 3:] = -skew(a)
    return PointVelocityMap(points=tuple(pts), V_p=Vp)
