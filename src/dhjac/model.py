"""Reference 4-DoF PUS/PRS manipulator: geometry, pose resolution, inverse kinematics.

Frames and conventions:

* fixed frame at the base-circle center, z up; platform frame at the plate
  center, anchors on a circle of radius ``r_a``.
* independent task coordinates (y, z, theta, psi); the platform rotation is
  R = Rx(theta) @ Ry(psi) @ Rz(phi_z) with (x, phi_z) dependent, resolved so
  the two PRS spherical joints stay in their revolute planes x = A_ix.
* prismatic rails are parallel to z and actuated; revolute axes of the PRS
  limbs and the slider-fixed universal axes of the PUS limbs are parallel
  to x.

All lengths are in the unit named by ``ManipulatorConfig.unit``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NoConvergence, Status, Unreachable

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])

DEFAULT_ENVELOPE_DEG = 50.0
UNIT_SCALES = {"mm": 1.0, "m": 0.001}

RESOLVE_TOL = 1e-12  # dependent-coordinate Newton tolerance, relative to r_b
RESOLVE_MAX_ITER = 50
#: the 2x2 Newton system is singular when |det| < RESOLVE_DET_RTOL * max|jac|^2
RESOLVE_DET_RTOL = 1e-14
#: step halvings of the line search before the damped Newton gives up
RESOLVE_HALVINGS = 25
#: slack (rad) on the rotational envelope, so grid edges at +/-envelope stay inside
ENVELOPE_SLACK = 1e-12
#: IK discriminants down to -IK_CLAMP * l^2 count as 0 (boundary poses land eps-negative)
IK_CLAMP = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class LimbSpec:
    """One limb: platform anchor angle, chain type, base rail angle."""

    angle_deg: float
    kind: str  # "PUS" or "PRS"
    base_angle_deg: float | None = None  # defaults to angle_deg

    @property
    def base_deg(self) -> float:
        return self.angle_deg if self.base_angle_deg is None else self.base_angle_deg


@dataclass(frozen=True)
class MobilityInputs:
    """Counts for Tsai's degree-of-freedom formula; a negative count is a ConfigError."""

    lam: int
    n: int
    j: int
    f_sum: int

    def __post_init__(self):
        if min(self.lam, self.n, self.j, self.f_sum) < 0:
            raise ConfigError("mobility counts must be nonnegative")


@dataclass(frozen=True)
class ManipulatorConfig:
    moving_plate_radius: float
    base_radius: float
    link_length: float
    limbs: tuple[LimbSpec, ...]
    actuator_kind: str = "linear"  # "linear" or "rotational"
    unit: str = "mm"
    envelope_deg: float = DEFAULT_ENVELOPE_DEG
    mobility: MobilityInputs = field(
        default_factory=lambda: MobilityInputs(lam=6, n=10, j=12, f_sum=22)
    )

    def __post_init__(self):
        lengths = (self.moving_plate_radius, self.base_radius, self.link_length)
        if not all(math.isfinite(v) and v > 0 for v in lengths):
            raise ConfigError("radii and link length must be finite and positive")
        if not (math.isfinite(self.envelope_deg) and self.envelope_deg > 0):
            raise ConfigError(f"envelope_deg must be finite and positive, "
                              f"got {self.envelope_deg!r}")
        if self.unit not in UNIT_SCALES:
            raise ConfigError(f"unknown unit {self.unit!r} (expected mm or m)")
        if self.actuator_kind not in ("linear", "rotational", "mixed"):
            raise ConfigError(f"unknown actuator kind {self.actuator_kind!r}")
        for limb in self.limbs:
            if limb.kind not in ("PUS", "PRS"):
                raise ConfigError(f"unknown limb kind {limb.kind!r}")
            if not (math.isfinite(limb.angle_deg) and math.isfinite(limb.base_deg)):
                raise ConfigError("limb angles must be finite")
        # two PRS planes fix (x, phi_z); with their two constraint rows, G^T is square
        # only for four actuation rows
        if self.limb_count != 4 or len(self.prs_indices()) != 2:
            raise ConfigError(f"the pipeline supports four limbs, two of them PRS; got "
                              f"{self.limb_count} limbs, {len(self.prs_indices())} PRS")
        if collinear(self.platform_points()):
            raise ConfigError("platform anchor points are collinear")
        if collinear(self.base_points()):
            raise ConfigError("base points are collinear")

    @property
    def limb_count(self) -> int:
        return len(self.limbs)

    def prs_indices(self) -> list[int]:
        return [i for i, limb in enumerate(self.limbs) if limb.kind == "PRS"]

    def platform_points(self) -> np.ndarray:
        """Anchor positions in the platform frame (spherical joint centers), (f, 3).

        Built once per config instance and read-only; ``scaled``, ``in_unit``
        and ``replace`` make new instances, which build their own.
        """
        return self._platform_points

    def base_points(self) -> np.ndarray:
        """Rail foot positions A_i in the fixed frame, (f, 3); cached as ``platform_points``."""
        return self._base_points

    @functools.cached_property
    def _platform_points(self) -> np.ndarray:
        return _ring(self.moving_plate_radius, [s.angle_deg for s in self.limbs])

    @functools.cached_property
    def _base_points(self) -> np.ndarray:
        return _ring(self.base_radius, [s.base_deg for s in self.limbs])

    def scaled(self, s: float, unit: str | None = None) -> "ManipulatorConfig":
        """Copy with every length multiplied by s (pure geometric scaling)."""
        if s <= 0:
            raise ConfigError("scale must be positive")
        return replace(
            self,
            moving_plate_radius=self.moving_plate_radius * s,
            base_radius=self.base_radius * s,
            link_length=self.link_length * s,
            unit=unit if unit is not None else self.unit,
        )

    def in_unit(self, unit: str) -> "ManipulatorConfig":
        """Convert the stored lengths to another supported unit."""
        if unit not in UNIT_SCALES:
            raise ConfigError(f"unknown unit {unit!r}")
        if unit == self.unit:
            return self
        s = UNIT_SCALES[unit] / UNIT_SCALES[self.unit]
        return self.scaled(s, unit=unit)


def _ring(r: float, angles_deg) -> np.ndarray:
    """Read-only (n, 3) points at radius r and the given angles in the z = 0 plane."""
    pts = np.array([[r * math.cos(math.radians(d)), r * math.sin(math.radians(d)), 0.0]
                    for d in angles_deg])
    pts.flags.writeable = False
    return pts


def collinear(points: np.ndarray) -> bool:
    """True when the points (n, 3) span less than a plane (rank tolerance 1e-9 relative)."""
    d = points - points[0]
    scale = max(np.linalg.norm(d, axis=1).max(), 1e-30)
    return bool((np.linalg.svd(d, compute_uv=False) > 1e-9 * scale).sum() < 2)


def load_config(path: str | Path) -> ManipulatorConfig:
    """Load a manipulator description from the documented JSON schema."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ManipulatorConfig:
    try:
        limbs = tuple(
            LimbSpec(
                angle_deg=float(entry["angle_deg"]),
                kind=str(entry["kind"]),
                base_angle_deg=(float(entry["base_angle_deg"])
                                if "base_angle_deg" in entry else None),
            )
            for entry in raw["limbs"]
        )
        mob = raw.get("mobility", {})
        if not isinstance(mob, dict):
            raise ConfigError(f"mobility must be an object of counts, got {mob!r}")
        mobility = MobilityInputs(
            lam=int(mob.get("lambda", 6)),
            n=int(mob.get("n", 10)),
            j=int(mob.get("j", 12)),
            f_sum=int(mob.get("f_sum", 22)),
        )
        return ManipulatorConfig(
            moving_plate_radius=float(raw["r_a"]),
            base_radius=float(raw["r_b"]),
            link_length=float(raw["l"]),
            limbs=limbs,
            actuator_kind=str(raw.get("actuator", "linear")),
            unit=str(raw.get("unit", "mm")),
            envelope_deg=float(raw.get("envelope_deg", DEFAULT_ENVELOPE_DEG)),
            mobility=mobility,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


@dataclass(frozen=True)
class PlatformPose:
    """Resolved platform placement with its IK: one pose, or a stack of N poses.

    ``resolve_many`` returns a stack: every array field leads with an axis of
    N, refused rows hold NaN and ``status`` records why.  ``resolve_pose``
    returns one pose, row 0 of a stack of one.
    """

    cfg: ManipulatorConfig = field(repr=False)
    y: float
    z: float
    theta: float
    psi: float
    x: float
    phi_z: float
    rotation: np.ndarray   # (..., 3, 3)
    origin: np.ndarray     # (..., 3)
    B: np.ndarray          # (..., f, 3) spherical joint centers
    q: np.ndarray          # (..., f) actuated prismatic coordinates
    a: np.ndarray          # (..., f, 3) platform origin -> B
    link: np.ndarray       # (..., f, 3) C -> B with C = A + q z_hat, norm == link length
    status: Status

    @property
    def coords(self) -> tuple[float, float, float, float]:
        return (self.y, self.z, self.theta, self.psi)


def norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the vectors (..., 3) of ``v``, each rounded as ``np.linalg.norm``.

    ``np.linalg.norm(v, axis=-1)`` sums the squares in another order than the
    BLAS dot product behind the norm of one vector: it differs in the last
    digit for about 1 in 9 vectors (numpy 2.4.6, bundled OpenBLAS, x86-64).
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def limb_axes(link: np.ndarray, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Universal-joint axes ``(s3, n)`` of links (..., 3) of length ``L``: with s2 = x_hat,
    s3 = unit(s2 x link) = (0, -l_z, l_y) / |.| (y_hat for a link along x), n = s3 x s2."""
    zero = np.zeros(link.shape[:-1])
    cross = np.stack([zero, -link[..., 2], link[..., 1]], axis=-1)
    cn = norms(cross)[..., None]
    s3 = np.divide(cross, cn, out=np.broadcast_to(Y_HAT, cross.shape).copy(),
                   where=~(cn < 1e-12 * L))
    return s3, np.stack([zero, s3[..., 2], -s3[..., 1]], axis=-1)


def _rot(c: np.ndarray, s: np.ndarray, axis: int) -> np.ndarray:
    """Stacked rotations about frame axis 0, 1 or 2 by angles of cosines ``c``, sines ``s``."""
    i, j = (axis + 1) % 3, (axis + 2) % 3  # cyclic successors carry -sin at (i, j)
    R = np.zeros((len(c), 3, 3))
    R[:, axis, axis] = 1.0
    R[:, i, i] = R[:, j, j] = c
    R[:, i, j], R[:, j, i] = -s, s
    return R


def _resolve_dependent(cfg: ManipulatorConfig, psi: np.ndarray, status: Status):
    """(x, phi_z) at N poses by damped Newton on the PRS plane residuals, one mask per pose.

    Row 0 of Rx(theta) Ry(psi) Rz(phi) is (cos psi cos phi, -cos psi sin phi,
    sin psi) and the anchors lie in z = 0, so theta drops out:
    r_k = x + cos psi (cos phi P_x - sin phi P_y) - A_x, with dr_k/dx = 1 and
    dr_k/dphi = -cos psi (sin phi P_x + cos phi P_y).  Started at (0, 0); a
    stalled solve is refused in ``status`` as NoConvergence.
    """
    prs = cfg.prs_indices()
    Px, Py = cfg.platform_points()[prs, :2].T
    Ax = cfg.base_points()[prs, 0]
    cp = np.cos(psi)[:, None]
    tol = RESOLVE_TOL * cfg.base_radius

    def residual(x, phi, rows):
        c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
        cpr = cp[rows]
        res = x[:, None] + (cpr * c * Px - cpr * s * Py) - Ax
        dres = -cpr * s * Px - cpr * c * Py
        return res, dres, np.abs(res).max(axis=1)

    n = len(psi)
    x, phi = np.zeros(n), np.zeros(n)
    res, dres, norm = residual(x, phi, slice(None))
    for _ in range(RESOLVE_MAX_ITER):
        active = ~(norm < tol) & status.ok  # refused poses leave the solve
        if not active.any():
            break
        # jac = [[1, dres_0], [1, dres_1]]
        det = dres[:, 1] - dres[:, 0]
        big = np.maximum(1.0, np.abs(dres).max(axis=1))
        singular = active & ~(np.abs(det) >= RESOLVE_DET_RTOL * big ** 2)
        status.refuse(singular, NoConvergence, lambda i: "dependent-coordinate system singular")
        rows = np.flatnonzero(active & ~singular)
        jac = np.ones((len(rows), 2, 2))
        jac[:, :, 1] = dres[rows]
        # one LAPACK 2x2 solve per pose, whatever the stack
        step = np.linalg.solve(jac, -res[rows, :, None])[..., 0]
        lam = 1.0  # the poses still searching have all been halved equally often
        for _ in range(RESOLVE_HALVINGS):
            x_t, phi_t = x[rows] + lam * step[:, 0], phi[rows] + lam * step[:, 1]
            res_t, dres_t, norm_t = residual(x_t, phi_t, rows)
            take = (norm_t < norm[rows]) | (norm_t < tol)
            t = rows[take]
            x[t], phi[t] = x_t[take], phi_t[take]
            res[t], dres[t], norm[t] = res_t[take], dres_t[take], norm_t[take]
            rows, step = rows[~take], step[~take]
            if not len(rows):
                break
            lam *= 0.5
        stalled = np.zeros(n, bool)
        stalled[rows] = True
        status.refuse(stalled, NoConvergence, lambda i: "damped Newton made no progress")
    else:
        # these took the last allowed step without reaching the tolerance
        status.refuse(active, NoConvergence,
                      lambda i: f"residual {norm[i]:.3e} after {RESOLVE_MAX_ITER} "
                                f"iterations (tol {tol:.1e})", value=norm)
    return x, phi


def resolve_many(cfg: ManipulatorConfig, coords, envelope_deg: float | None = None
                 ) -> PlatformPose:
    """Resolve the M poses (y, z, theta, psi) of ``coords`` (M, 4) and their IK, as a stack.

    (x, phi_z) come from a damped Newton solve whose tolerance is RESOLVE_TOL
    relative to r_b (so it is exactly equivariant under geometric scaling),
    the joints from the closed-form prismatic IK, elbow-down (C below B).
    ``status`` refuses a non-finite pose, one outside the ``envelope_deg``
    envelope (by default the config's) or out of a limb's reach as
    Unreachable, and a stalled solve as NoConvergence.  A row takes the same
    operations in any stack, so it equals ``resolve_pose`` bit for bit.
    """
    coords = np.array(coords, float).reshape(-1, 4)  # a copy: the messages read it later
    env = cfg.envelope_deg if envelope_deg is None else envelope_deg
    lim = math.radians(env) + ENVELOPE_SLACK
    status = Status((len(coords),))
    status.refuse(~np.isfinite(coords).all(axis=1), Unreachable,
                  lambda i: f"pose coordinates {tuple(coords[i].tolist())} are not all finite")
    status.refuse(~(np.abs(coords[:, 2:]) <= lim).all(axis=1), Unreachable,
                  lambda i: f"(theta, psi) = ({math.degrees(coords[i][2]):.2f}, "
                            f"{math.degrees(coords[i][3]):.2f}) deg outside the "
                            f"+/-{env:g} deg envelope")
    # refused rows ride along at (0, 0, 0, 0) and are blanked at the end
    y, z, th, ps = np.where(status.ok[:, None], coords, 0.0).T
    x, phi = _resolve_dependent(cfg, ps, status)

    R = _rot(np.cos(th), np.sin(th), 0) @ _rot(np.cos(ps), np.sin(ps), 1) \
        @ _rot(np.cos(phi), np.sin(phi), 2)
    origin = np.empty((len(coords), 3))
    origin[:, 0], origin[:, 1], origin[:, 2] = x, y, z
    # one matrix-vector product per anchor, which rounds as ``rotation @ P[i]``
    B = origin[:, None, :] + (R[:, None] @ cfg.platform_points()[:, :, None])[..., 0]
    A, L = cfg.base_points(), cfg.link_length
    dx, dy = B[..., 0] - A[:, 0], B[..., 1] - A[:, 1]
    disc = L * L - dx * dx - dy * dy
    disc[(disc >= -IK_CLAMP * L * L) & (disc < 0.0)] = 0.0
    offset = np.hypot(dx, dy)
    status.refuse_first(disc < 0.0, Unreachable,
                        lambda i, k: f"limb {k + 1}: lateral offset {offset[i][k]:.6g} "
                                     f"exceeds link {L:g}", value=offset)
    refused = ~status.ok
    q = B[..., 2] - np.sqrt(np.where(refused[:, None], math.nan, disc))
    if refused.any():
        for v in (x, phi, R, origin, B):
            v[refused] = math.nan
    link = B - (A + q[..., None] * Z_HAT)
    return PlatformPose(cfg, *coords.T, x, phi, R, origin, B, q, B - origin[:, None, :], link,
                        status)


def resolve_pose(
    cfg: ManipulatorConfig,
    y: float,
    z: float,
    theta: float,
    psi: float,
    envelope_deg: float | None = None,
) -> PlatformPose:
    """``resolve_many`` at one pose: a stack of one, whose refusal is raised.

    Raises Unreachable or NoConvergence as ``resolve_many`` records them.
    The returned pose carries its IK, so callers never run IK on it again.
    """
    poses = resolve_many(cfg, (y, z, theta, psi), envelope_deg)
    poses.status.check()
    return PlatformPose(cfg, *(float(v[0]) for v in (*poses.coords, poses.x, poses.phi_z)),
                        *(v[0] for v in (poses.rotation, poses.origin, poses.B, poses.q, poses.a,
                                         poses.link)), Status())


def tsai_mobility(mobility: MobilityInputs) -> int:
    """Degrees of freedom by the mobility count lambda*(n - j - 1) + sum(f_i)."""
    return mobility.lam * (mobility.n - mobility.j - 1) + mobility.f_sum
