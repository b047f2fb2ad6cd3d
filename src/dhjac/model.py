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

from .errors import ConfigError, NoConvergence, Unreachable

X_HAT = np.array([1.0, 0.0, 0.0])
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


def rot_x(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


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
    """Counts for Tsai's degree-of-freedom formula."""

    lam: int
    n: int
    j: int
    f_sum: int


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
        if len(self.prs_indices()) != 2:
            raise ConfigError("reference pipeline expects exactly two PRS limbs")
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


def collinear(points):
    """True when the points span less than a plane (rank tolerance 1e-9 relative).

    ``points`` is (n, 3), or a stack (..., n, 3) for one answer per set.
    """
    p = np.asarray(points, float)
    d = p - p[..., :1, :]
    scale = np.maximum(np.linalg.norm(d, axis=-1).max(axis=-1), 1e-30)
    return np.linalg.matrix_rank(d, tol=1e-9 * scale) < 2


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
    """Resolved platform placement: independent coords plus slaved (x, phi_z)."""

    y: float
    z: float
    theta: float
    psi: float
    x: float
    phi_z: float
    rotation: np.ndarray
    origin: np.ndarray
    #: closed-form IK of this pose, computed once by ``resolve_pose``
    limbs: tuple[LimbKinematics, ...] = ()

    @property
    def coords(self) -> tuple[float, float, float, float]:
        return (self.y, self.z, self.theta, self.psi)


@dataclass(frozen=True)
class LimbKinematics:
    """Pose-dependent vectors of one limb, fixed-frame components."""

    index: int
    kind: str
    A: np.ndarray          # rail foot
    C: np.ndarray          # U/R joint center = A + q * z_hat
    B: np.ndarray          # spherical joint center
    q: float               # actuated prismatic coordinate
    a: np.ndarray          # platform origin -> B
    b: np.ndarray          # fixed origin -> A
    link: np.ndarray       # C -> B, norm == link length
    s1: np.ndarray         # actuated rail axis
    s2: np.ndarray         # R axis (PRS) / slider-fixed U axis (PUS), always x_hat
    s3: np.ndarray         # link-fixed U axis, unit(s2 x link) = (0, -l_z, l_y) / |.|
    n: np.ndarray          # s3 x s2 = (0, s3_z, -s3_y)


def _prs_residual(cfg: ManipulatorConfig, cos_psi: float, x: float, phi: float):
    """Plane residuals B_ix - A_ix of the two PRS limbs and their phi-derivatives.

    Row 0 of Rx(theta) Ry(psi) Rz(phi) is (cos psi cos phi, -cos psi sin phi,
    sin psi) and the anchors lie in z = 0, so theta drops out:
    r_k = x + cos psi (cos phi P_x - sin phi P_y) - A_x, with dr_k/dx = 1 and
    dr_k/dphi = -cos psi (sin phi P_x + cos phi P_y), as ``_resolve_dependent``.
    Returns ``(res, dres)``, two 2-tuples of floats.
    """
    P = cfg.platform_points()
    A = cfg.base_points()
    c, s = math.cos(phi), math.sin(phi)
    res, dres = [], []
    for i in cfg.prs_indices():
        px, py = float(P[i, 0]), float(P[i, 1])
        res.append(x + (cos_psi * c * px - cos_psi * s * py) - float(A[i, 0]))
        dres.append(-cos_psi * s * px - cos_psi * c * py)
    return tuple(res), tuple(dres)


def resolve_pose(
    cfg: ManipulatorConfig,
    y: float,
    z: float,
    theta: float,
    psi: float,
    envelope_deg: float | None = None,
) -> PlatformPose:
    """Solve the dependent coordinates (x, phi_z) for given independent coords.

    Damped Newton on the two PRS plane residuals, started at (0, 0).  The
    tolerance is RESOLVE_TOL relative to the base radius so the solve is
    exactly equivariant under geometric scaling.  Raises Unreachable when a
    coordinate is not finite, (theta, psi) is outside the rotational envelope
    or the downstream IK has no real solution, NoConvergence when the 2x2
    solve stalls.  The returned pose carries the IK limbs, so callers never
    run IK on it again.
    """
    if not all(map(math.isfinite, (y, z, theta, psi))):
        raise Unreachable(f"pose coordinates {(y, z, theta, psi)} are not all finite")
    env = cfg.envelope_deg if envelope_deg is None else envelope_deg
    lim = math.radians(env) + ENVELOPE_SLACK
    if abs(theta) > lim or abs(psi) > lim:
        raise Unreachable(
            f"(theta, psi) = ({math.degrees(theta):.2f}, {math.degrees(psi):.2f}) deg "
            f"outside the +/-{env:g} deg envelope"
        )
    tol = RESOLVE_TOL * cfg.base_radius
    cos_psi = math.cos(psi)

    x, phi = 0.0, 0.0
    res, dres = _prs_residual(cfg, cos_psi, x, phi)
    norm = max(abs(res[0]), abs(res[1]))
    for _ in range(RESOLVE_MAX_ITER):
        if norm < tol:
            break
        # jac = [[1, dres_0], [1, dres_1]]
        det = dres[1] - dres[0]
        if abs(det) < RESOLVE_DET_RTOL * max(1.0, abs(dres[0]), abs(dres[1])) ** 2:
            raise NoConvergence("dependent-coordinate system singular")
        step = np.linalg.solve([[1.0, dres[0]], [1.0, dres[1]]], [-res[0], -res[1]])
        lam = 1.0
        for _ in range(RESOLVE_HALVINGS):
            res_new, dres_new = _prs_residual(
                cfg, cos_psi, x + lam * step[0], phi + lam * step[1])
            norm_new = max(abs(res_new[0]), abs(res_new[1]))
            if norm_new < norm or norm_new < tol:
                break
            lam *= 0.5
        else:
            raise NoConvergence("damped Newton made no progress")
        x += lam * step[0]
        phi += lam * step[1]
        res, dres, norm = res_new, dres_new, norm_new
    else:
        raise NoConvergence(
            f"residual {norm:.3e} after {RESOLVE_MAX_ITER} iterations (tol {tol:.1e})")

    R = rot_x(theta) @ rot_y(psi) @ rot_z(phi)
    pose = PlatformPose(
        y=y, z=z, theta=theta, psi=psi, x=x, phi_z=phi,
        rotation=R, origin=np.array([x, y, z]),
    )
    # reachability of the actuated joints is part of the pose contract
    return replace(pose, limbs=tuple(inverse_kinematics(cfg, pose)))


def inverse_kinematics(cfg: ManipulatorConfig, pose: PlatformPose) -> list[LimbKinematics]:
    """Closed-form prismatic IK, elbow-down branch (C below B)."""
    out = []
    P = cfg.platform_points()
    A = cfg.base_points()
    L = cfg.link_length
    clamp = IK_CLAMP * L * L
    for i, spec in enumerate(cfg.limbs):
        B = pose.origin + pose.rotation @ P[i]
        dx, dy = B[0] - A[i, 0], B[1] - A[i, 1]
        disc = L * L - dx * dx - dy * dy
        if -clamp <= disc < 0.0:
            disc = 0.0
        if disc < 0.0:
            raise Unreachable(
                f"limb {i + 1}: lateral offset {math.hypot(dx, dy):.6g} exceeds link {L:g}")
        q = B[2] - math.sqrt(disc)
        C = A[i] + q * Z_HAT
        link = B - C
        # s2 = x_hat, so s2 x link = (0, -l_z, l_y) and s3 x s2 = (0, s3_z, -s3_y)
        cross = np.array([0.0, -link[2], link[1]])
        cn = math.sqrt(cross @ cross)  # np.linalg.norm(cross), bit for bit
        if cn < 1e-12 * L:
            # link parallel to the x axis; universal axis direction undefined
            s3 = np.array([0.0, 1.0, 0.0])
        else:
            s3 = cross / cn
        out.append(LimbKinematics(
            index=i, kind=spec.kind,
            A=A[i], C=C, B=B, q=q,
            a=B - pose.origin, b=A[i], link=link,
            s1=Z_HAT, s2=X_HAT, s3=s3, n=np.array([0.0, s3[2], -s3[1]]),
        ))
    return out


def _rot(c: np.ndarray, s: np.ndarray, axis: int) -> np.ndarray:
    """Stacked rotations about one frame axis, entries as ``rot_x/y/z``."""
    i, j = (axis + 1) % 3, (axis + 2) % 3  # cyclic successors carry -sin at (i, j)
    R = np.zeros((len(c), 3, 3))
    R[:, axis, axis] = 1.0
    R[:, i, i] = R[:, j, j] = c
    R[:, i, j], R[:, j, i] = -s, s
    return R


def _resolve_dependent(cfg: ManipulatorConfig, psi: np.ndarray):
    """(x, phi_z) at N poses by ``resolve_pose``'s damped Newton, one mask per pose.

    The PRS plane residuals depend on psi and phi_z only (theta rotates about
    the x axis they measure along).  Returns ``x, phi, converged``.
    """
    prs = cfg.prs_indices()
    P = cfg.platform_points()[prs]
    Ax = cfg.base_points()[prs, 0]
    cp = np.cos(psi)[:, None]
    tol = RESOLVE_TOL * cfg.base_radius

    def residual(x, phi, rows):
        c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
        res = x[:, None] + (cp[rows] * c * P[:, 0] - cp[rows] * s * P[:, 1]) - Ax
        dres = -cp[rows] * s * P[:, 0] - cp[rows] * c * P[:, 1]
        return res, dres, np.abs(res).max(axis=1)

    n = len(psi)
    x, phi = np.zeros(n), np.zeros(n)
    res, dres, norm = residual(x, phi, slice(None))
    failed = np.zeros(n, bool)
    for _ in range(RESOLVE_MAX_ITER):
        active = ~(norm < tol) & ~failed
        if not active.any():
            break
        # jac = [[1, dres_0], [1, dres_1]]
        det = dres[:, 1] - dres[:, 0]
        big = np.maximum(1.0, np.abs(dres).max(axis=1))
        failed |= active & ~(np.abs(det) >= RESOLVE_DET_RTOL * big ** 2)
        active &= ~failed
        rows = np.flatnonzero(active)
        jac = np.ones((len(rows), 2, 2))
        jac[:, :, 1] = dres[rows]
        # one LAPACK solve per pose, bit for bit the 2x2 solve of resolve_pose
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
        failed[rows] = True
    else:
        # these took the last allowed step; resolve_pose gives up on them
        failed |= active
    return x, phi, ~failed


def resolve_many(cfg: ManipulatorConfig, coords, envelope_deg: float | None = None):
    """``resolve_pose`` with its IK at the M poses (y, z, theta, psi) of ``coords`` (M, 4).

    Returns ``(R, origin, B, q, ok)``: rotations (M, 3, 3), origins (M, 3),
    spherical joint centers (M, f, 3), joint values (M, f) and ``ok`` (M,),
    True where ``resolve_pose`` with this ``envelope_deg`` returns a pose;
    refused rows hold NaN.  Each row takes the operations of the per-pose
    path, so it equals ``resolve_pose``'s values bit for bit.
    """
    coords = np.asarray(coords, float).reshape(-1, 4)
    env = cfg.envelope_deg if envelope_deg is None else envelope_deg
    lim = math.radians(env) + ENVELOPE_SLACK
    ok = np.isfinite(coords).all(axis=1) & (np.abs(coords[:, 2:]) <= lim).all(axis=1)
    # refused rows ride along at (0, 0, 0, 0) and are blanked at the end
    y, z, th, ps = np.where(ok[:, None], coords, 0.0).T
    x, phi, converged = _resolve_dependent(cfg, ps)
    ok &= converged

    # closed-form IK, elbow-down, as inverse_kinematics
    R = _rot(np.cos(th), np.sin(th), 0) @ _rot(np.cos(ps), np.sin(ps), 1) \
        @ _rot(np.cos(phi), np.sin(phi), 2)
    origin = np.stack([x, y, z], axis=1)
    # one matrix-vector product per anchor, as ``rotation @ P[i]`` rounds it
    B = origin[:, None, :] + (R[:, None] @ cfg.platform_points()[:, :, None])[..., 0]
    A, L = cfg.base_points(), cfg.link_length
    dx, dy = B[..., 0] - A[:, 0], B[..., 1] - A[:, 1]
    disc = L * L - dx * dx - dy * dy
    disc[(disc >= -IK_CLAMP * L * L) & (disc < 0.0)] = 0.0
    ok &= (disc >= 0.0).all(axis=1)
    q = B[..., 2] - np.sqrt(np.where(ok[:, None], disc, math.nan))
    for v in (R, origin, B):
        v[~ok] = math.nan
    return R, origin, B, q, ok


def tsai_mobility(mobility: MobilityInputs) -> int:
    """Degrees of freedom by the mobility count lambda*(n - j - 1) + sum(f_i)."""
    if min(mobility.lam, mobility.n, mobility.j, mobility.f_sum) < 0:
        raise ConfigError("mobility counts must be nonnegative")
    return mobility.lam * (mobility.n - mobility.j - 1) + mobility.f_sum
