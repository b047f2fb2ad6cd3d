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
#: |v| <= DBL_MAX holds exactly for the finite v
DBL_MAX = np.finfo(float).max
#: the longest radius or link the loader admits: the chain squares sums of a few lengths
#: (the reach of a link, the norms of the collinearity check), whose squares overflow from
#: about 1e154 on; below this bound they stay under 1e300
MAX_LENGTH = 1e150
#: the shortest radius or link the loader admits: from this bound on those squares stay above
#: 1e-300, in the normal range of a double (from about 2.2e-308), where they keep their digits
MIN_LENGTH = 1e-150


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
    unit: str = "mm"
    envelope_deg: float = DEFAULT_ENVELOPE_DEG
    mobility: MobilityInputs = field(
        default_factory=lambda: MobilityInputs(lam=6, n=10, j=12, f_sum=22)
    )

    def __post_init__(self):
        lengths = (self.moving_plate_radius, self.base_radius, self.link_length)
        if not all(MIN_LENGTH <= v <= MAX_LENGTH for v in lengths):  # NaN fails both
            raise ConfigError(f"radii and link length must be at least {MIN_LENGTH:g} and at "
                              f"most {MAX_LENGTH:g}, got r_a = {lengths[0]!r}, r_b = "
                              f"{lengths[1]!r}, l = {lengths[2]!r}")
        if not (math.isfinite(self.envelope_deg) and self.envelope_deg > 0):
            raise ConfigError(f"envelope_deg must be finite and positive, "
                              f"got {self.envelope_deg!r}")
        if self.unit not in UNIT_SCALES:
            raise ConfigError(f"unknown unit {self.unit!r} (expected mm or m)")
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

    def prs_indices(self) -> np.ndarray:
        """Indices of the PRS limbs, read-only; cached as ``platform_points``."""
        return self._prs_indices

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

    @functools.cached_property
    def _prs_indices(self) -> np.ndarray:
        prs = np.flatnonzero([limb.kind == "PRS" for limb in self.limbs])
        prs.flags.writeable = False
        return prs

    @functools.cached_property
    def _prs_anchors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(P_x, P_y, A_x) of the PRS limbs: their platform anchors and rail feet."""
        prs = self.prs_indices()
        return (*self.platform_points()[prs, :2].T, self.base_points()[prs, 0])

    def scaled(self, s: float, unit: str | None = None) -> "ManipulatorConfig":
        """Copy with every length multiplied by s (pure geometric scaling)."""
        if not (math.isfinite(s) and s > 0):
            raise ConfigError(f"scale must be finite and positive, got {s!r}")
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
    scale = np.linalg.norm(d, axis=1).max()  # 0 for coincident points, which are refused
    return bool((np.linalg.svd(d, compute_uv=False) > 1e-9 * scale).sum() < 2)


def load_config(path: str | Path) -> ManipulatorConfig:
    """Load a manipulator description from the documented JSON schema."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


#: the keys of the JSON schema: top level, limb entries, and mobility counts with defaults
CONFIG_KEYS = frozenset({"r_a", "r_b", "l", "limbs", "actuator", "unit", "envelope_deg",
                         "mobility"})
LIMB_KEYS = frozenset({"angle_deg", "kind", "base_angle_deg"})
MOBILITY_DEFAULTS = {"lambda": 6, "n": 10, "j": 12, "f_sum": 22}


def _known_keys(entry, known, where: str) -> None:
    """Refuse as ConfigError the keys of a JSON object that the schema does not name."""
    unknown = sorted(set(entry) - known) if isinstance(entry, dict) else []
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}")


def _number(entry: dict, key: str, what: str = "", default=None, count: bool = False):
    """The JSON number ``entry[key]`` (``default`` when absent and given), never a bool or a
    string: a float, or for a ``count`` an int from an integer or an integral float.  A
    refusal names the value and ``what`` it is (by default the key)."""
    v = entry[key] if default is None else entry.get(key, default)
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float)
                                   and (v.is_integer() or not count)):
        raise ConfigError(f"{what or repr(key)} must be {'an integer' if count else 'a number'}, "
                          f"got {v!r}")
    return int(v) if count else float(v)


def config_from_dict(raw: dict) -> ManipulatorConfig:
    _known_keys(raw, CONFIG_KEYS, "config")
    try:
        for i, entry in enumerate(raw["limbs"]):
            _known_keys(entry, LIMB_KEYS, f"limb {i + 1}")
        limbs = tuple(
            LimbSpec(
                angle_deg=_number(entry, "angle_deg", f"'angle_deg' of limb {i + 1}"),
                kind=str(entry["kind"]),
                base_angle_deg=(_number(entry, "base_angle_deg",
                                        f"'base_angle_deg' of limb {i + 1}")
                                if "base_angle_deg" in entry else None),
            )
            for i, entry in enumerate(raw["limbs"])
        )
        actuator = raw.get("actuator", "linear")
        if actuator != "linear":
            raise ConfigError('actuator must be "linear" (the chain writes prismatic '
                              f'actuation rows), got {actuator!r}')
        mob = raw.get("mobility", {})
        if not isinstance(mob, dict):
            raise ConfigError(f"mobility must be an object of counts, got {mob!r}")
        _known_keys(mob, frozenset(MOBILITY_DEFAULTS), "mobility")
        mobility = MobilityInputs(*(
            _number(mob, key, f"mobility count {key!r}", default, count=True)
            for key, default in MOBILITY_DEFAULTS.items()))
        return ManipulatorConfig(
            moving_plate_radius=_number(raw, "r_a"),
            base_radius=_number(raw, "r_b"),
            link_length=_number(raw, "l"),
            limbs=limbs,
            unit=str(raw.get("unit", "mm")),
            envelope_deg=_number(raw, "envelope_deg", default=DEFAULT_ENVELOPE_DEG),
            mobility=mobility,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


@dataclass
class PlatformPose:
    """Resolved platform placements with their IK, as a stack of N poses.

    Every array field leads with an axis of N, refused rows hold NaN (but
    for their coordinates) and ``status`` records why.  ``resolve_pose``
    returns a stack of one.

    The records of the chain (this one, ``InverseJacobian``, ``ForwardJacobian``,
    ``SelectionMatrix``, ``DexterityRecord``) are not frozen: a frozen dataclass
    sets each field through ``object.__setattr__``, about 2.2 us for the 11
    fields of this one against 0.4 us for a plain one, on every pose.
    """

    cfg: ManipulatorConfig = field(repr=False)
    coords: np.ndarray     # (N, 4) the poses (y, z, theta, psi) as requested
    x: np.ndarray          # (N,)
    phi_z: np.ndarray      # (N,)
    rotation: np.ndarray   # (N, 3, 3)
    origin: np.ndarray     # (N, 3)
    B: np.ndarray          # (N, f, 3) spherical joint centers
    q: np.ndarray          # (N, f) actuated prismatic coordinates
    a: np.ndarray          # (N, f, 3) platform origin -> B
    link: np.ndarray       # (N, f, 3) C -> B with C = A + q z_hat, norm == link length
    status: Status

    def take(self, rows) -> PlatformPose:
        """The poses ``rows`` of a stack, as a stack, with their refusals."""
        rows = np.asarray(rows, dtype=np.intp)
        return PlatformPose(self.cfg, *(v[rows] for v in (
            self.coords, self.x, self.phi_z, self.rotation,
            self.origin, self.B, self.q, self.a, self.link)), self.status.take(rows))


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


_AXES = np.arange(3)
_AXIS_DIAGONAL = 4 * _AXES  # flat places of (0, 0), (1, 1) and (2, 2) in a 3x3 matrix
#: flat places in a 3x3 matrix of -sin and +sin in the rotation about axis 0, 1, 2: with
#: (i, j) the cyclic successors of the axis, -sin sits at (i, j) and +sin at (j, i)
_MINUS_SIN, _PLUS_SIN = np.array([5, 6, 1]), np.array([7, 2, 3])


def _rotations(angles: np.ndarray) -> np.ndarray:
    """Rotations (3, N, 3, 3) about frame axes 0, 1 and 2 by the rows of ``angles`` (3, N)."""
    c, s = np.cos(angles), np.sin(angles)
    R = np.zeros(angles.shape + (9,))
    R[..., ::4] = c[..., None]  # the diagonal; the axis itself holds 1
    R[_AXES, :, _AXIS_DIAGONAL] = 1.0
    R[_AXES, :, _MINUS_SIN] = -s
    R[_AXES, :, _PLUS_SIN] = s
    return R.reshape(angles.shape + (3, 3))


def _plane_residual(cp, Px, Py, Ax, x, phi):
    """The PRS plane residuals (N, 2) at (x, phi) (N,), their slopes in phi, and max |r| (N,).

    Row 0 of Rx(theta) Ry(psi) Rz(phi) is (cos psi cos phi, -cos psi sin phi,
    sin psi) and the anchors lie in z = 0, so theta drops out:
    r_k = x + cos psi (cos phi P_x - sin phi P_y) - A_x, with dr_k/dx = 1 and
    dr_k/dphi = -cos psi (sin phi P_x + cos phi P_y); ``cp`` is cos psi (N, 1).
    """
    cc, cs = cp * np.cos(phi)[:, None], cp * np.sin(phi)[:, None]
    res = x[:, None] + (cc * Px - cs * Py) - Ax
    dres = -(cs * Px) - cc * Py
    return res, dres, np.abs(res).max(axis=1)


def _start_residual(cp, Px, Py, Ax):
    """``_plane_residual`` at the start (x, phi) = (0, 0), in closed form.

    cos 0 = 1 and sin 0 = 0 exactly, so the residual is cp P_x - A_x and the
    slope -(cp P_y): bit for bit the general form, signed zeros included, for
    every P_x != 0 (``_ring`` never places an anchor at P_x = 0) except at a
    PRS limb angle of -0.0 (P_y = -0.0) with cos psi < 0, past a 90 deg
    envelope.  There the zero slope is -0.0 instead of +0.0, which the step
    solve carries into neither x nor phi.
    """
    res = cp * Px - Ax
    return res, -(cp * Py), np.abs(res).max(axis=1)


def _resolve_dependent(cfg: ManipulatorConfig, psi: np.ndarray, status: Status):
    """(x, phi_z) at N poses by damped Newton on the PRS plane residuals, one mask per pose.

    The residuals are ``_plane_residual``'s.  Started at (0, 0), where they
    take their closed form; a stalled solve is refused in ``status`` as
    NoConvergence.
    """
    Px, Py, Ax = cfg._prs_anchors
    cp = np.cos(psi)[:, None]
    tol = RESOLVE_TOL * cfg.base_radius
    n = len(psi)
    x, phi = np.zeros(n), np.zeros(n)
    res, dres, norm = _start_residual(cp, Px, Py, Ax)
    for _ in range(RESOLVE_MAX_ITER):
        active = ~(norm < tol)
        if status.refusals:
            active &= status.ok  # refused poses leave the solve
        if not np.count_nonzero(active):
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
            res_t, dres_t, norm_t = _plane_residual(cp[rows], Px, Py, Ax, x_t, phi_t)
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


def _all_refused(cfg: ManipulatorConfig, coords: np.ndarray, status: Status) -> PlatformPose:
    """``resolve_many``'s stack when every pose is refused: every array but the coordinates NaN."""
    n, f = len(coords), cfg.limb_count
    arrays = []
    for shape in ((n,), (n,), (n, 3, 3), (n, 3), (n, f, 3), (n, f), (n, f, 3), (n, f, 3)):
        v = np.empty(shape)
        v.fill(math.nan)
        arrays.append(v)
    return PlatformPose(cfg, coords, *arrays, status)


def resolve_many(cfg: ManipulatorConfig, coords, envelope_deg: float | None = None
                 ) -> PlatformPose:
    """Resolve the M poses (y, z, theta, psi) of ``coords`` (M, 4) and their IK, as a stack.

    (x, phi_z) come from a damped Newton solve whose tolerance is RESOLVE_TOL
    relative to r_b (so it is exactly equivariant under geometric scaling),
    the joints from the closed-form prismatic IK, elbow-down (C below B).
    ``status`` refuses a non-finite pose, one outside the ``envelope_deg``
    envelope (by default the config's) or out of a limb's reach as
    Unreachable, and a stalled solve as NoConvergence.  A row takes the same
    operations in any stack, so it equals ``resolve_pose`` bit for bit; a
    refused row is NaN but for its coordinates, and a stack whose every row
    is refused stops at the stage that refuses the last (``_all_refused``).
    """
    coords = np.array(coords, float).reshape(-1, 4)  # a copy: the messages read it later
    n = len(coords)
    env = cfg.envelope_deg if envelope_deg is None else envelope_deg
    lim = math.radians(env) + ENVELOPE_SLACK
    status = Status(n)
    # a pose passes both guards when its coordinates are finite and (theta, psi) in the envelope
    if np.count_nonzero(np.abs(coords) <= (DBL_MAX, DBL_MAX, lim, lim)) < coords.size:
        status.refuse(~np.isfinite(coords).all(axis=1), Unreachable,
                      lambda i: f"pose coordinates {tuple(coords[i].tolist())} are not all finite")
        status.refuse(~(np.abs(coords[:, 2:]) <= lim).all(axis=1), Unreachable,
                      lambda i: f"(theta, psi) = ({math.degrees(coords[i][2]):.2f}, "
                                f"{math.degrees(coords[i][3]):.2f}) deg outside the "
                                f"+/-{env:g} deg envelope")
        if len(status.refusals) == n:
            return _all_refused(cfg, coords, status)
    # refused rows ride along at (0, 0, 0, 0) and are blanked at the end
    y, z, th, ps = (np.where(status.ok[:, None], coords, 0.0) if status.refusals else coords).T
    x, phi = _resolve_dependent(cfg, ps, status)
    if len(status.refusals) == n:
        return _all_refused(cfg, coords, status)

    Rx, Ry, Rz = _rotations(np.array((th, ps, phi)))
    R = Rx @ Ry @ Rz
    origin = np.empty((n, 3))
    origin[:, 0], origin[:, 1], origin[:, 2] = x, y, z
    # one matrix-vector product per anchor, which rounds as ``rotation @ P[i]``
    B = origin[:, None, :] + (R[:, None] @ cfg.platform_points()[:, :, None])[..., 0]
    A, L = cfg.base_points(), cfg.link_length
    d = B[..., :2] - A[:, :2]
    dx, dy = d[..., 0], d[..., 1]
    disc = L * L - dx * dx - dy * dy
    out_of_reach = disc < 0.0
    if np.count_nonzero(out_of_reach):
        disc[out_of_reach & (disc >= -IK_CLAMP * L * L)] = 0.0
        out_of_reach = disc < 0.0
        offset = np.hypot(dx, dy)  # read by the message alone
        status.refuse_first(out_of_reach, Unreachable,
                            lambda i, k: f"limb {k + 1}: lateral offset {offset[i][k]:.6g} "
                                         f"exceeds link {L:g}", value=offset)
        if len(status.refusals) == n:
            return _all_refused(cfg, coords, status)
    if status.refusals:
        refused = ~status.ok
        for v in (x, phi, R, origin, B, disc):
            v[refused] = math.nan
    q = B[..., 2] - np.sqrt(disc)
    link = B - (A + q[..., None] * Z_HAT)
    return PlatformPose(cfg, coords, x, phi, R, origin, B, q, B - origin[:, None, :], link,
                        status)


def resolve_pose(
    cfg: ManipulatorConfig,
    y: float,
    z: float,
    theta: float,
    psi: float,
    envelope_deg: float | None = None,
) -> PlatformPose:
    """``resolve_many`` at one pose: the stack of one, whose refusal is raised.

    Raises Unreachable or NoConvergence as ``resolve_many`` records them.
    The returned stack carries its IK, so callers never run IK on it again.
    """
    pose = resolve_many(cfg, [(y, z, theta, psi)], envelope_deg)
    pose.status.check()
    return pose


def tsai_mobility(mobility: MobilityInputs) -> int:
    """Degrees of freedom by the mobility count lambda*(n - j - 1) + sum(f_i)."""
    return mobility.lam * (mobility.n - mobility.j - 1) + mobility.f_sum
