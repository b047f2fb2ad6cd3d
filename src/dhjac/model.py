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

from .errors import ConfigError, Status, Unreachable

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])

DEFAULT_ENVELOPE_DEG = 50.0
UNIT_SCALES = {"mm": 1.0, "m": 0.001}

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
#: a gap between the two PRS rail planes within RAIL_ROUNDING r_b is rounding, and counts as 0:
#: each rail foot r_b cos b rounds within 1.5 eps r_b (1 + |b|), b in radians, so two feet at
#: base angles within +/-360 deg round apart by at most 22 eps r_b.  The band does not grow
#: with |b|: a real gap written at a base angle many turns out is never taken for rounding
RAIL_ROUNDING = 32.0 * np.finfo(float).eps
#: points whose spread lies within LAYOUT_TOL of their size coincide: the rank tolerance of
#: ``collinear``, and the least distance between the PRS anchors as a fraction of r_a
LAYOUT_TOL = 1e-9


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
        _check_layout(tuple(self.limbs))  # a list of limbs is a layout too
        dA, rho = self._prs_planes[:2]
        if not abs(dA) < rho:
            raise ConfigError(f"the PRS rail planes lie {abs(dA):.6g} {self.unit} apart, not "
                              f"closer than the {rho:.6g} {self.unit} between their platform "
                              f"anchors: no pose keeps both anchors in their planes")
        if rho <= LAYOUT_TOL * self.moving_plate_radius:  # scale-free: rho / r_a
            raise ConfigError(f"the PRS platform anchors lie {rho:.6g} {self.unit} apart, "
                              f"within {LAYOUT_TOL:g} of r_a = {self.moving_plate_radius:.6g} "
                              f"{self.unit}: their rail planes cannot fix the twist phi_z")

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
    def _prs_planes(self) -> tuple[float, float, float, float]:
        """``(dA, rho, delta, A_1x)``: the plane constraint of the two PRS limbs in closed form.

        Row 0 of Rx(theta) Ry(psi) Rz(phi) is (cos psi cos phi, -cos psi sin phi,
        sin psi) and the anchors lie in z = 0, so PRS anchor P_k stays in its rail
        plane when x + cos psi (cos phi P_kx - sin phi P_ky) = A_kx.  With dP = P_1 - P_2
        and dA = A_1x - A_2x, both signed so that dP_y >= 0, the difference of the two
        reads cos psi rho sin(delta - phi) = dA, where rho = |dP| and
        delta = atan2(dP_x, dP_y).  A dA within the rounding of the rail feet is 0:
        the rounding of cos 90 deg puts rails at 90 and 270 deg 2.4e-16 r_b apart,
        which k = dA / rho would turn into a twist of a small plate.
        """
        prs = self.prs_indices()
        (p1x, p1y), (p2x, p2y) = self.platform_points()[prs, :2].tolist()
        a1x, a2x = self.base_points()[prs, 0].tolist()
        sign = -1.0 if p1y < p2y else 1.0
        dx, dy, dA = sign * (p1x - p2x), sign * (p1y - p2y), sign * (a1x - a2x)
        if abs(dA) <= RAIL_ROUNDING * self.base_radius:
            dA = 0.0
        return dA, math.hypot(dx, dy), math.atan2(dx, dy), a1x

    def scaled(self, s: float) -> "ManipulatorConfig":
        """Copy with every length multiplied by s (pure geometric scaling).

        The copy's unit is the supported unit whose factor in ``UNIT_SCALES``
        equals ``UNIT_SCALES[self.unit] * s`` (``mm`` scaled by 0.001 is ``m``),
        or else this config's own unit.
        """
        if not (math.isfinite(s) and s > 0):
            raise ConfigError(f"scale must be finite and positive, got {s!r}")
        target = UNIT_SCALES[self.unit] * s
        return replace(
            self,
            moving_plate_radius=self.moving_plate_radius * s,
            base_radius=self.base_radius * s,
            link_length=self.link_length * s,
            unit=next((u for u, f in UNIT_SCALES.items() if f == target), self.unit),
        )

    def in_unit(self, unit: str) -> "ManipulatorConfig":
        """Convert the stored lengths to another supported unit."""
        if unit not in UNIT_SCALES:
            raise ConfigError(f"unknown unit {unit!r}")
        if unit == self.unit:
            return self
        return self.scaled(UNIT_SCALES[unit] / UNIT_SCALES[self.unit])


@functools.lru_cache(maxsize=64)
def _check_layout(limbs: tuple[LimbSpec, ...]) -> None:
    """Refuse as ConfigError a limb layout the chain cannot take.  Scale-free (collinearity is
    judged on unit rings), so judged once per distinct ``limbs``, a refused one each time."""
    for limb in limbs:
        if limb.kind not in ("PUS", "PRS"):
            raise ConfigError(f"unknown limb kind {limb.kind!r}")
        if not (math.isfinite(limb.angle_deg) and math.isfinite(limb.base_deg)):
            raise ConfigError("limb angles must be finite")
    # two PRS planes fix (x, phi_z); with their two constraint rows, G^T is square
    # only for four actuation rows
    prs = sum(limb.kind == "PRS" for limb in limbs)
    if len(limbs) != 4 or prs != 2:
        raise ConfigError(f"the pipeline supports four limbs, two of them PRS; got "
                          f"{len(limbs)} limbs, {prs} PRS")
    if collinear(_ring(1.0, [s.angle_deg for s in limbs])):
        raise ConfigError("platform anchor points are collinear")
    if collinear(_ring(1.0, [s.base_deg for s in limbs])):
        raise ConfigError("base points are collinear")


def _ring(r: float, angles_deg) -> np.ndarray:
    """Read-only (n, 3) points at radius r and the given angles in the z = 0 plane."""
    pts = np.array([[r * math.cos(math.radians(d)), r * math.sin(math.radians(d)), 0.0]
                    for d in angles_deg])
    pts.flags.writeable = False
    return pts


def collinear(points: np.ndarray) -> bool:
    """True when the points (n, 3) span less than a plane (rank tolerance LAYOUT_TOL relative)."""
    d = points - points[0]
    scale = np.linalg.norm(d, axis=1).max()  # 0 for coincident points, which are refused
    return bool((np.linalg.svd(d, compute_uv=False) > LAYOUT_TOL * scale).sum() < 2)


def load_config(path: str | Path) -> ManipulatorConfig:
    """Load a manipulator description from the documented JSON schema."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    # undecodable bytes or text raise a ValueError, nesting past the decoder's stack RecursionError
    except (OSError, ValueError, RecursionError) as exc:
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


def _phi_z(cfg: ManipulatorConfig, psi: np.ndarray, status: Status) -> np.ndarray:
    """phi_z (N,) at N poses from the two PRS plane equations in closed form.

    ``cfg._prs_planes`` reduces them to sin(delta - phi_z) = k / cos psi with
    k = dA / rho.  Its two solutions mirror about delta -/+ pi/2, and delta lies in
    [-pi/2, pi/2], so 0 and delta - arcsin(k / cos psi) lie on one side: that is
    the branch nearest 0, and it takes no difference of near-equal angles.  A
    pose with |k / cos psi| > 1 lies past the planes' psi limit acos |k| and is
    refused in ``status`` as Unreachable.
    """
    dA, rho, delta, _ = cfg._prs_planes
    k = dA / rho
    s = k / np.cos(psi)
    past = ~(np.abs(s) <= 1.0)
    if np.count_nonzero(past):
        limit = math.degrees(math.acos(abs(k)))
        status.refuse(past, Unreachable,
                      lambda i: f"psi = {math.degrees(psi[i]):.2f} deg outside the "
                                f"+/-{limit:.2f} deg limit of the PRS rail planes")
        s[past] = 0.0
    return delta - np.arcsin(s)


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

    (x, phi_z) come from the PRS plane equations in closed form (``_phi_z``),
    the joints from the closed-form prismatic IK, elbow-down (C below B).
    ``status`` refuses as Unreachable a non-finite pose, one outside the
    ``envelope_deg`` envelope (by default the config's), one past the psi limit
    of the PRS rail planes, and one out of a limb's reach.  A row takes the same
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
    phi = _phi_z(cfg, ps, status)
    if len(status.refusals) == n:
        return _all_refused(cfg, coords, status)

    Rx, Ry, Rz = _rotations(np.array((th, ps, phi)))
    R = Rx @ Ry @ Rz
    # one matrix-vector product per anchor, which rounds as ``rotation @ P[i]``
    RP = (R[:, None] @ cfg.platform_points()[:, :, None])[..., 0]
    # x puts the first PRS anchor in its plane: x + (R P_1)_x = A_1x
    x = cfg._prs_planes[3] - RP[:, cfg.prs_indices()[0], 0]
    origin = np.empty((n, 3))
    origin[:, 0], origin[:, 1], origin[:, 2] = x, y, z
    B = origin[:, None, :] + RP
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

    Raises the Unreachable that ``resolve_many`` records.
    The returned stack carries its IK, so callers never run IK on it again.
    """
    pose = resolve_many(cfg, [(y, z, theta, psi)], envelope_deg)
    pose.status.check()
    return pose


def tsai_mobility(mobility: MobilityInputs) -> int:
    """Degrees of freedom by the mobility count lambda*(n - j - 1) + sum(f_i)."""
    return mobility.lam * (mobility.n - mobility.j - 1) + mobility.f_sum
