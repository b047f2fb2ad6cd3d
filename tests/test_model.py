import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dhjac.errors import ConfigError, KinematicsError, Unreachable
from dhjac.dhj import condition_numbers_at
from dhjac.model import (MAX_LENGTH, MIN_LENGTH, RAIL_ROUNDING, X_HAT, Z_HAT, LimbSpec,
                         ManipulatorConfig, MobilityInputs, config_from_dict, limb_axes,
                         load_config, resolve_many, resolve_pose, tsai_mobility)

from conftest import REFERENCE_CONFIG, offset_prs_config, random_coords, row, square_config
from scalar_reference import scalar_resolve

EPS = np.finfo(float).eps


def test_home_pose_dependents_vanish(reference):
    # the rails lie in the anchor planes up to the rounding of cos 90 deg (about 6e-17 of
    # each radius), so x and phi_z vanish to that rounding
    pose = row(resolve_pose(reference, 0.0, 150.0, 0.0, 0.0))
    assert abs(pose.x) <= 4 * EPS * reference.base_radius
    assert abs(pose.phi_z) <= 4 * EPS


def test_resolved_pose_satisfies_plane_constraints(reference):
    # substitute the resolved pose back into the PRS plane residuals
    pose = row(resolve_pose(reference, 0.0, 150.0, math.radians(10.0), 0.0))
    P = reference.platform_points()
    A = reference.base_points()
    for i in reference.prs_indices():
        B = pose.origin + pose.rotation @ P[i]
        assert abs(B[0] - A[i][0]) < 1e-10


@pytest.mark.parametrize("theta,psi", [(10.0, -35.0), (-49.0, 49.0), (0.0, 25.0)])
def test_rotation_orthonormal(reference, theta, psi):
    pose = row(resolve_pose(reference, 0.0, 150.0, math.radians(theta), math.radians(psi)))
    R = pose.rotation
    assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_outside_envelope_rejected(reference):
    for coords in ((0.0, 150.0, math.radians(60.0), math.radians(60.0)),
                   (0.0, 150.0, math.nan, 0.0), (math.nan, 150.0, 0.2, 0.0),
                   (0.0, math.inf, 0.2, 0.0)):
        with pytest.raises(Unreachable):
            resolve_pose(reference, *coords)


def test_envelope_override_allows_wider_tilt(reference):
    pose = row(resolve_pose(reference, 0.0, 150.0, math.radians(55.0), 0.0,
                            envelope_deg=60.0))
    assert pose.coords[1] == 150.0


def test_offset_rails_parasitic_twist_closed_form():
    # PRS rails off the anchor planes force sin(phi_z) = -A_2x / (r_a cos(psi))
    cfg = offset_prs_config()
    a2x = cfg.base_points()[1][0]
    for psi_deg in (0.0, 20.0, -35.0):
        psi = math.radians(psi_deg)
        pose = row(resolve_pose(cfg, 0.0, 150.0, 0.0, psi))
        assert pose.x == pytest.approx(0.0, abs=1e-9)
        assert math.sin(pose.phi_z) == pytest.approx(-a2x / (200.0 * math.cos(psi)),
                                                     rel=1e-10)
        P = cfg.platform_points()
        A = cfg.base_points()
        for i in cfg.prs_indices():
            B = pose.origin + pose.rotation @ P[i]
            assert abs(B[0] - A[i][0]) < 1e-10


def test_unsatisfiable_dependent_solve_raises():
    # beyond cos(psi) = A_2x / r_a the required parasitic twist has |sin| > 1: the pose lies
    # past the psi limit acos(156.28 / 400) = 67.0 deg of the PRS rail planes
    cfg = offset_prs_config()
    message = "psi = 70.00 deg outside the +/-67.00 deg limit of the PRS rail planes"
    with pytest.raises(Unreachable, match=re.escape(message)):
        resolve_pose(cfg, 0.0, 150.0, 0.0, math.radians(70.0), envelope_deg=75.0)
    for psi in (66.9, -66.9):
        resolve_pose(cfg, 0.0, 150.0, 0.0, math.radians(psi), envelope_deg=75.0)


def test_square_home_joint_values_equal_closed_form():
    # same-angle layout: every limb sees the same lateral offset r_b - r_a
    cfg = square_config()
    pose = row(resolve_pose(cfg, 0.0, 150.0, 0.0, 0.0))
    expected = 150.0 - math.sqrt(687.0**2 - 250.0**2)
    assert pose.q.tolist() == pytest.approx([expected] * 4, rel=1e-12)


def test_reference_home_joint_values_closed_form(reference):
    q = row(resolve_pose(reference, 0.0, 150.0, 0.0, 0.0)).q
    P = reference.platform_points()
    A = reference.base_points()
    for i in range(4):
        d = math.hypot(P[i][0] - A[i][0], P[i][1] - A[i][1])
        assert q[i] == pytest.approx(150.0 - math.sqrt(687.0**2 - d * d), rel=1e-12)
    # mirror symmetry pairs the PUS limbs and the PRS limbs
    assert q[0] == pytest.approx(q[2], rel=1e-12)
    assert q[1] == pytest.approx(q[3], rel=1e-12)


def test_link_length_preserved_everywhere(reference):
    for coords in random_coords(reference, 25, seed=3):
        pose = row(resolve_pose(reference, *coords))
        C = reference.base_points() + pose.q[:, None] * Z_HAT  # U/R joint centers
        for B, C_i, link in zip(pose.B, C, pose.link):
            assert np.linalg.norm(link) == pytest.approx(687.0, rel=1e-9)
            assert np.allclose(B - C_i, link)
            assert C_i[2] <= B[2]  # elbow-down branch


def test_limb_axes_unit_and_orthogonal(reference):
    # s1 = z_hat (rail), s2 = x_hat (R / slider-fixed U axis), s3 and n from the link
    pose = row(resolve_pose(reference, 0.0, 150.0, math.radians(20.0), math.radians(-30.0)))
    for s3, n in zip(*limb_axes(pose.link, reference.link_length)):
        for axis in (Z_HAT, X_HAT, s3):
            assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)
        assert abs(X_HAT @ s3) < 1e-12
        assert np.allclose(n, np.cross(s3, X_HAT))


@pytest.mark.parametrize("layout", ["reference", "square", "offset"])
def test_closed_form_axes_match_cross_products(reference, layout):
    # s3 = (0, -l_z, l_y) / |.| and n = (0, s3_z, -s3_y) are x_hat x link and s3 x s2
    cfg = {"reference": reference, "square": square_config(),
           "offset": offset_prs_config()}[layout]
    for coords in random_coords(cfg, 20, seed=17):
        link = row(resolve_pose(cfg, *coords)).link
        for link_i, s3, n in zip(link, *limb_axes(link, cfg.link_length)):
            cross = np.cross(X_HAT, link_i)
            np.testing.assert_array_equal(s3, cross / np.linalg.norm(cross))
            np.testing.assert_array_equal(n, np.cross(s3, X_HAT))


def test_link_parallel_to_x_takes_the_fallback_axis():
    # limb 1's link laid flat along -x: l_y = l_z = 0 exactly
    pose = row(resolve_pose(square_config(), 0.0, 150.0, 0.0, 0.0))
    link = pose.link.copy()
    link[0] = [-687.0, 0.0, 0.0]
    s3, n = limb_axes(link, 687.0)
    assert np.linalg.norm(np.cross(X_HAT, link[0])) == 0.0
    np.testing.assert_array_equal(s3[0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(n[0], np.cross(s3[0], X_HAT))


def test_anchors_cached_read_only_and_fresh_per_instance(reference):
    P, A = reference.platform_points(), reference.base_points()
    assert P.shape == A.shape == (4, 3)
    assert reference.platform_points() is P and reference.base_points() is A
    for pts in (P, A):
        with pytest.raises(ValueError):
            pts[0, 0] = 1.0
    for derived, s in ((reference.scaled(2.0), 2.0), (reference.in_unit("m"), 0.001),
                       (dataclasses.replace(reference, link_length=700.0), 1.0)):
        assert derived.platform_points() is not P and derived.base_points() is not A
        np.testing.assert_allclose(derived.platform_points(), P * s, rtol=1e-15, atol=0)
        np.testing.assert_allclose(derived.base_points(), A * s, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(reference.scaled(2.0).platform_points(), 2.0 * P)
    moved = dataclasses.replace(reference, moving_plate_radius=100.0)
    np.testing.assert_allclose(moved.platform_points(), P / 2.0, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(moved.base_points(), A)


@pytest.mark.parametrize("theta_deg", [-50.0, 0.0, 50.0])
@pytest.mark.parametrize("psi_deg", [-50.0, 50.0])
def test_newton_solution_satisfies_plane_constraints_offset(theta_deg, psi_deg):
    # off-plane PRS rails (phi_z != 0): the residuals recomputed from the assembled rotation
    # stay at rounding level
    cfg = offset_prs_config()
    pose = row(resolve_pose(cfg, 0.0, 150.0, math.radians(theta_deg), math.radians(psi_deg)))
    assert pose.phi_z != 0.0
    P, A = cfg.platform_points(), cfg.base_points()
    for i in cfg.prs_indices():
        B = pose.origin + pose.rotation @ P[i]
        assert abs(B[0] - A[i, 0]) <= 16 * EPS * cfg.base_radius


LAYOUTS = {
    "reference": lambda: load_config(REFERENCE_CONFIG),
    "square": square_config,
    "offset": offset_prs_config,  # phi_z != 0 here, and past 67 deg psi no phi_z exists
    "square_short_link": lambda: square_config(link_length=300.0),  # partly unreachable
}


def _resolve_rows(cfg):
    """Poses inside, on and past the envelope, off the z band, and non-finite."""
    rows = np.array(random_coords(cfg, 300, seed=61, envelope_frac=1.1))
    rows[::5, 0] = np.linspace(-300.0, 300.0, len(rows[::5]))
    edge = math.radians(cfg.envelope_deg)
    rows[:4, 2:] = [[edge, -edge], [-edge, edge], [edge + 1e-9, 0.0], [0.0, -edge - 1e-9]]
    for k in range(4):
        rows[4 + k, k] = math.nan
        rows[8 + k, k] = -math.inf if k % 2 else math.inf
    return rows


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("envelope_deg", [None, 45.0, 70.0])
def test_resolve_many_equals_resolve_pose(layout, envelope_deg):
    # resolve_pose returns the pose as a stack of one, equal to its row of a stack bit for
    # bit, and raises the refusal the stack records there, also on the offset layout where
    # phi_z != 0 and the widest envelope passes the psi limit of the PRS rail planes
    cfg = LAYOUTS[layout]()
    rows = _resolve_rows(cfg)
    poses = resolve_many(cfg, rows, envelope_deg=envelope_deg)
    assert poses.rotation.shape == (len(rows), 3, 3) and poses.B.shape == (len(rows), 4, 3)
    ok = poses.status.ok
    for i, coords in enumerate(rows):
        try:
            pose = resolve_pose(cfg, *coords, envelope_deg=envelope_deg)
        except KinematicsError as exc:
            assert not ok[i]
            refused = poses.status.error(i)
            assert (type(refused), str(refused)) == (type(exc), str(exc))
            for v in (poses.rotation, poses.origin, poses.B, poses.q, poses.a, poses.link):
                assert np.isnan(v[i]).all()
            continue
        assert ok[i] and pose.status.size == 1 and pose.status.refusals == {}
        for name in ("coords", *POSE_ARRAYS):
            alone, stacked = getattr(pose, name), getattr(poses, name)[i:i + 1]
            assert (alone.shape, alone.tobytes()) == (stacked.shape, stacked.tobytes()), name
        assert (poses.x[i], poses.phi_z[i]) == (pose.x[0], pose.phi_z[0])
    assert ok.any() and not ok.all()


def test_resolve_many_empty_and_plane_limit():
    cfg = offset_prs_config()
    poses = resolve_many(cfg, np.zeros((0, 4)))
    assert poses.rotation.shape == (0, 3, 3) and poses.q.shape == (0, 4)
    assert poses.status.codes() == []
    # the unsatisfiable plane constraint of test_unsatisfiable_dependent_solve_raises, in a
    # stack and alone, where the stack stops at it
    rows = [(0.0, 150.0, 0.0, math.radians(70.0)), (0.0, 150.0, 0.0, 0.1)]
    mixed = resolve_many(cfg, rows, envelope_deg=75.0)
    alone = resolve_many(cfg, rows[:1], envelope_deg=75.0)
    assert mixed.status.codes() == ["unreachable", "ok"]
    assert _refusal(alone.status, 0) == _refusal(mixed.status, 0)
    for name in POSE_ARRAYS:
        assert np.isnan(getattr(alone, name)).all() and np.isnan(getattr(mixed, name)[0]).all()


def test_coincident_prs_anchors_refused_at_load():
    # two PRS limbs at one angle put both anchors in one place: rho = 0, so no phi_z moves
    # them into rails whose planes coincide, and no pose can resolve
    limbs = (LimbSpec(0.0, "PUS"), LimbSpec(90.0, "PRS"), LimbSpec(180.0, "PUS"),
             LimbSpec(90.0, "PRS"))
    with pytest.raises(ConfigError, match=re.escape(
            "the PRS rail planes lie 0 mm apart, not closer than the 0 mm between their "
            "platform anchors")):
        ManipulatorConfig(moving_plate_radius=200.0, base_radius=450.0, link_length=687.0,
                          limbs=limbs)


def near_prs_layout(degrees):
    """PRS limbs at 0 deg and ``degrees``, PUS limbs at 90 and 270 deg, rails under the
    anchors: the PRS anchors lie 2 r_a sin(degrees / 2) apart and their rail planes agree."""
    return (LimbSpec(0.0, "PRS"), LimbSpec(degrees, "PRS"), LimbSpec(90.0, "PUS"),
            LimbSpec(270.0, "PUS"))


@pytest.mark.parametrize("degrees, rho", [(1e-9, "3.49066e-09"), (1.2e-38, "4.18879e-38")])
def test_near_coincident_prs_anchors_refused_at_load(degrees, rho):
    # anchors within 1e-9 r_a of each other loaded, and the chain then refused every cell
    # of a +/-50 deg grid as singular_configuration.  The rule reads rho / r_a, so a copy in
    # meters is refused too
    for r_a, unit, scale in ((200.0, "mm", 1.0), (0.2, "m", 1e-3)):
        with pytest.raises(ConfigError, match=re.escape(
                f"the PRS platform anchors lie {float(rho) * scale:.6g} {unit} apart, within "
                f"1e-09 of r_a = {r_a:g} {unit}: their rail planes cannot fix the twist phi_z")):
            ManipulatorConfig(moving_plate_radius=r_a, base_radius=450.0 * scale,
                              link_length=687.0 * scale, limbs=near_prs_layout(degrees),
                              unit=unit)


def test_prs_anchors_1e6_deg_apart_load_and_refuse_pose_by_pose():
    # 1e-6 deg puts the PRS anchors 1.7e-8 r_a apart, past the load rule: the layout loads,
    # in meters too, and its poses are refused one by one.  Recorded, not a verdict on the
    # rule: the selection pairs see the anchors' x-coordinates coincide at most poses
    cfg = ManipulatorConfig(moving_plate_radius=200.0, base_radius=450.0, link_length=687.0,
                            limbs=near_prs_layout(1e-6))
    assert cfg._prs_planes[1] / cfg.moving_plate_radius == pytest.approx(1.745e-8, rel=1e-3)
    assert cfg.in_unit("m")._prs_planes[1] == pytest.approx(cfg._prs_planes[1] * 1e-3)
    axis = np.radians(np.linspace(-50.0, 50.0, 11))
    theta, psi = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    codes = condition_numbers_at(cfg, 0.0, 150.0, theta, psi)[0]
    assert {c: codes.count(c) for c in set(codes)} == {
        "degenerate_pair": 107, "singular_configuration": 14}


def test_prs_planes_farther_apart_than_their_anchors_refused_at_load():
    # the offset layout's PRS rails turned 30 deg further off the anchor planes: their planes
    # lie 2 * 450 cos 50 deg = 578.5 mm apart, past the 400 mm between the anchors
    limbs = tuple(dataclasses.replace(s, base_angle_deg=s.base_deg - 30.0) if s.kind == "PRS"
                  else s for s in offset_prs_config().limbs)
    with pytest.raises(ConfigError, match=re.escape(
            "the PRS rail planes lie 578.509 mm apart, not closer than the 400 mm between "
            "their platform anchors")):
        dataclasses.replace(offset_prs_config(), limbs=limbs)
    assert "578.509 mm" in plane_refusal(200.0, 450.0, limbs)


@pytest.mark.parametrize("r_a", [MIN_LENGTH, 1e-13, 1e-10, 1e-6, 200.0])
def test_rails_in_the_anchor_planes_up_to_rounding_leave_no_twist(r_a):
    # the reference rails at 90 and 270 deg lie in the anchor planes, and the rounding of
    # cos 90 deg puts their feet 1.1e-13 mm apart, inside RAIL_ROUNDING: a plate of any
    # admitted radius loads and resolves with x and phi_z at rounding level.  Read as a gap,
    # k = dA / rho refused r_a = 1e-150 mm at load and twisted r_a = 1e-13 mm by 0.58 rad
    good = json.loads(REFERENCE_CONFIG.read_text())
    cfg = config_from_dict({**good, "r_a": r_a})
    gap = abs(np.subtract(*cfg.base_points()[cfg.prs_indices(), 0]))
    assert 0.0 < gap <= RAIL_ROUNDING * cfg.base_radius
    pose = resolve_many(cfg, [(0.0, 150.0, 0.0, 0.0), (10.0, 150.0, 0.5, 0.7)])
    assert pose.status.codes() == ["ok", "ok"]
    assert (np.abs(pose.phi_z) <= 4 * EPS).all()
    assert (np.abs(pose.x) <= 4 * EPS * cfg.base_radius).all()


def test_rail_gap_past_the_rounding_counts():
    # rail 4 turned 1e-9 deg off its anchor plane: a gap of 7.9e-9 mm, far past the
    # rounding of the rail feet (3.2e-12 mm here), twists the plate by asin(gap / 400 mm)
    # and refuses a plate whose PRS anchors lie closer together than that
    limbs = tuple(dataclasses.replace(s, base_angle_deg=270.0 + 1e-9) if s.angle_deg == 270.0
                  else s for s in load_config(REFERENCE_CONFIG).limbs)
    cfg = dataclasses.replace(load_config(REFERENCE_CONFIG), limbs=limbs)
    a2x, a4x = cfg.base_points()[cfg.prs_indices(), 0]
    gap = a4x - a2x  # 450 sin(1e-9 deg) up to the rounding of 270 + 1e-9
    assert gap == pytest.approx(7.854e-9, rel=1e-4)
    phi = row(resolve_pose(cfg, 0.0, 150.0, 0.0, 0.0)).phi_z
    assert phi == pytest.approx(math.asin(gap / 400.0), rel=1e-9)
    with pytest.raises(ConfigError, match=re.escape(
            f"the PRS rail planes lie {gap:.6g} mm apart, not closer than the 2e-09 mm")):
        dataclasses.replace(cfg, moving_plate_radius=1e-9)


def test_rail_gap_written_many_turns_out_counts():
    # rail 4 turned 30 deg off its anchor plane and written 1e15 turns further on: its foot
    # rounds far past the band, and the 326 mm gap is geometry.  A band that grew with the
    # base angle took that gap for rounding and left anchor 4 off its plane by the full gap
    ref = load_config(REFERENCE_CONFIG)
    limbs = tuple(dataclasses.replace(s, base_angle_deg=300.0 + 360.0 * 1e15)
                  if s.angle_deg == 270.0 else s for s in ref.limbs)
    cfg = dataclasses.replace(ref, limbs=limbs)
    P, A = cfg.platform_points(), cfg.base_points()
    assert abs(A[1, 0] - A[3, 0]) > 300.0
    pose = row(resolve_pose(cfg, 0.0, 150.0, 0.0, 0.3))
    for i in cfg.prs_indices():
        B = pose.origin + pose.rotation @ P[i]
        assert abs(B[0] - A[i, 0]) <= 16 * EPS * cfg.base_radius


#: the layouts of the ROADMAP measurements: r_a 50-400, r_b 100-800 mm, four anchors at
#: uniform angles, two PRS limbs among them, base angles within 50 deg of the anchors
@st.composite
def random_layouts(draw):
    """A layout the loader admits, on a +/-89 deg envelope, whose link (4 (r_a + r_b)) reaches
    every pose of the drawn (y, z): the plane constraint alone refuses a pose."""
    r_a, r_b = draw(st.floats(50.0, 400.0)), draw(st.floats(100.0, 800.0))
    prs = draw(st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    limbs = tuple(LimbSpec(a, "PRS" if i in prs else "PUS", a + draw(st.floats(-50.0, 50.0)))
                  for i, a in enumerate(draw(st.lists(st.floats(0.0, 360.0), min_size=4,
                                                      max_size=4))))
    try:
        return ManipulatorConfig(moving_plate_radius=r_a, base_radius=r_b,
                                 link_length=4 * (r_a + r_b), limbs=limbs, envelope_deg=89.0)
    except ConfigError:
        assume(False)


PLANE_POSES = st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(100.0, 200.0),
                                 st.floats(-1.55, 1.55), st.floats(-1.55, 1.55)),
                       min_size=1, max_size=12)


@given(cfg=random_layouts(), poses=PLANE_POSES)
@settings(max_examples=40, deadline=None)
def test_closed_form_solves_where_the_newton_does(cfg, poses):
    # a pose the closed form solves satisfies both plane equations to rounding level, 1e-12
    # r_b at most, and one it refuses has none: cos psi |P_1 - P_2| < |A_1x - A_2x|, up to
    # the rounding of k / cos psi
    P, A = cfg.platform_points(), cfg.base_points()
    (p1, p2), (a1, a2) = P[cfg.prs_indices(), :2], A[cfg.prs_indices(), 0]
    dA, rho, delta, _ = cfg._prs_planes
    tol = 1e-12 * cfg.base_radius
    resolved = resolve_many(cfg, poses)
    for i, coords in enumerate(poses):
        ok, phi, cp = resolved.status.ok[i], resolved.phi_z[i], math.cos(coords[3])
        if ok:
            for k in cfg.prs_indices():
                B = resolved.origin[i] + resolved.rotation[i] @ P[k]
                assert abs(B[0] - A[k, 0]) <= tol
        else:
            assert abs(cp) * math.hypot(*(p1 - p2)) < abs(a1 - a2) * (1 + 4 * EPS)
        # the independent damped Newton of scalar_reference solves no pose the closed form
        # refuses.  It may fail where the closed form solves: from its start at phi_z = 0 it
        # stalls where the PRS anchors lie on the x axis (both slopes vanish there)
        try:
            R, origin = scalar_resolve(cfg, *coords)
        except Unreachable:
            continue
        assert ok
        # it stops once both residuals are below tol, so it fixes sin(delta - phi_z) =
        # k / cos psi only to eps = 2 tol / (rho |cos psi|): its phi_z lies within the arcsin
        # of that interval, and its x within tol + r_a |d phi_z|, or, where its path crossed
        # to the other solution 2 delta - pi - phi_z (PRS anchors nearly opposite on the x
        # axis), it lies there, and no nearer to 0
        s, eps = dA / rho / cp, 2 * tol / (rho * abs(cp))
        d_phi = max(abs(math.asin(min(max(s + e, -1.0), 1.0)) - math.asin(s))
                    for e in (-eps, eps)) + 1e-13
        # row 0 of R is (cos psi cos phi_z, -cos psi sin phi_z, sin psi)
        phi_newton = math.atan2(-R[0, 1], R[0, 0])
        if abs(math.remainder(phi_newton - phi, 2 * math.pi)) <= d_phi:
            assert abs(origin[0] - resolved.x[i]) <= tol + cfg.moving_plate_radius * d_phi
        else:
            mirror = 2 * delta - math.pi - phi
            assert abs(math.remainder(phi_newton - mirror, 2 * math.pi)) <= d_phi
            assert abs(phi) <= abs(phi_newton) + d_phi


@given(cfg=random_layouts(), poses=PLANE_POSES, k=st.integers(-60, 60))
@settings(max_examples=40, deadline=None)
def test_power_of_two_scale_reproduces_the_dependent_coordinates(cfg, poses, k):
    # each length of a config scaled by 2^k rounds as its scaled self, atan2 and the ratio
    # k = dA / rho do not see the scale, so x scales and phi_z stays bit for bit
    s = 2.0 ** k
    pose = resolve_many(cfg, poses)
    scaled = resolve_many(cfg.scaled(s), [(y * s, z * s, th, ps) for y, z, th, ps in poses])
    assert scaled.status.codes() == pose.status.codes()
    np.testing.assert_array_equal(scaled.phi_z, pose.phi_z)
    np.testing.assert_array_equal(scaled.x, pose.x * s)


#: one pose refused by each stage that can refuse a pose alone before the IK ends
REFUSED_ALONE = {
    "reach": (500.0, 150.0, 0.0, 0.0),
    "envelope": (0.0, 150.0, math.radians(60.0), 0.0),
    "non_finite": (0.0, math.nan, 0.0, 0.0),
}
POSE_ARRAYS = ("x", "phi_z", "rotation", "origin", "B", "q", "a", "link")


def _refusal(status, i):
    r = status.refusals[i]
    return r.error, r.message(), r.limb, repr(r.value)


@pytest.mark.parametrize("case", sorted(REFUSED_ALONE))
def test_fully_refused_stack_is_all_nan(reference, case):
    # a stack whose every pose is refused stops at the refusal: each pose keeps the code,
    # message, limb and value it gets next to an ok pose, and every array is NaN
    pose = REFUSED_ALONE[case]
    alone = resolve_many(reference, [pose])
    mixed = resolve_many(reference, [(0.0, 150.0, 0.1, 0.05), pose])
    assert alone.status.codes() == ["unreachable"] and mixed.status.codes() == ["ok", "unreachable"]
    assert _refusal(alone.status, 0) == _refusal(mixed.status, 1)
    for name in POSE_ARRAYS:
        value = getattr(alone, name)
        assert value.shape == getattr(mixed, name)[1:].shape and np.isnan(value).all()
    assert np.array_equal(alone.coords, [pose], equal_nan=True)
    with pytest.raises(Unreachable, match=re.escape(_refusal(mixed.status, 1)[1])):
        resolve_pose(reference, *pose)


def test_fully_refused_grid_keeps_each_refusal(reference):
    # the 100 mm link reaches no pose of the grid: the stack stops after the reach test,
    # every array is NaN, and each pose keeps the refusal it gets alone, at the limb and
    # lateral offset that the independent scalar chain finds
    cfg = dataclasses.replace(reference, link_length=100.0)
    th, ps = np.meshgrid(np.radians(np.linspace(-50.0, 50.0, 5)), np.radians([-50.0, 0.0, 50.0]))
    rows = np.column_stack([np.zeros(th.size), np.full(th.size, 150.0), th.ravel(), ps.ravel()])
    grid = resolve_many(cfg, rows)
    assert grid.status.codes() == ["unreachable"] * len(rows)
    for name in POSE_ARRAYS:
        assert np.isnan(getattr(grid, name)).all()
    A, P = cfg.base_points(), cfg.platform_points()
    for i, row in enumerate(rows):
        assert _refusal(grid.status, i) == _refusal(resolve_many(cfg, [row]).status, 0)
        R, origin = scalar_resolve(cfg, *row)
        offset = [math.hypot(*(origin + R @ P[k] - A[k])[:2]) for k in range(4)]
        limb = next(k for k in range(4) if offset[k] > cfg.link_length)
        error, _, k, value = _refusal(grid.status, i)
        assert (error, k) == (Unreachable, limb + 1)
        assert float(value) == pytest.approx(offset[limb], rel=1e-12)


def test_short_link_unreachable():
    cfg = square_config(link_length=100.0)  # lateral offset alone is 250
    with pytest.raises(Unreachable):
        resolve_pose(cfg, 0.0, 150.0, 0.0, 0.0)


def test_discriminant_rounded_below_zero_counts_as_zero(reference):
    # limb 1 at exactly full reach: its IK discriminant rounds to -5.8e-11, inside the
    # IK_CLAMP band, so the link lies flat (q = B_z); a millimetre further it is out of reach
    edge, past = (-358.5576064502175, 150.0, 0.0, 0.0), (-359.5576064502175, 150.0, 0.0, 0.0)
    poses = resolve_many(reference, [edge, past, edge])
    assert poses.status.codes() == ["ok", "unreachable", "ok"]
    assert poses.q[0, 0] == poses.B[0, 0, 2] == 150.0
    assert row(resolve_pose(reference, *edge)).q.tobytes() == poses.q[2].tobytes()
    assert np.isnan(poses.q[1]).all()


def test_tsai_mobility_reference_counts(reference):
    assert tsai_mobility(reference.mobility) == 4


@pytest.mark.parametrize("counts,expected", [
    ((6, 10, 12, 22), 4),   # reference mechanism counts
    ((6, 2, 0, 0), 6),      # free rigid body
    ((6, 14, 18, 36), 6),   # Gough-Stewart style counts
])
def test_tsai_mobility_values(counts, expected):
    lam, n, j, f_sum = counts
    assert tsai_mobility(MobilityInputs(lam, n, j, f_sum)) == expected


def test_tsai_mobility_rejects_negative_counts():
    with pytest.raises(ConfigError):
        tsai_mobility(MobilityInputs(-6, 10, 12, 22))


def test_resolve_deterministic_and_idempotent(reference):
    a = row(resolve_pose(reference, 0.0, 150.0, 0.3, -0.4))
    b = row(resolve_pose(reference, *a.coords))
    assert (a.x, a.phi_z) == (b.x, b.phi_z)
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.origin, b.origin)


@given(k=st.integers(min_value=-8, max_value=8))
@settings(max_examples=17, deadline=None)
def test_scaling_homogeneity_power_of_two_exact(k):
    # power-of-two scales commute exactly with every float operation used
    cfg = square_config()
    s = 2.0 ** k
    scaled = cfg.scaled(s)
    pose = row(resolve_pose(cfg, 0.0, 150.0, 0.25, -0.35))
    pose_s = row(resolve_pose(scaled, 0.0, 150.0 * s, 0.25, -0.35))
    np.testing.assert_array_equal(pose_s.q, pose.q * s)
    for name in ("B", "a", "link"):
        np.testing.assert_array_equal(getattr(pose_s, name), getattr(pose, name) * s)
    C, C_s = (p.cfg.base_points() + p.q[:, None] * Z_HAT for p in (pose, pose_s))
    np.testing.assert_array_equal(C_s, C * s)


@given(s=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                   allow_infinity=False))
@settings(max_examples=25, deadline=None)
def test_scaling_homogeneity_general(s, reference):
    scaled = reference.scaled(s)
    pose = row(resolve_pose(reference, 0.0, 150.0, 0.2, 0.3))
    pose_s = row(resolve_pose(scaled, 0.0, 150.0 * s, 0.2, 0.3))
    np.testing.assert_allclose(pose_s.q, pose.q * s, rtol=1e-12, atol=0.0)
    # the x-parts of the PRS links vanish to the rounding of the plane residuals (1.3e-29 mm
    # for limb 4): they carry no relative digits, and are compared to the link length
    np.testing.assert_allclose(pose_s.link, pose.link * s, rtol=1e-12,
                               atol=1e-12 * scaled.link_length)


@given(k=st.integers(min_value=-140, max_value=140))
@settings(max_examples=40, deadline=None)
def test_reference_layout_loads_at_every_decade(k):
    # lengths from MIN_LENGTH to MAX_LENGTH load: tiny anchors are not read as collinear,
    # and the chain's squares stay in the normal range (a RuntimeWarning fails the suite)
    good = json.loads(REFERENCE_CONFIG.read_text())
    s = 10.0 ** k
    cfg = config_from_dict({**good, "r_a": good["r_a"] * s, "r_b": good["r_b"] * s,
                            "l": good["l"] * s})
    assert cfg.base_radius == good["r_b"] * s
    resolved = resolve_many(cfg, [(0.0, 150.0 * s, 0.2, 0.3)])
    assert resolved.status.codes() == ["ok"]
    np.testing.assert_allclose(resolved.q / s,
                               resolve_many(config_from_dict(good), [(0.0, 150.0, 0.2, 0.3)]).q,
                               rtol=1e-9)


def parent_ring(r, angles_deg):
    """The points at radius ``r`` and the angles, as ``model._ring`` places them."""
    return np.array([[r * math.cos(math.radians(d)), r * math.sin(math.radians(d)), 0.0]
                     for d in angles_deg])


def parent_rank_test(points):
    """The rank test of ``model.collinear``: its second singular value and its tolerance."""
    d = points - points[0]
    scale = np.linalg.norm(d, axis=1).max()
    return np.linalg.svd(d, compute_uv=False)[1], 1e-9 * scale


def parent_collinear(points):
    """``model.collinear``: fewer than 2 singular values above 1e-9 relative to the spread."""
    sigma, tol = parent_rank_test(points)
    return not sigma > tol


def parent_layout_refusal(r_a, r_b, limbs):
    """The collinearity refusal of a config, judged at its own radii as the loader once judged
    it on every config: the message, or None."""
    if parent_collinear(parent_ring(r_a, [s.angle_deg for s in limbs])):
        return "platform anchor points are collinear"
    if parent_collinear(parent_ring(r_b, [s.base_deg for s in limbs])):
        return "base points are collinear"
    return None


def plane_refusal(r_a, r_b, limbs, unit="mm"):
    """The refusal of a layout whose PRS rail planes lie at least as far apart as the two PRS
    anchors, where no (x, phi_z) keeps both anchors in their planes, or whose two PRS anchors
    lie within 1e-9 r_a of each other.  The message, or None."""
    prs = [i for i, s in enumerate(limbs) if s.kind == "PRS"]
    P = parent_ring(r_a, [limbs[i].angle_deg for i in prs])
    gap = abs(parent_ring(r_b, [limbs[i].base_deg for i in prs])[:, 0] @ [1.0, -1.0])
    if gap <= RAIL_ROUNDING * r_b:  # rounding of the rail feet: no gap
        gap = 0.0
    spacing = math.hypot(*(P[0, :2] - P[1, :2]))
    if not gap < spacing:
        return (f"the PRS rail planes lie {gap:.6g} {unit} apart, not closer than the "
                f"{spacing:.6g} {unit} between their platform anchors: no pose keeps both "
                f"anchors in their planes")
    if spacing <= 1e-9 * r_a:  # anchors that coincide up to the rank tolerance
        return (f"the PRS platform anchors lie {spacing:.6g} {unit} apart, within 1e-09 of "
                f"r_a = {r_a:.6g} {unit}: their rail planes cannot fix the twist phi_z")
    return None


#: a bound on the rounding of the rank test of a ring of anchors at any radius, scaled to the
#: unit ring: each coordinate rounds within eps r, and LAPACK's singular values carry an
#: absolute error of a few eps times the largest (a search over 26,000 layouts at radii
#: 1e-140 to 1e140 found every radius-dependent verdict within 0.82 eps of the tolerance)
ROUNDING = 64 * np.finfo(float).eps

#: offsets that put an angle next to another one: equal, an ulp or a few apart, near the
#: rank tolerance (1e-9 relative to the spread), or anywhere
NEAR = st.one_of(st.sampled_from([0.0, 5e-324, 1e-15, 1e-13, 1e-11, 1e-9, 5e-8, 1e-6]),
                 st.floats(min_value=-1e-6, max_value=1e-6), st.floats(-360.0, 360.0))


@st.composite
def ring_angles(draw):
    """Four angles in degrees around one to three centers, near-coincident ones included."""
    centers = draw(st.lists(st.one_of(st.sampled_from([0.0, 90.0, 180.0, -90.0, 45.0]),
                                      st.floats(-360.0, 360.0)), min_size=1, max_size=3))
    angles = []
    for _ in range(4):
        sign = draw(st.sampled_from([1.0, -1.0]))
        angles.append(draw(st.sampled_from(centers)) + sign * draw(NEAR))
    return angles


@given(platform=ring_angles(), base=st.one_of(st.none(), ring_angles()),
       prs=st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
       decades=st.lists(st.tuples(st.integers(-140, 140), st.integers(-140, 140)),
                        min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_layout_check_refuses_what_each_radius_refused(platform, base, prs, decades):
    # the layout is judged once, on unit rings; at every radius from 1e-140 to 1e140 that
    # refuses exactly what the rule at the config's own radii refused, with its message,
    # wherever the rule's verdict does not rest on rounding.  Where the unit ring's second
    # singular value lies within ROUNDING of its tolerance (four anchors within about 1e-6
    # of the radius, whose rank the rule reads from rounding, or two clusters at the
    # tolerance), the rule at the config's radii gave different verdicts at different
    # radii, and the config now takes the unit ring's.  A layout that passes is then judged
    # on its PRS rail planes at its own radii
    limbs = tuple(LimbSpec(a, "PRS" if i in prs else "PUS", None if base is None else base[i])
                  for i, a in enumerate(platform))
    rings = ([s.angle_deg for s in limbs], [s.base_deg for s in limbs])
    rounding = any(abs(sigma - tol) <= ROUNDING for sigma, tol in (
        parent_rank_test(parent_ring(1.0, angles)) for angles in rings))
    for k_a, k_b in decades:
        r_a, r_b = 10.0 ** k_a, 10.0 ** k_b
        want = (parent_layout_refusal(*((1.0, 1.0) if rounding else (r_a, r_b)), limbs)
                or plane_refusal(r_a, r_b, limbs))
        try:
            ManipulatorConfig(moving_plate_radius=r_a, base_radius=r_b, link_length=r_b,
                              limbs=limbs)
            got = None
        except ConfigError as exc:
            got = str(exc)
        assert got == want


def test_load_reference_config(reference):
    assert reference.unit == "mm"
    assert reference.limb_count == 4
    assert reference.link_length == 687.0
    assert [s.kind for s in reference.limbs] == ["PUS", "PRS", "PUS", "PRS"]


def test_config_validation_errors(tmp_path):
    from conftest import REFERENCE_CONFIG
    good = json.loads(REFERENCE_CONFIG.read_text())
    four_pus = [dict(limb, kind="PUS") for limb in good["limbs"]]
    nan_angle = [dict(good["limbs"][0], angle_deg=math.nan)] + good["limbs"][1:]
    for patch in ({"r_a": -1.0, "limbs": []}, {"envelope_deg": math.nan},
                  {"l": math.inf}, {"envelope_deg": -10.0}, {"r_a": math.nan},
                  {"limbs": four_pus}, {"limbs": []}, {"limbs": nan_angle}):
        with pytest.raises(ConfigError):
            config_from_dict({**good, **patch})
    # the loader admits four limbs, two of them PRS, and non-negative mobility counts
    three = good["limbs"][1:]
    five = good["limbs"] + [dict(good["limbs"][0], angle_deg=45.0, base_angle_deg=45.0)]
    for patch, message in (
            ({"limbs": three}, "supports four limbs, two of them PRS; got 3 limbs, 2 PRS"),
            ({"limbs": five}, "supports four limbs, two of them PRS; got 5 limbs, 2 PRS"),
            ({"limbs": four_pus}, "supports four limbs, two of them PRS; got 4 limbs, 0 PRS"),
            ({"mobility": 5}, "mobility must be an object of counts, got 5"),
            ({"mobility": None}, "mobility must be an object of counts, got None"),
            ({"mobility": dict(good["mobility"], j=-12)}, "mobility counts must be nonnegative"),
            ({"mobility": {"lambda": -6}}, "mobility counts must be nonnegative"),
            ({"mobility": {"lambda": 6.9}}, "mobility count 'lambda' must be an integer, got 6.9"),
            ({"mobility": {"lambda": True}},
             "mobility count 'lambda' must be an integer, got True"),
            ({"mobility": dict(good["mobility"], f_sum="22")},
             "mobility count 'f_sum' must be an integer, got '22'"),
            ({"envelope_dg": 80}, "unknown key 'envelope_dg' in config"),
            ({"limbs": [dict(good["limbs"][0], knd="PUS")] + good["limbs"][1:]},
             "unknown key 'knd' in limb 1"),
            ({"mobility": dict(good["mobility"], lamda=6)}, "unknown key 'lamda' in mobility"),
            ({"actuator": "rotational"}, 'actuator must be "linear" (the chain writes '
                                         "prismatic actuation rows), got 'rotational'"),
            ({"actuator": "mixed"}, 'actuator must be "linear" (the chain writes '
                                    "prismatic actuation rows), got 'mixed'"),
            ({"actuator": 1}, 'actuator must be "linear" (the chain writes '
                              "prismatic actuation rows), got 1"),
            # lengths and angles are JSON numbers: a bool or a numeric string is refused
            ({"r_a": True}, "'r_a' must be a number, got True"),
            ({"r_a": "200"}, "'r_a' must be a number, got '200'"),
            ({"r_b": False}, "'r_b' must be a number, got False"),
            ({"l": "687"}, "'l' must be a number, got '687'"),
            ({"envelope_deg": True}, "'envelope_deg' must be a number, got True"),
            ({"limbs": [dict(good["limbs"][0], angle_deg="0")] + good["limbs"][1:]},
             "'angle_deg' of limb 1 must be a number, got '0'"),
            ({"limbs": good["limbs"][:3] + [dict(good["limbs"][3], base_angle_deg=True)]},
             "'base_angle_deg' of limb 4 must be a number, got True"),
            ({"r_b": 10 ** 400}, "malformed config: int too large to convert to float"),
            # a length whose squares overflow or leave the normal range in the chain is
            # refused at load, not as collinear points or an invalid value inside resolve_many
            *(({key: value}, f"radii and link length must be at least 1e-150 and at most "
                             f"1e+150, got r_a = {value if key == 'r_a' else 200.0!r}, "
                             f"r_b = {value if key == 'r_b' else 450.0!r}, "
                             f"l = {value if key == 'l' else 687.0!r}")
              for key in ("r_a", "r_b", "l")
              for value in (1e200, 1e308, 1e-160, 5e-324, 0.0, -1.0))):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict({**good, **patch})
    # the largest admitted lengths run the chain without an overflow (a RuntimeWarning,
    # which the suite turns into an error)
    s = MAX_LENGTH / good["l"]
    big = config_from_dict({**good, "r_a": good["r_a"] * s, "r_b": good["r_b"] * s,
                            "l": MAX_LENGTH})
    poses = [(0.0, 150.0, 0.0, 0.0), (0.0, 150.0, 0.3, -0.2)]
    resolved = resolve_many(big, [(y * s, z * s, th, ps) for y, z, th, ps in poses])
    assert resolved.status.codes() == ["ok", "ok"]
    np.testing.assert_allclose(resolved.q / s, resolve_many(config_from_dict(good), poses).q,
                               rtol=1e-9)
    # G^T mixes unit force rows with moment rows of a length: its condition number grows
    # with the length scale (about 5e149 here), and the chain refuses both poses for it
    codes, _, _ = condition_numbers_at(big, 0.0, 150.0 * s, [0.0, 0.3], [0.0, -0.2])
    assert codes == ["singular_configuration"] * 2
    # the shortest admitted length loads
    assert config_from_dict({**good, "r_a": MIN_LENGTH}).moving_plate_radius == MIN_LENGTH
    # an integral float is a count; the shipped config carries no key outside the schema
    assert config_from_dict({**good, "mobility": {"lambda": 6.0}}).mobility.lam == 6
    assert config_from_dict(good) == load_config(REFERENCE_CONFIG)
    # linear actuation, the only kind the chain computes, may be named or left out
    assert good["actuator"] == "linear"
    assert config_from_dict({k: v for k, v in good.items() if k != "actuator"}) == \
        config_from_dict(good)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError, match="platform anchor points are collinear"):
        ManipulatorConfig(
            moving_plate_radius=200.0, base_radius=450.0, link_length=687.0,
            limbs=(LimbSpec(0.0, "PUS"), LimbSpec(0.0, "PRS"), LimbSpec(180.0, "PUS"),
                   LimbSpec(180.0, "PRS")),
        )  # collinear anchors
    with pytest.raises(ConfigError, match="platform anchor points are collinear"):
        ManipulatorConfig(
            moving_plate_radius=200.0, base_radius=450.0, link_length=687.0,
            limbs=(LimbSpec(0.0, "PUS"), LimbSpec(0.0, "PRS"), LimbSpec(0.0, "PUS"),
                   LimbSpec(0.0, "PRS")),
        )  # coincident anchors: every singular value is exactly 0


def test_unit_round_trip(reference):
    metric = reference.in_unit("m")
    assert metric.unit == "m"
    assert metric.link_length == pytest.approx(0.687)
    back = metric.in_unit("mm")
    assert back.link_length == pytest.approx(687.0)
    with pytest.raises(ConfigError, match=re.escape("unknown unit 'km'")):
        reference.in_unit("km")


def test_config_json_schema_keys():
    from conftest import REFERENCE_CONFIG
    raw = json.loads(REFERENCE_CONFIG.read_text())
    assert {"r_a", "r_b", "l", "unit", "limbs", "actuator", "mobility"} <= raw.keys()
    assert {"lambda", "n", "j", "f_sum"} <= raw["mobility"].keys()
    for limb in raw["limbs"]:
        assert {"angle_deg", "kind"} <= limb.keys()
