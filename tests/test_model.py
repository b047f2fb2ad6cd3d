import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhjac.errors import ConfigError, KinematicsError, NoConvergence, Unreachable
from dhjac.dhj import condition_numbers_at
from dhjac.model import (MAX_LENGTH, MIN_LENGTH, RESOLVE_TOL, X_HAT, Z_HAT, LimbSpec,
                         ManipulatorConfig, MobilityInputs, _plane_residual, _start_residual,
                         config_from_dict, limb_axes, load_config, resolve_many, resolve_pose,
                         tsai_mobility)

from conftest import REFERENCE_CONFIG, offset_prs_config, random_coords, row, square_config
from scalar_reference import scalar_resolve


def test_home_pose_dependents_vanish(reference):
    pose = row(resolve_pose(reference, 0.0, 150.0, 0.0, 0.0))
    assert pose.x == 0.0
    assert pose.phi_z == 0.0


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
    # beyond cos(psi) = A_2x / r_a the required parasitic twist has |sin| > 1
    cfg = offset_prs_config()
    with pytest.raises(NoConvergence):
        resolve_pose(cfg, 0.0, 150.0, 0.0, math.radians(70.0), envelope_deg=75.0)


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
    # off-plane PRS rails: the Newton iterates (phi_z != 0); the residuals
    # recomputed from the assembled rotation stay below the solve tolerance
    cfg = offset_prs_config()
    pose = row(resolve_pose(cfg, 0.0, 150.0, math.radians(theta_deg), math.radians(psi_deg)))
    assert pose.phi_z != 0.0
    P, A = cfg.platform_points(), cfg.base_points()
    for i in cfg.prs_indices():
        B = pose.origin + pose.rotation @ P[i]
        assert abs(B[0] - A[i, 0]) < RESOLVE_TOL * cfg.base_radius


LAYOUTS = {
    "reference": lambda: load_config(REFERENCE_CONFIG),
    "square": square_config,
    "offset": offset_prs_config,  # the Newton iterates here (phi_z != 0)
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
    # the damped Newton iterates
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


def test_resolve_many_empty_and_no_convergence():
    cfg = offset_prs_config()
    poses = resolve_many(cfg, np.zeros((0, 4)))
    assert poses.rotation.shape == (0, 3, 3) and poses.q.shape == (0, 4)
    assert poses.status.codes() == []
    # the unsatisfiable dependent solve of test_unsatisfiable_dependent_solve_raises
    rows = [(0.0, 150.0, 0.0, math.radians(70.0)), (0.0, 150.0, 0.0, 0.1)]
    status = resolve_many(cfg, rows, envelope_deg=75.0).status
    assert status.codes() == ["no_convergence", "ok"]


@given(layout=st.sampled_from(["reference", "square", "offset"]),
       unit=st.sampled_from(["mm", "m"]),
       psi=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_closed_form_newton_start_is_the_general_residual(layout, unit, psi):
    # at (x, phi) = (0, 0) the closed form gives the residual, slope and norm of the general
    # form bit for bit, signed zeros included, across the envelope
    cfg = LAYOUTS[layout]().in_unit(unit)
    cp = np.cos(math.radians(cfg.envelope_deg) * np.array(psi))[:, None]
    zero = np.zeros(len(psi))
    start = _start_residual(cp, *cfg._prs_anchors)
    general = _plane_residual(cp, *cfg._prs_anchors, zero, zero)
    for closed, full in zip(start, general):
        assert closed.shape == full.shape and closed.tobytes() == full.tobytes()
    # the rails of the offset layout lie off the anchor planes: the solve iterates from
    # the start there, and stops at it on the other two
    assert (start[2] >= RESOLVE_TOL * cfg.base_radius).all() == (layout == "offset")


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
    np.testing.assert_allclose(pose_s.link, pose.link * s, rtol=1e-12)


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


def test_config_json_schema_keys():
    from conftest import REFERENCE_CONFIG
    raw = json.loads(REFERENCE_CONFIG.read_text())
    assert {"r_a", "r_b", "l", "unit", "limbs", "actuator", "mobility"} <= raw.keys()
    assert {"lambda", "n", "j", "f_sum"} <= raw["mobility"].keys()
    for limb in raw["limbs"]:
        assert {"angle_deg", "kind"} <= limb.keys()
