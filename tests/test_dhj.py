import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dhjac.dhj import (_chain, assemble_dhj, cond_from_sigmas, condition_numbers_at,
                       dexterity_at, singular_values, unit_scaling_experiment)
from dhjac.errors import KinematicsError, SingularSelection
from dhjac.forward_map import COND_LIMIT, invert_full
from dhjac.model import resolve_many, resolve_pose
from dhjac.screws import build_inverse_jacobian
from dhjac.selection import ALTERNATE_PLAN, OPPOSITE_PLAN, PRIMARY_PLAN

from conftest import checked, offset_prs_config, random_coords, square_config
from scalar_reference import scalar_condition_numbers


EPS = np.finfo(float).eps


def cond_of(M):
    """cond(M) of one matrix, as a stack of one through ``singular_values`` and
    ``cond_from_sigmas``."""
    return cond_from_sigmas(singular_values(M[None]))[0]


def test_assemble_identity_composition():
    V_ps = np.hstack([np.zeros((4, 1)), np.eye(4), np.zeros((4, 1))])
    J_a = np.vstack([np.zeros((1, 4)), np.eye(4), np.zeros((1, 4))])
    np.testing.assert_array_equal(assemble_dhj(V_ps[None], J_a[None])[0], np.eye(4))
    with pytest.raises(ValueError):
        assemble_dhj(np.zeros((1, 4, 5)), np.zeros((1, 6, 4)))


def test_condition_number_identity():
    assert cond_of(np.eye(4)) == pytest.approx(1.0)


def test_condition_number_diagonal_extremes():
    M = np.diag([2.0, 1.0, 1.0, 0.5])
    assert cond_of(M) == pytest.approx(4.0)


def test_condition_number_singular_is_infinite():
    M = np.eye(4)
    M[2, 2] = 0.0
    assert cond_of(M) == math.inf


@given(M=arrays(np.float64, (4, 4),
                elements=st.floats(min_value=-10, max_value=10, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_condition_number_matches_eigensolve(M):
    # independent oracle: eigenvalues of M^T M from the symmetric eigensolver;
    # compared at the Gram level where the eigensolve is fully accurate
    sv = singular_values(M[None])[0]
    ev = np.clip(np.linalg.eigvalsh(M.T @ M)[::-1], 0.0, None)
    scale = max(ev[0], 1e-12)
    np.testing.assert_allclose(sv ** 2, ev, atol=1e-10 * scale)
    ref = np.sqrt(ev)
    # the Gram-side oracle loses eps*cond^2 on sigma_min, so the direct
    # condition-number comparison is only meaningful while it is accurate
    if ref[-1] > 1e-3 * ref[0]:
        assert cond_of(M) == pytest.approx(ref[0] / ref[-1], rel=1e-8)


def test_singular_values_rectangular():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 4))
    ref = np.linalg.svd(M, compute_uv=False)
    np.testing.assert_allclose(singular_values(M[None])[0], ref, rtol=1e-10)
    np.testing.assert_allclose(singular_values(M.T[None])[0], ref, rtol=1e-10)


def test_dexterity_record_contract(reference):
    rec = dexterity_at(reference, 0.0, 150.0, math.radians(10), math.radians(-20))
    assert rec.k >= 1.0
    assert rec.k_conventional >= 1.0
    assert np.all(np.diff(rec.sigmas) <= 0)
    assert rec.k == pytest.approx(rec.sigmas[0] / rec.sigmas[-1])
    assert rec.J_dh.shape == (4, 4)
    assert rec.unit == "mm"


def test_dhj_entries_unit_invariant(reference):
    coords = (0.0, 150.0, math.radians(15.0), math.radians(25.0))
    rec = dexterity_at(reference, *coords)
    metric = reference.scaled(0.001, unit="m")
    rec_m = dexterity_at(metric, 0.0, 0.150, coords[2], coords[3])
    np.testing.assert_allclose(rec_m.J_dh, rec.J_dh, rtol=1e-9)
    assert rec_m.k == pytest.approx(rec.k, rel=1e-9)


def test_joint_rates_consistent_through_dhj(reference):
    # q' recovered from the nominal velocity equals G_a^T xdot
    coords = (0.0, 150.0, math.radians(20.0), math.radians(10.0))
    rec = dexterity_at(reference, *coords)
    np.testing.assert_array_equal(rec.J_dh, assemble_dhj(rec.V_ps[None], rec.fwd.J_a)[0])
    J_a, G_a_T = rec.fwd.J_a[0], rec.G.G_a_T[0]  # the stage records are a stack of one

    rng = np.random.default_rng(11)
    for _ in range(5):
        qdot = rng.standard_normal(4)
        xdot = J_a @ qdot
        v_ps = rec.V_ps @ xdot
        qdot_back = np.linalg.solve(rec.J_dh, v_ps)
        np.testing.assert_allclose(qdot_back, G_a_T @ xdot, atol=1e-8)
        np.testing.assert_allclose(qdot_back, qdot, atol=1e-8)


def test_dexterity_at_resolves_once(reference, monkeypatch):
    # one pose is a stack of one: a single pass of the stacked resolve resolves it and runs
    # its IK
    import dhjac.dhj
    import dhjac.model

    calls = []
    resolve = dhjac.model.resolve_many

    def counting_resolve(cfg, coords, envelope_deg=None):
        calls.append(coords)
        return resolve(cfg, coords, envelope_deg)

    for module in (dhjac.model, dhjac.dhj):
        monkeypatch.setattr(module, "resolve_many", counting_resolve)
    coords = (0.0, 150.0, math.radians(20.0), math.radians(10.0))
    rec = dexterity_at(reference, *coords)
    assert calls == [[coords]]
    assert rec.pose.q.shape == (1, 4)
    np.testing.assert_array_equal(rec.pose.q, dhjac.model.resolve_many(reference, coords).q)


def test_dexterity_at_lapack_calls(reference, monkeypatch):
    # one pose takes two SVDs (G^T and J_dh), one inversion and no identity matrix
    calls = {"svd": 0, "inv": 0, "solve": 0, "eye": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((np.linalg, "svd"), (np.linalg, "inv"), (np.linalg, "solve"),
                         (np, "eye")):
        counting(module, name)
    dexterity_at(reference, 0.0, 150.0, math.radians(10.0), math.radians(5.0))
    assert calls == {"svd": 2, "inv": 1, "solve": 0, "eye": 0}


GRID_SLICES = {
    # id: (config, y, z, half-range deg, steps, plan, rtol, status counts)
    "primary": (lambda c: c, 0.0, 150.0, 50.0, 11, PRIMARY_PLAN, 1e-12, {"ok": 121}),
    "alternate": (lambda c: c, 0.0, 150.0, 50.0, 11, ALTERNATE_PLAN, 1e-12, {"ok": 121}),
    "edge_of_reach": (lambda c: c, 380.0, 150.0, 50.0, 21, PRIMARY_PLAN, 1e-12,
                      {"ok": 357, "unreachable": 84}),
    "opposite_plan": (lambda c: c, 0.0, 150.0, 50.0, 5, OPPOSITE_PLAN, 1e-12,
                      {"degenerate_pair": 25}),
    # the short-link layout of test_cli: no pose is reachable
    "short_link": (lambda c: dataclasses.replace(c, link_length=100.0), 0.0, 150.0, 50.0,
                   5, PRIMARY_PLAN, 1e-12, {"unreachable": 25}),
    "metre": (lambda c: c.in_unit("m"), 0.0, 0.150, 50.0, 11, PRIMARY_PLAN, 1e-12, {"ok": 121}),
    "nan_y": (lambda c: c, math.nan, 150.0, 50.0, 5, PRIMARY_PLAN, 1e-12, {"unreachable": 25}),
    "wide": (lambda c: dataclasses.replace(c, envelope_deg=89.0), 0.0, 150.0, 85.0, 21,
             PRIMARY_PLAN, 1e-10, {"ok": 441}),
    # rails under the anchors: G^T is singular on the whole theta = 0 row
    "square": (lambda c: square_config(), 0.0, 150.0, 50.0, 5, PRIMARY_PLAN, 1e-12,
               {"ok": 20, "singular_configuration": 5}),
    # off-plane PRS rails: phi_z != 0 (the scalar chain's damped Newton iterates)
    "offset_prs": (lambda c: offset_prs_config(), 0.0, 150.0, 50.0, 11, PRIMARY_PLAN,
                   1e-12, {"ok": 121}),
    # an even step count leaves out theta = 0
    "offset_prs_wide": (lambda c: dataclasses.replace(offset_prs_config(), envelope_deg=89.0),
                        0.0, 150.0, 85.0, 10, PRIMARY_PLAN, 1e-10,
                        {"ok": 80, "unreachable": 20}),
    # an odd one keeps it: at theta = 0, psi = +/-59.5 deg J_dh is singular (cond
    # ~1e16, rounding noise) while cond(G^T) is ~1e3, so both forms refuse the pose
    "offset_prs_theta0": (lambda c: dataclasses.replace(offset_prs_config(), envelope_deg=89.0),
                          0.0, 150.0, 85.0, 21, PRIMARY_PLAN, 1e-10,
                          {"ok": 313, "unreachable": 126, "singular_selection": 2}),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("slice_id", GRID_SLICES)
def test_condition_numbers_at_matches_dexterity_at(reference, slice_id):
    # against the chain written one pose and one limb at a time (scalar_reference)
    config, y, z, deg, steps, plan, rtol, counts = GRID_SLICES[slice_id]
    cfg = config(reference)
    axis = np.radians(np.linspace(-deg, deg, steps))
    seen = {}
    for th in axis:
        status, k_G, k_dh = condition_numbers_at(cfg, y, z, th, axis, plan=plan)
        for j, ps in enumerate(axis):
            try:
                ref_G, ref_dh = scalar_condition_numbers(cfg, y, z, float(th), float(ps), plan)
            except KinematicsError as exc:
                assert status[j] == exc.code
                assert math.isnan(k_G[j]) and math.isnan(k_dh[j])
            else:
                assert status[j] == "ok"
                assert k_G[j] == pytest.approx(ref_G, rel=rtol, abs=0.0)
                assert k_dh[j] == pytest.approx(ref_dh, rel=rtol, abs=0.0)
            seen[status[j]] = seen.get(status[j], 0) + 1
    assert seen == counts


# y past the reach of the links, angles past the envelope, and non-finite values
COORD = st.one_of(st.floats(min_value=-450.0, max_value=450.0),
                  st.sampled_from([math.nan, math.inf]))
WIDE_ANGLE = st.floats(min_value=-math.radians(90.0), max_value=math.radians(90.0))
POSE = st.tuples(COORD, st.floats(min_value=100.0, max_value=200.0), WIDE_ANGLE, WIDE_ANGLE)


@pytest.mark.filterwarnings("error")
@given(layout=st.sampled_from(["ref", "offset"]), poses=st.lists(POSE, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_stack_rows_equal_dexterity_at(reference, layout, poses):
    # row i of a stack of N is dexterity_at at pose i bit for bit, refusals included;
    # the widened envelope of the offset layout passes the psi limit of its PRS planes
    cfg = reference if layout == "ref" else dataclasses.replace(offset_prs_config(),
                                                                envelope_deg=89.0)
    status, k_G, k_dh = condition_numbers_at(cfg, *np.array(poses).T)
    for i, coords in enumerate(poses):
        try:
            rec = dexterity_at(cfg, *coords)
        except KinematicsError as exc:
            assert status[i] == exc.code
            assert math.isnan(k_G[i]) and math.isnan(k_dh[i])
        else:
            assert status[i] == "ok"
            assert (k_G[i], k_dh[i]) == (rec.k_conventional, rec.k)


def test_chain_ok_rows_have_finite_cond():
    # the chain refuses every cond(J_dh) that is not <= COND_LIMIT, so the plan-equivalence
    # check of run_validation reads finite values only: on the offset layout's +/-85 deg
    # grid, with its singular_selection cells, under both plans it compares
    cfg = dataclasses.replace(offset_prs_config(), envelope_deg=89.0)
    axis = np.radians(np.linspace(-85.0, 85.0, 21))
    th, ps = np.meshgrid(axis, axis, indexing="ij")
    pose = resolve_many(cfg, np.stack([np.zeros(th.size), np.full(th.size, 150.0),
                                       th.ravel(), ps.ravel()], axis=1))
    shared, *_, k, status = _chain(pose, PRIMARY_PLAN)
    *_, k_alt, status_alt = _chain(pose, ALTERNATE_PLAN, shared)
    assert "singular_selection" in status.codes()
    for cond, stat in ((k, status), (k_alt, status_alt)):
        ok = cond[stat.ok]
        assert len(ok) and np.isfinite(ok).all() and (ok <= COND_LIMIT).all()


def test_singular_selection_refused():
    # J_dh loses rank where G^T does not: the selection, not the mechanism, is singular
    cfg = dataclasses.replace(offset_prs_config(), envelope_deg=89.0)
    psi = math.radians(59.5)
    for ps in (psi, -psi):
        with pytest.raises(SingularSelection) as info:
            dexterity_at(cfg, 0.0, 150.0, 0.0, ps)
        assert info.value.code == "singular_selection"
        assert "exceeds" in str(info.value)
        pose = resolve_pose(cfg, 0.0, 150.0, 0.0, ps)
        assert checked(invert_full(checked(build_inverse_jacobian(pose)))).cond_GT[0] < 1e4


ANGLE = st.floats(min_value=-math.radians(50.0), max_value=math.radians(50.0))


@given(s=st.floats(min_value=1e-3, max_value=1e3), layout=st.sampled_from(["ref", "offset"]),
       y=st.floats(min_value=-50.0, max_value=50.0),
       z=st.floats(min_value=100.0, max_value=200.0), theta=ANGLE, psi=ANGLE)
@settings(max_examples=40, deadline=None)
def test_scaling_equivariance(reference, s, layout, y, z, theta, psi):
    # cfg.scaled(s) with (y, z) * s: cond(J_dh) is invariant, q and x scale by s
    cfg = reference if layout == "ref" else offset_prs_config()
    scaled = cfg.scaled(s)
    try:
        rec = dexterity_at(cfg, y, z, theta, psi)
    except KinematicsError as exc:
        with pytest.raises(type(exc)):
            dexterity_at(scaled, y * s, z * s, theta, psi)
        return
    rec_s = dexterity_at(scaled, y * s, z * s, theta, psi)
    assert rec_s.k == pytest.approx(rec.k, rel=1e-9, abs=0.0)
    np.testing.assert_allclose(rec_s.pose.q, rec.pose.q * s, rtol=1e-9, atol=0.0)
    # x = A_1x - (R P_1)_x: both terms carry the rounding of the scaled lengths (measured
    # within 0.56 eps r_b; a power-of-two scale is exact, test_model)
    assert abs(rec_s.pose.x[0] - rec.pose.x[0] * s) <= 4 * EPS * scaled.base_radius


@given(y=st.floats(min_value=-100.0, max_value=100.0),
       z=st.floats(min_value=100.0, max_value=200.0), theta=ANGLE, psi=ANGLE)
@settings(max_examples=40, deadline=None)
def test_cond_G_psi_mirror_symmetric(reference, y, z, theta, psi):
    # the reference layout is mirror-symmetric about x = 0, which flips psi;
    # cond(J_dh) is not (the primary plan breaks the symmetry; ~0.4 relative)
    k = dexterity_at(reference, y, z, theta, psi).k_conventional
    k_mirror = dexterity_at(reference, y, z, theta, -psi).k_conventional
    assert k_mirror == pytest.approx(k, rel=1e-10, abs=0.0)


def test_unit_scaling_experiment_grid(reference):
    thetas = np.radians(np.linspace(-40, 40, 5))
    report = unit_scaling_experiment(reference, thetas, thetas, y=0.0, z=150.0,
                                     scale=0.001)
    assert report["skipped"] == 0
    assert report["unit_scaled"] == "m"
    assert report["k_dh_invariant"] is True
    assert report["max_rel_dev_k_dh"] < 1e-9
    assert report["k_G_unit_sensitive"] is True
    assert report["max_rel_dev_k_G"] > 0.10


@pytest.mark.parametrize("unit,scale,label", [
    ("mm", 0.001, "m"), ("m", 0.001, "mx0.001"), ("m", 1000.0, "mm"),
    ("mm", 0.5, "mmx0.5"), ("m", 1.0, "m"),
])
def test_unit_scaling_labels(reference, unit, scale, label):
    report = unit_scaling_experiment(reference.in_unit(unit), [0.0], [0.0],
                                     z=reference.in_unit(unit).base_radius / 3.0,
                                     scale=scale)
    assert (report["unit_base"], report["unit_scaled"]) == (unit, label)
    assert report["skipped"] == 0


def test_unit_scaling_noop_is_bit_identical(reference):
    thetas = np.radians(np.linspace(-30, 30, 3))
    report = unit_scaling_experiment(reference, thetas, thetas, scale=1.0)
    for cell in report["cells"]:
        assert cell["k_G_base"] == cell["k_G_scaled"]
        assert cell["k_dh_base"] == cell["k_dh_scaled"]
    assert report["max_rel_dev_k_dh"] == 0.0


def test_pose_ranking_identical_across_units(reference):
    coords = random_coords(reference, 12, seed=29)
    metric = reference.scaled(0.001, unit="m")
    k_mm = [dexterity_at(reference, *c).k for c in coords]
    k_m = [dexterity_at(metric, c[0] * 0.001, c[1] * 0.001, c[2], c[3]).k
           for c in coords]
    assert np.array_equal(np.argsort(k_mm), np.argsort(k_m))
    np.testing.assert_allclose(k_mm, k_m, rtol=1e-9)


def test_plan_choice_changes_record_but_stays_valid(reference):
    coords = (0.0, 150.0, math.radians(30.0), math.radians(-10.0))
    a = dexterity_at(reference, *coords)
    b = dexterity_at(reference, *coords, plan=ALTERNATE_PLAN)
    assert a.k >= 1.0 and b.k >= 1.0
    assert a.plan is PRIMARY_PLAN and b.plan is ALTERNATE_PLAN

