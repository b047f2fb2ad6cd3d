import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dhjac.dhj import (assemble_dhj, condition_number, dexterity_at, dimensional_audit,
                       singular_values, unit_scaling_experiment)
from dhjac.errors import MixedActuation
from dhjac.selection import ALTERNATE_PLAN, PRIMARY_PLAN

from conftest import random_coords


def test_assemble_identity_composition():
    V_ps = np.hstack([np.zeros((4, 1)), np.eye(4), np.zeros((4, 1))])
    J_a = np.vstack([np.zeros((1, 4)), np.eye(4), np.zeros((1, 4))])
    np.testing.assert_array_equal(assemble_dhj(V_ps, J_a), np.eye(4))
    with pytest.raises(ValueError):
        assemble_dhj(np.zeros((4, 5)), np.zeros((6, 4)))


def test_condition_number_identity():
    assert condition_number(np.eye(4)) == pytest.approx(1.0)


def test_condition_number_diagonal_extremes():
    assert condition_number(np.diag([2.0, 1.0, 1.0, 0.5])) == pytest.approx(4.0)


def test_condition_number_singular_is_infinite():
    M = np.eye(4)
    M[2, 2] = 0.0
    assert condition_number(M) == math.inf


@given(M=arrays(np.float64, (4, 4),
                elements=st.floats(min_value=-10, max_value=10, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_condition_number_matches_eigensolve(M):
    # independent oracle: eigenvalues of M^T M from the symmetric eigensolver;
    # compared at the Gram level where the eigensolve is fully accurate
    sv = singular_values(M)
    ev = np.clip(np.linalg.eigvalsh(M.T @ M)[::-1], 0.0, None)
    scale = max(ev[0], 1e-12)
    np.testing.assert_allclose(sv ** 2, ev, atol=1e-10 * scale)
    ref = np.sqrt(ev)
    # the Gram-side oracle loses eps*cond^2 on sigma_min, so the direct
    # condition-number comparison is only meaningful while it is accurate
    if ref[-1] > 1e-3 * ref[0]:
        assert condition_number(M) == pytest.approx(ref[0] / ref[-1], rel=1e-8)


def test_singular_values_rectangular():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 4))
    ref = np.linalg.svd(M, compute_uv=False)
    np.testing.assert_allclose(singular_values(M), ref, rtol=1e-10)
    np.testing.assert_allclose(singular_values(M.T), ref, rtol=1e-10)


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
    np.testing.assert_array_equal(rec.J_dh, assemble_dhj(rec.V_ps, rec.fwd.J_a))

    rng = np.random.default_rng(11)
    for _ in range(5):
        qdot = rng.standard_normal(4)
        xdot = rec.fwd.J_a @ qdot
        v_ps = rec.V_ps @ xdot
        qdot_back = np.linalg.solve(rec.J_dh, v_ps)
        np.testing.assert_allclose(qdot_back, rec.G.G_a_T @ xdot, atol=1e-8)
        np.testing.assert_allclose(qdot_back, qdot, atol=1e-8)


def test_dexterity_at_runs_ik_once(reference, monkeypatch):
    import dhjac.model

    calls = []
    ik = dhjac.model.inverse_kinematics

    def counting_ik(cfg, pose):
        calls.append(pose)
        return ik(cfg, pose)

    monkeypatch.setattr(dhjac.model, "inverse_kinematics", counting_ik)
    rec = dexterity_at(reference, 0.0, 150.0, math.radians(20.0), math.radians(10.0))
    assert len(calls) == 1
    assert [limb.q for limb in rec.pose.limbs] == [limb.q for limb in ik(reference, rec.pose)]


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


def test_dimensional_audit_linear(reference):
    audit = dimensional_audit(reference)
    assert audit["homogeneous"] is True
    assert audit["blocks"]["J_dh"] == "1"
    assert audit["blocks"]["S"] == "1"
    assert audit["blocks"]["V_p_moment_block"] == "mm"
    assert audit["blocks"]["J_a2"] == "1/mm"
    assert audit["J_dh_length_power"] == 0


def test_dimensional_audit_rotational(reference):
    audit = dimensional_audit(dataclasses.replace(reference, actuator_kind="rotational"))
    assert audit["homogeneous"] is True
    assert audit["blocks"]["J_dh"] == "mm"
    assert audit["blocks"]["J_a1"] == "mm"
    assert audit["blocks"]["J_a2"] == "1"
    assert audit["J_dh_length_power"] == 1


def test_dimensional_audit_mixed_rejected(reference):
    with pytest.raises(MixedActuation):
        dimensional_audit(dataclasses.replace(reference, actuator_kind="mixed"))
