import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dhjac.errors import ConfigError, DegeneratePair
from dhjac.model import resolve_pose
from dhjac.pointmap import build_Vp
from dhjac.selection import (ALTERNATE_PLAN, CONSTRAINED_COLS, INDEPENDENT_COLS,
                             OPPOSITE_PLAN, PRIMARY_PLAN, SelectionPlan,
                             build_selection_matrix, nominal_map)

from conftest import checked, random_coords


def anchors_at(cfg, coords):
    return resolve_pose(cfg, *coords).a


def test_named_plans():
    # row k of a plan pairs limb k with another limb; SelectionPlan refuses anything else
    assert PRIMARY_PLAN.pairs == ((1, 2), (2, 3), (3, 4), (4, 1))
    assert OPPOSITE_PLAN.pairs == ((1, 3), (2, 4), (3, 1), (4, 2))
    for plan in (PRIMARY_PLAN, OPPOSITE_PLAN, ALTERNATE_PLAN):
        assert [i for i, _ in plan.pairs] == [1, 2, 3, 4]
        assert all(j in (1, 2, 3, 4) and j != i for i, j in plan.pairs)
        assert SelectionPlan(plan.pairs) == plan


def test_pair_string_round_trip():
    plan = SelectionPlan.from_pair_strings([["1y", "2z"], ["2y", "3z"],
                                            ["3y", "4z"], ["4y", "1z"]])
    assert plan == PRIMARY_PLAN
    assert plan.pair_strings() == [["1y", "2z"], ["2y", "3z"], ["3y", "4z"], ["4y", "1z"]]
    with pytest.raises(ConfigError):
        SelectionPlan.from_pair_strings([["1x", "2z"]] * 4)
    with pytest.raises(ConfigError):
        SelectionPlan(pairs=((1, 1), (2, 3), (3, 4), (4, 1)))
    with pytest.raises(ConfigError):
        SelectionPlan(pairs=((2, 3), (1, 2), (3, 4), (4, 1)))


def test_row_weights_worked_example():
    # a_1x = 1, a_2x = -1: weights 0.5 on v_1y, 1 on v_1z, 0.5 on v_2y
    pts = [np.array([1.0, 1.0, 0.0]), np.array([-1.0, 1.0, 0.0]),
           np.array([-0.3, -1.0, 0.0]), np.array([0.5, -1.0, 0.0])]
    S = checked(build_selection_matrix(PRIMARY_PLAN, pts)).S
    assert S[0, 1] == pytest.approx(0.5)   # v_1y
    assert S[0, 2] == pytest.approx(1.0)   # v_1z
    assert S[0, 4] == pytest.approx(0.5)   # v_2y
    assert np.count_nonzero(S[0]) == 3


def test_rows_match_signed_difference_weights_up_to_sign(reference):
    # the adopted |delta| normalization equals the signed-delta weights
    # wherever a_ix - a_jx > 0 and flips the y-part otherwise
    pts = anchors_at(reference, (0.0, 150.0, 0.25, -0.4))
    ax = [p[0] for p in pts]
    S = checked(build_selection_matrix(PRIMARY_PLAN, pts)).S
    for r, (i, j) in enumerate(PRIMARY_PLAN.pairs):
        delta = ax[i - 1] - ax[j - 1]
        sign = math.copysign(1.0, delta)
        assert S[r, 3 * (i - 1) + 1] == pytest.approx(sign * (-ax[j - 1] / delta))
        assert S[r, 3 * (j - 1) + 1] == pytest.approx(sign * (ax[i - 1] / delta))
        assert S[r, 3 * (min(i, j) - 1) + 2] == 1.0
        # each row touches at most three components
        assert np.count_nonzero(np.abs(S[r]) > 1e-12) <= 3


def test_degenerate_pair_rejected():
    pts = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]),
           np.array([-1.0, 0.5, 0.0]), np.array([0.2, -1.0, 0.0])]
    with pytest.raises(DegeneratePair):
        build_selection_matrix(SelectionPlan(((1, 2), (2, 3), (3, 4), (4, 1))), pts).status.check()


def test_degenerate_row_nan_only_on_the_refused_pose(reference):
    clean = anchors_at(reference, (0.0, 150.0, 0.1, 0.2))
    # the pair (v_1y, v_2z) of the primary plan is degenerate here: a_1x = a_2x
    degenerate = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [-1.0, 0.5, 0.0], [0.2, -1.0, 0.0]])
    sel = build_selection_matrix(PRIMARY_PLAN, np.stack([clean, degenerate, clean]))
    assert sel.status.codes() == ["ok", "degenerate_pair", "ok"]
    assert sel.status.refusals[(1,)].limb == 1
    assert np.isnan(sel.S[1]).any(axis=1).tolist() == [True, False, False, False]
    alone = checked(build_selection_matrix(PRIMARY_PLAN, clean)).S
    for i in (0, 2):
        assert sel.S[i].tobytes() == alone.tobytes()


def test_opposite_plan_degenerate_at_reference(reference):
    # PRS anchors sit on the x = 0 plane at every feasible pose, so the
    # opposite-partner pairs (2,4)/(4,2) have coincident x-coordinates
    pts = anchors_at(reference, (0.0, 150.0, 0.1, 0.2))
    assert abs(pts[1][0]) < 1e-9
    assert abs(pts[3][0]) < 1e-9
    with pytest.raises(DegeneratePair):
        build_selection_matrix(OPPOSITE_PLAN, pts).status.check()


@pytest.mark.parametrize("plan", [PRIMARY_PLAN, ALTERNATE_PLAN])
def test_constrained_columns_annihilated(reference, plan):
    for coords in random_coords(reference, 10, seed=17):
        pts = anchors_at(reference, coords)
        V_ps = nominal_map(checked(build_selection_matrix(plan, pts)), build_Vp(pts))
        assert np.max(np.abs(V_ps[:, list(CONSTRAINED_COLS)])) < 1e-12


xcoord = st.floats(min_value=-300.0, max_value=300.0, allow_nan=False)


@given(xs=st.tuples(xcoord, xcoord, xcoord, xcoord),
       other=st.lists(st.floats(min_value=-200.0, max_value=200.0, allow_nan=False),
                      min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_annihilation_for_random_points(xs, other):
    spread = max(abs(v) for v in xs)
    assume(spread > 1.0)
    assume(min(abs(xs[i] - xs[j]) for i in range(4) for j in range(4) if i != j)
           > 1e-6 * spread)
    pts = [np.array([xs[k], other[2 * k], other[2 * k + 1]]) for k in range(4)]
    for plan in (PRIMARY_PLAN, OPPOSITE_PLAN):
        V_ps = nominal_map(checked(build_selection_matrix(plan, pts)), build_Vp(pts))
        assert np.max(np.abs(V_ps[:, list(CONSTRAINED_COLS)])) < 1e-10 * max(spread, 1.0)


def test_nominal_map_reference_columns(reference):
    # v_z column all ones and omega_y column (-a_1x, -a_2x, -a_3x, -a_1x);
    # the v_y column is +/-1 with the sign of the pair difference (an
    # all-ones v_y column would be the documented rank-collapse)
    pts = anchors_at(reference, (0.0, 150.0, 0.3, -0.2))
    ax = [p[0] for p in pts]
    V_ps = nominal_map(checked(build_selection_matrix(PRIMARY_PLAN, pts)), build_Vp(pts))
    restricted = V_ps[:, list(INDEPENDENT_COLS)]
    np.testing.assert_allclose(restricted[:, 1], np.ones(4), atol=1e-14)
    np.testing.assert_allclose(
        restricted[:, 3], [-ax[0], -ax[1], -ax[2], -ax[0]], atol=1e-9)
    signs = [math.copysign(1.0, ax[i - 1] - ax[j - 1]) for i, j in PRIMARY_PLAN.pairs]
    np.testing.assert_allclose(restricted[:, 0], signs, atol=1e-14)
    assert restricted.shape == (4, 4)
    assert V_ps.shape == (4, 6)
    assert list(INDEPENDENT_COLS) == [1, 2, 3, 4]


def test_restricted_map_nonsingular_across_envelope(reference):
    for coords in random_coords(reference, 20, seed=23):
        pts = anchors_at(reference, coords)
        V_ps = nominal_map(checked(build_selection_matrix(PRIMARY_PLAN, pts)), build_Vp(pts))
        restricted = V_ps[:, list(INDEPENDENT_COLS)]
        assert abs(np.linalg.det(restricted)) > 1e-3


def test_selection_matrix_scale_invariant(reference):
    pts = anchors_at(reference, (0.0, 150.0, 0.2, 0.4))
    S = checked(build_selection_matrix(PRIMARY_PLAN, pts)).S
    S_scaled = checked(build_selection_matrix(PRIMARY_PLAN, [p * 0.001 for p in pts])).S
    np.testing.assert_allclose(S_scaled, S, rtol=1e-12, atol=1e-15)
