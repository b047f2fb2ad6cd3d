import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhjac.pointmap import build_Vp, skew

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def point_velocity(v: np.ndarray, w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The shifting property v + w x a, one point at a time: the oracle of ``build_Vp``."""
    return np.asarray(v, float) + np.cross(w, a)


def test_pure_translation_passthrough():
    v = point_velocity(np.array([1.0, 2.0, 3.0]), np.zeros(3), np.array([9.0, -4.0, 0.5]))
    np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])


def test_unit_circular_motion():
    v = point_velocity(np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(v, [0.0, 1.0, 0.0], atol=1e-15)


def test_hand_expanded_component():
    # v_iy = v_y - w_x * a_iz: 1 - 0.1 * 2 = 0.8
    v = point_velocity(np.array([0.0, 1.0, 0.0]), np.array([0.1, 0.0, 0.0]),
                       np.array([0.0, 0.0, 2.0]))
    np.testing.assert_allclose(v, [0.0, 0.8, 0.0], atol=1e-15)


def test_single_point_block_signs():
    # rows [I, -skew(a)]: first row ends with (+a_z, -a_y), second row
    # carries (-a_z, 0, +a_x), third (+a_y, -a_x, 0)
    a = np.array([1.0, 2.0, 3.0])
    V_p = build_Vp([a])
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0, 3.0, -2.0],
        [0.0, 1.0, 0.0, -3.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 2.0, -1.0, 0.0],
    ])
    np.testing.assert_array_equal(V_p, expected)


def test_four_symmetric_points_heave(reference):
    pts = reference.platform_points()
    v = build_Vp(pts) @ np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(v.reshape(4, 3)[:, 2], np.ones(4))
    np.testing.assert_array_equal(v.reshape(4, 3)[:, :2], np.zeros((4, 2)))


@given(v=vec3, w=vec3, pts=st.lists(vec3, min_size=3, max_size=5))
@settings(max_examples=50, deadline=None)
# w x a = 0 exactly, but the product sums terms of |w| |a| ~ 1e3 that cancel
@example(v=np.zeros(3), w=np.array([0.0, 36.90563100968123, 7.0]),
         pts=[np.zeros(3), np.zeros(3), np.array([0.0, 36.90563100968123, 7.0])])
def test_stacked_map_equals_pointwise(v, w, pts):
    stacked = build_Vp(pts) @ np.concatenate([v, w])
    direct = np.concatenate([point_velocity(v, w, a) for a in pts])
    terms = 1 + np.max(np.abs(v)) + np.max(np.abs(w)) * np.max(np.abs(pts))
    np.testing.assert_allclose(stacked, direct, atol=1e-14 * terms)


@given(v=vec3, w=vec3, a=vec3, b=vec3)
@settings(max_examples=50, deadline=None)
def test_rigid_body_distance_preservation(v, w, a, b):
    rel = point_velocity(v, w, a) - point_velocity(v, w, b)
    scale = 1.0 + float(np.linalg.norm(a - b)) * (1.0 + float(np.linalg.norm(w)))
    assert abs(rel @ (a - b)) < 1e-10 * scale * scale


def test_scaling_moves_only_skew_block(reference):
    pts = reference.platform_points()
    V_p = build_Vp(pts)
    V_p_s = build_Vp([p * 0.001 for p in pts])
    np.testing.assert_allclose(V_p_s[:, :3], V_p[:, :3], atol=0)
    np.testing.assert_allclose(V_p_s[:, 3:], 0.001 * V_p[:, 3:], rtol=1e-15)


def test_skew_antisymmetry():
    a = np.array([0.3, -1.7, 2.2])
    S = skew(a)
    np.testing.assert_array_equal(S.T, -S)
    np.testing.assert_allclose(S @ np.array([1.0, 1.0, 1.0]), np.cross(a, [1, 1, 1]))
