import collections
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dhjac.dhj import dexterity_at, singular_values
from dhjac.errors import (DegeneratePair, KinematicsError, NoForwardSolution, StepTooLarge,
                          Unreachable)
from dhjac.model import load_config, resolve_many, resolve_pose
from dhjac.screws import build_inverse_jacobian
from dhjac.selection import OPPOSITE_PLAN, PRIMARY_PLAN
from dhjac.verify import (BRUTE_FORCE_STEP, REFINE_MAX_ITER, REFINE_TOL, _brute_force_dhj,
                          brute_force_dhj, fd_oracles, fd_rows, forward_refine, run_validation,
                          sample_poses, step_sizes)

from conftest import (REFERENCE_CONFIG, S_at, bf_at, checked, fd_at, offset_prs_config, one,
                      random_coords, row, square_config)


# Scalar references: the oracles written pose by pose, one resolve_pose (a stack
# of one, read at its row) per perturbed pose.  The stacked oracles, over a stack
# of one, must reproduce them bit for bit.

def _scalar_steps(cfg, h=1e-6):
    return h * cfg.base_radius, h


def _scalar_q(cfg, coords, envelope_deg=None):
    return resolve_pose(cfg, *coords, envelope_deg=envelope_deg).q[0]


def _perturbed(coords, k, delta):
    c = list(coords)
    c[k] += delta
    return tuple(c)


def scalar_fd_actuation_jacobian(cfg, coords, h=1e-6):
    h_len, h_ang = _scalar_steps(cfg, h)
    J = np.zeros((cfg.limb_count, 4))
    env = cfg.envelope_deg + 1.0
    for k in range(4):
        hk = h_len if k < 2 else h_ang
        try:
            qp = _scalar_q(cfg, _perturbed(coords, k, +hk), env)
            qm = _scalar_q(cfg, _perturbed(coords, k, -hk), env)
        except KinematicsError as exc:
            raise StepTooLarge(f"perturbed pose infeasible along coord {k}: {exc}") from exc
        J[:, k] = (qp - qm) / (2.0 * hk)
    return J


def scalar_fd_constraint_tangent(cfg, coords, h=1e-6):
    h_len, h_ang = _scalar_steps(cfg, h)
    R0 = resolve_pose(cfg, *coords).rotation[0]
    T = np.zeros((6, 4))
    env = cfg.envelope_deg + 1.0
    for k in range(4):
        hk = h_len if k < 2 else h_ang
        try:
            pp = row(resolve_pose(cfg, *_perturbed(coords, k, +hk), envelope_deg=env))
            pm = row(resolve_pose(cfg, *_perturbed(coords, k, -hk), envelope_deg=env))
        except KinematicsError as exc:
            raise StepTooLarge(f"perturbed pose infeasible along coord {k}: {exc}") from exc
        T[:3, k] = (pp.origin - pm.origin) / (2.0 * hk)
        W = ((pp.rotation - pm.rotation) / (2.0 * hk)) @ R0.T
        T[3, k] = 0.5 * (W[2, 1] - W[1, 2])
        T[4, k] = 0.5 * (W[0, 2] - W[2, 0])
        T[5, k] = 0.5 * (W[1, 0] - W[0, 1])
    return T


def scalar_forward_refine(cfg, q_target, guess_coords):
    # chord Newton: the forward Jacobian is differenced at the first iterate that steps,
    # and every later step solves against it
    tol = REFINE_TOL * cfg.base_radius
    env = cfg.envelope_deg + 5.0
    coords = np.array(guess_coords, float)
    Jq = None
    for _ in range(REFINE_MAX_ITER):
        try:
            r = _scalar_q(cfg, coords, env) - q_target
        except KinematicsError as exc:
            raise NoForwardSolution(f"iterate left the workspace: {exc}") from exc
        if np.max(np.abs(r)) < tol:
            return coords
        if Jq is None:
            h_len, h_ang = _scalar_steps(cfg)
            Jq = np.zeros((4, 4))
            for k in range(4):
                hk = h_len if k < 2 else h_ang
                qp = _scalar_q(cfg, _perturbed(coords, k, +hk), env)
                qm = _scalar_q(cfg, _perturbed(coords, k, -hk), env)
                Jq[:, k] = (qp - qm) / (2.0 * hk)
        coords = coords - np.linalg.solve(Jq, r)
    raise NoForwardSolution(f"no convergence in {REFINE_MAX_ITER} iterations")


def scalar_brute_force_dhj(cfg, coords, plan=PRIMARY_PLAN):
    h_q = BRUTE_FORCE_STEP * cfg.base_radius
    pose0 = row(resolve_pose(cfg, *coords))
    q0 = pose0.q
    S = S_at(plan, pose0.a)
    out = np.zeros((cfg.limb_count, cfg.limb_count))
    for m in range(cfg.limb_count):
        qp, qm = q0.copy(), q0.copy()
        qp[m] += h_q
        qm[m] -= h_q
        pp = row(resolve_pose(cfg, *scalar_forward_refine(cfg, qp, coords),
                              envelope_deg=cfg.envelope_deg + 5.0))
        pm = row(resolve_pose(cfg, *scalar_forward_refine(cfg, qm, coords),
                              envelope_deg=cfg.envelope_deg + 5.0))
        bp = np.concatenate([pp.origin + pp.rotation @ p for p in cfg.platform_points()])
        bm = np.concatenate([pm.origin + pm.rotation @ p for p in cfg.platform_points()])
        out[:, m] = S @ (bp - bm) / (2.0 * h_q)
    return out


def scalar_sample_poses(cfg, n, seed):
    rng = np.random.default_rng(seed)
    lim = math.radians(cfg.envelope_deg)
    z_scale = cfg.base_radius / 450.0
    feasible, failures = [], []
    for _ in range(n):
        coords = (0.0, float(rng.uniform(100.0, 200.0) * z_scale),
                  float(rng.uniform(-lim, lim)), float(rng.uniform(-lim, lim)))
        try:
            resolve_pose(cfg, *coords)
            feasible.append(coords)
        except KinematicsError as exc:
            failures.append((coords, exc.code))
    return feasible, failures


ORACLE_LAYOUTS = {"reference": None, "offset": offset_prs_config}


@pytest.mark.parametrize("layout", sorted(ORACLE_LAYOUTS))
def test_stacked_oracles_equal_scalar_references(reference, layout):
    cfg = reference if ORACLE_LAYOUTS[layout] is None else ORACLE_LAYOUTS[layout]()
    for coords in random_coords(cfg, 6, seed=67):
        T, FD = fd_at(cfg, coords)
        np.testing.assert_array_equal(FD, scalar_fd_actuation_jacobian(cfg, coords))
        np.testing.assert_array_equal(T, scalar_fd_constraint_tangent(cfg, coords))
        q = _scalar_q(cfg, coords) + np.array([0.3, -0.2, 0.1, 0.25])
        np.testing.assert_array_equal(one(forward_refine(cfg, q[None], coords)),
                                      scalar_forward_refine(cfg, q, coords))
    for coords in random_coords(cfg, 2, seed=71):
        np.testing.assert_array_equal(bf_at(cfg, coords), scalar_brute_force_dhj(cfg, coords))


def test_forward_refine_stack_equals_one_target_at_a_time(reference):
    coords = (0.0, 150.0, 0.3, -0.2)
    q0 = _scalar_q(reference, coords)
    targets = q0 + np.array([[0.5, 0.0, 0.0, 0.0], [0.0, -2.0, 1.0, 0.0], [3.0, 3.0, 3.0, 3.0]])
    refined = checked(forward_refine(reference, targets, coords)).value
    assert refined.shape == (3, 4)
    for t, row in zip(targets, refined):
        np.testing.assert_array_equal(row, one(forward_refine(reference, t[None], coords)))


def test_forward_refine_stack_raises_the_first_failed_targets_error(reference):
    coords = (0.0, 150.0, 0.0, 0.0)
    good = _scalar_q(reference, coords) + 0.5
    bad = [np.array([1e5, -1e5, 1e5, -1e5]), np.array([0.0, 0.0, 0.0, 2e3])]
    alone = []
    for target in bad:
        with pytest.raises(NoForwardSolution) as info:
            scalar_forward_refine(reference, target, coords)
        alone.append(str(info.value))
    assert alone[0] != alone[1] and "left the workspace" in alone[0]
    for first, second in ((0, 1), (1, 0)):
        stacked = forward_refine(reference, np.stack([good, bad[first], good, bad[second]]),
                                 coords)
        with pytest.raises(NoForwardSolution) as raised:
            stacked.status.check()
        assert str(raised.value) == alone[first]
        # every target keeps the result or the error it gets alone
        assert stacked.status.codes() == ["ok", "no_forward_solution"] * 2
        assert [str(stacked.status.error(t)) for t in (1, 3)] == [alone[first], alone[second]]
        for t in (0, 2):
            np.testing.assert_array_equal(stacked.value[t],
                                          scalar_forward_refine(reference, good, coords))
        assert np.isnan(stacked.value[[1, 3]]).all()


def test_forward_refine_singular_target_fails_only_itself(square):
    # on the square layout the forward Jacobian is singular at theta = 0
    a, b = (0.0, 150.0, 0.3, 0.1), (0.0, 150.0, 0.0, 0.1)
    q_a = _scalar_q(square, a) + 1e-3
    q_b = _scalar_q(square, b) + 1e-3
    with pytest.raises(NoForwardSolution, match="singular forward Jacobian") as alone:
        one(forward_refine(square, q_b[None], b))
    stacked = forward_refine(square, np.stack([q_a, q_b]), np.array([a, b]))
    assert stacked.status.codes() == ["ok", "no_forward_solution"]
    assert str(stacked.status.error(1)) == str(alone.value)
    np.testing.assert_array_equal(stacked.value[0], one(forward_refine(square, q_a[None], a)))
    np.testing.assert_array_equal(stacked.value[0], scalar_forward_refine(square, q_a, a))


def assert_each_target_as_alone(cfg, targets, guesses):
    """``forward_refine`` over the stack gives each target the value, the error and the
    anchor points that it gets as a stack of one; returns the stacked result."""
    stacked = forward_refine(cfg, np.array(targets), np.array(guesses))
    for t, (q, guess) in enumerate(zip(targets, guesses)):
        try:
            alone = one(forward_refine(cfg, q[None], guess))
        except KinematicsError as exc:
            got = stacked.status.error(t)
            assert (type(got), str(got)) == (type(exc), str(exc))
            assert np.isnan(stacked.value[t]).all() and np.isnan(stacked.B[t]).all()
        else:
            assert stacked.status.error(t) is None
            np.testing.assert_array_equal(stacked.value[t], alone)
            np.testing.assert_array_equal(stacked.value[t], scalar_forward_refine(cfg, q, guess))
            # the anchor points of the accepting iteration, which resolved exactly there
            B = resolve_pose(cfg, *alone, envelope_deg=cfg.envelope_deg + 5.0).B[0]
            np.testing.assert_array_equal(stacked.B[t], B)
    return stacked


def test_forward_refine_shared_iterate_outside_the_guard(reference):
    # targets with a common guess past envelope + 5 deg each fail there, as alone; the
    # targets of another guess in between still refine
    inside = np.array([0.0, 150.0, 0.3, -0.2])
    outside = np.array([0.0, 150.0, math.radians(reference.envelope_deg + 6.0), 0.1])
    q = _scalar_q(reference, inside)
    targets = [q, q + 0.5, q - 0.5, q + 0.25, q]
    guesses = [outside, outside, inside, inside, outside]
    stacked = assert_each_target_as_alone(reference, targets, guesses)
    assert stacked.status.codes() == ["no_forward_solution"] * 2 + ["ok"] * 2 + \
        ["no_forward_solution"]
    assert "iterate left the workspace" in str(stacked.status.error(0))


def test_forward_refine_shared_iterate_with_a_refused_perturbation(reference):
    # the common guess sits 1e-7 rad inside envelope + 5 deg, so its +theta perturbation is
    # refused: the targets that step from it fail with that refusal, the one it already
    # reproduces converges without perturbing it
    edge = np.array([0.0, 150.0, math.radians(reference.envelope_deg + 5.0) - 1e-7, 0.0])
    inside = np.array([0.0, 150.0, 0.3, -0.2])
    q_edge = _scalar_q(reference, edge, reference.envelope_deg + 5.0)
    q_in = _scalar_q(reference, inside)
    targets = [q_edge + 0.01, q_edge, q_edge - 0.01, q_in + 0.5, q_in - 0.5]
    guesses = [edge, edge, edge, inside, inside]
    stacked = assert_each_target_as_alone(reference, targets, guesses)
    assert stacked.status.codes() == ["unreachable", "ok", "unreachable", "ok", "ok"]
    assert isinstance(stacked.status.error(0), Unreachable)
    np.testing.assert_array_equal(stacked.value[1], edge)


def test_forward_refine_shared_singular_iterate(square):
    # on the square layout the forward Jacobian is singular at theta = 0: every target that
    # steps from that common guess fails, as alone, the one it reproduces does not
    flat, tilted = np.array([0.0, 150.0, 0.0, 0.1]), np.array([0.0, 150.0, 0.3, 0.1])
    q_flat, q_tilted = _scalar_q(square, flat), _scalar_q(square, tilted)
    targets = [q_tilted + 1e-3, q_flat + 1e-3, q_flat, q_flat - 1e-3, q_tilted - 1e-3]
    guesses = [tilted, flat, flat, flat, tilted]
    stacked = assert_each_target_as_alone(square, targets, guesses)
    assert stacked.status.codes() == ["ok", "no_forward_solution", "ok",
                                      "no_forward_solution", "ok"]
    assert "singular forward Jacobian" in str(stacked.status.error(3))


def test_forward_refine_iterates_one_bit_apart_stay_apart(reference):
    # guesses that differ in the last bit of one coordinate refine apart, each as alone
    guess = np.array([0.0, 150.0, 0.3, -0.2])
    near = guess.copy()
    near[3] = np.nextafter(near[3], 1.0)
    q = _scalar_q(reference, guess) + np.array([0.3, -0.2, 0.1, 0.25])
    targets = [q, q + 0.1, q, q + 0.1, q]
    guesses = [guess, guess, near, near, guess]
    stacked = assert_each_target_as_alone(reference, targets, guesses)
    assert not np.array_equal(stacked.value[0], stacked.value[2])


@pytest.mark.parametrize("layout", sorted(ORACLE_LAYOUTS))
def test_oracles_over_a_stack_equal_each_pose_alone(reference, layout):
    # each row of a stack has the value, or the error, of that pose as a stack of one
    cfg = reference if ORACLE_LAYOUTS[layout] is None else ORACLE_LAYOUTS[layout]()
    lim = math.radians(cfg.envelope_deg)
    coords = random_coords(cfg, 5, seed=73) + [
        (0.0, 150.0, lim + math.radians(0.5), 0.0),  # outside the envelope, inside its guard
        (0.0, 150.0, lim + math.radians(1.0) - 1e-7, 0.0),  # a perturbation is refused
        (1e3, 150.0, 0.0, 0.0)]  # out of reach
    oracles = (lambda centers: fd_oracles(cfg, centers)[1],  # the actuation Jacobian
               lambda centers: fd_oracles(cfg, centers)[0],  # the tangent
               lambda centers: _brute_force_dhj(cfg, centers))
    centers = resolve_many(cfg, coords)
    for oracle in oracles:
        stacked = oracle(centers)
        assert stacked.value.shape[0] == len(coords)
        for i, c in enumerate(coords):
            try:
                alone = one(oracle(resolve_many(cfg, [c])))
            except KinematicsError as exc:
                got = stacked.status.error(i)
                assert (type(got), str(got)) == (type(exc), str(exc))
                assert np.isnan(stacked.value[i]).all()
            else:
                assert stacked.status.error(i) is None
                np.testing.assert_array_equal(stacked.value[i], alone)
    # the tangent resolves each center in the envelope; the actuation oracle only its steps
    tangent, actuation = fd_oracles(cfg, centers)
    assert tangent.status.codes()[5:] == ["unreachable"] * 3
    assert actuation.status.codes() == ["ok"] * 6 + ["step_too_large"] * 2


def test_brute_force_keeps_the_refusal_of_a_step_out_of_reach(reference):
    # a center inside the envelope and in reach, whose +y step is out of reach: the actuation
    # oracle reads that row as StepTooLarge, the brute force, whose first Newton step
    # differences the same rows, fails with the row's own Unreachable, as a pose refined
    # one resolve_pose at a time does
    h_len = step_sizes(reference)[0]
    inside, outside = 0.0, 1e3
    assert resolve_many(reference, [(outside, 150.0, 0.3, -0.2)]).status.codes() == \
        ["unreachable"]
    while outside - inside >= h_len / 2:
        mid = 0.5 * (inside + outside)
        if resolve_many(reference, [(mid, 150.0, 0.3, -0.2)]).status.refusals:
            outside = mid
        else:
            inside = mid
    edge = (inside, 150.0, 0.3, -0.2)
    with pytest.raises(Unreachable) as want:
        scalar_brute_force_dhj(reference, edge)
    assert "exceeds link" in str(want.value)
    with pytest.raises(StepTooLarge, match="along coord 0"):
        fd_at(reference, edge)
    with pytest.raises(Unreachable) as alone:
        bf_at(reference, edge)
    assert str(alone.value) == str(want.value)
    coords = [(0.0, 150.0, 0.3, -0.2), edge, (0.0, 160.0, -0.1, 0.2)]
    stacked = _brute_force_dhj(reference, resolve_many(reference, coords))
    assert stacked.status.codes() == ["ok", "unreachable", "ok"]
    assert str(stacked.status.error(1)) == str(want.value)
    for i in (0, 2):
        np.testing.assert_array_equal(stacked.value[i], scalar_brute_force_dhj(reference,
                                                                               coords[i]))


def test_perturbation_past_the_guard_is_step_too_large(reference):
    # theta sits just inside envelope + 1 deg, so its +h perturbation is refused
    coords = (0.0, 150.0, math.radians(reference.envelope_deg + 1.0) - 1e-7, 0.0)
    with pytest.raises(StepTooLarge) as got:
        one(fd_oracles(reference, resolve_many(reference, [coords]))[1])
    with pytest.raises(StepTooLarge) as want:
        scalar_fd_actuation_jacobian(reference, coords)
    assert str(got.value) == str(want.value)
    assert "along coord 2" in str(got.value)


def test_offset_tangent_error_is_truncation():
    # on the offset layout at +/-89 deg, constraint_rows_annihilate_tangent fails (dhjac
    # validate exits 1): its worst pose of 23 reads max |G_c^T T| = 1.19e-7 against 1e-7.
    # There the error grows as h^2 with the step of the finite-difference tangent, which
    # is the truncation of the central difference, not an error of the constraint rows
    # (that would stay as h shrinks)
    cfg = dataclasses.replace(offset_prs_config(), envelope_deg=89.0)
    centers, _ = sample_poses(cfg, 30, seed=42)
    G = checked(build_inverse_jacobian(centers))
    err = np.abs(G.G_c_T @ checked(fd_oracles(cfg, centers)[0]).value).max(axis=(-2, -1))
    assert len(centers.coords) == 23 and err.max() > 1e-7
    worst = int(err.argmax())

    def error(h):
        return np.abs(G.G_c_T[worst] @ fd_at(cfg, centers.coords[worst], h=h)[0]).max()

    assert 3.0 <= error(2e-6) / error(1e-6) <= 5.0


def test_tangent_home_columns(reference):
    coords = (0.0, 150.0, 0.0, 0.0)
    T, _ = fd_at(reference, coords)
    # y-perturbation moves the platform along y only (x, phi_z stay locked)
    np.testing.assert_allclose(T[:, 0], [0, 1, 0, 0, 0, 0], atol=1e-7)
    np.testing.assert_allclose(T[:, 1], [0, 0, 1, 0, 0, 0], atol=1e-7)
    # columns independent
    assert singular_values(T[None])[0][-1] > 1e-6


def test_constraint_rows_annihilate_tangent(reference):
    for coords in random_coords(reference, 8, seed=41):
        T, _ = fd_at(reference, coords)
        G = row(checked(build_inverse_jacobian(resolve_pose(reference, *coords))))
        assert np.max(np.abs(G.G_c_T @ T)) < 1e-7


def test_actuation_fd_home_symmetry(reference):
    _, FD = fd_at(reference, (0.0, 150.0, 0.0, 0.0))
    # heave column: every limb rate equals the platform z rate
    np.testing.assert_allclose(FD[:, 1], np.ones(4), atol=1e-9)


def test_actuation_fd_matches_rows(reference):
    for coords in random_coords(reference, 15, seed=43):
        T, FD = fd_at(reference, coords)
        G = row(checked(build_inverse_jacobian(resolve_pose(reference, *coords))))
        err = np.max(np.abs(G.G_a_T @ T - FD)) / np.max(np.abs(FD))
        assert err < 1e-5


def test_fd_error_second_order_in_step(reference):
    # central differences: halving h divides the error by about four
    coords = (0.0, 150.0, math.radians(30.0), math.radians(35.0))
    G = row(checked(build_inverse_jacobian(resolve_pose(reference, *coords))))
    T_ref, _ = fd_at(reference, coords, h=1e-7)
    analytic = G.G_a_T @ T_ref
    hs = [2e-3, 1e-3, 5e-4]
    errs = [np.max(np.abs(fd_at(reference, coords, h=h)[1] - analytic)) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.7


def test_forward_refine_round_trip(reference):
    for coords in random_coords(reference, 6, seed=47):
        q = resolve_pose(reference, *coords).q[0]
        guess = (coords[0], coords[1] + 1.0, coords[2] + 0.01, coords[3] - 0.01)
        refined = one(forward_refine(reference, q[None], guess))
        q_back = resolve_pose(reference, *refined).q[0]
        np.testing.assert_allclose(q_back, q, atol=1e-8)
        np.testing.assert_allclose(refined, coords, atol=1e-8 * reference.base_radius)


def test_forward_refine_unreachable_target(reference):
    with pytest.raises(NoForwardSolution):
        one(forward_refine(reference, np.array([[1e5, -1e5, 1e5, -1e5]]),
                           (0.0, 150.0, 0.0, 0.0)))


CERTIFY_LAYOUTS = {"reference": lambda: load_config(REFERENCE_CONFIG), "square": square_config,
                   "offset": offset_prs_config}


@given(layout=st.sampled_from(sorted(CERTIFY_LAYOUTS)), unit=st.sampled_from(["mm", "m"]),
       pose=st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
                      st.floats(-1.0, 1.0)))
@settings(max_examples=60, deadline=None)
def test_refined_targets_are_certified_by_their_own_resolution(layout, unit, pose):
    # every step solves against the Jacobian at the first iterate, so nothing but the
    # convergence test vouches for a refined pose: each accepted one of the brute force's
    # targets q +/- h_q e_j, refined from its center, resolves again at envelope + 5 deg to
    # IK within REFINE_TOL * r_b of its target, at the anchor points that came with it
    cfg = CERTIFY_LAYOUTS[layout]().in_unit(unit)
    size = cfg.base_radius / 450.0
    y, z, theta, psi = pose
    lim = math.radians(cfg.envelope_deg)
    center = resolve_many(cfg, [(100.0 * size * y, (100.0 + 100.0 * z) * size, lim * theta,
                                 lim * psi)])
    assume(center.status.ok[0])
    h_q = BRUTE_FORCE_STEP * cfg.base_radius
    targets = np.concatenate([center.q + h_q * np.eye(4), center.q - h_q * np.eye(4)])
    refined = forward_refine(cfg, targets, center.coords[0])
    ok = refined.status.ok
    again = checked(resolve_many(cfg, refined.value[ok], cfg.envelope_deg + 5.0))
    assert (np.abs(again.q - targets[ok]).max(axis=1) < REFINE_TOL * cfg.base_radius).all()
    assert again.B.tobytes() == refined.B[ok].tobytes()


def test_brute_force_dhj_matches_assembled(reference):
    for coords in random_coords(reference, 6, seed=53):
        rec = dexterity_at(reference, *coords)
        BF = bf_at(reference, coords)
        err = np.max(np.abs(BF - rec.J_dh)) / np.max(np.abs(rec.J_dh))
        assert err < 1e-5


def test_brute_force_dhj_metric_units(reference):
    metric = reference.scaled(0.001, unit="m")
    coords = (0.0, 0.150, math.radians(20.0), math.radians(-15.0))
    rec = dexterity_at(metric, *coords)
    BF = bf_at(metric, coords)
    assert np.max(np.abs(BF - rec.J_dh)) / np.max(np.abs(rec.J_dh)) < 1e-5


def test_oracle_and_analytic_blow_up_together():
    # the same-angle layout approaches its forward singularity as theta -> 0:
    # both condition numbers explode and stay within a factor of ten
    cfg = square_config()
    coords = (0.0, 150.0, 0.05, 0.2)
    rec = dexterity_at(cfg, *coords)
    BF = bf_at(cfg, coords)
    sv = singular_values(BF[None])[0]
    k_oracle = float(sv[0] / sv[-1])
    assert rec.k > 50.0
    assert k_oracle > 50.0
    assert 0.1 < rec.k / k_oracle < 10.0


def test_sample_poses_deterministic(reference):
    a, fa = sample_poses(reference, 20, seed=9)
    b, fb = sample_poses(reference, 20, seed=9)
    assert a.coords.tobytes() == b.coords.tobytes() and fa == fb
    assert a.coords.shape == (20, 4)  # whole Table-1 envelope is reachable


SCREEN_LAYOUTS = {
    "reference": lambda: None,
    "offset": offset_prs_config,
    "offset_wide": lambda: dataclasses.replace(offset_prs_config(), envelope_deg=80.0),
    "square_short_link": lambda: square_config(link_length=300.0),
    "square_unreachable": lambda: square_config(link_length=100.0),
}


@pytest.mark.parametrize("layout", sorted(SCREEN_LAYOUTS))
def test_sample_poses_equals_scalar_screen(reference, layout):
    # one stacked screen; refused poses keep resolve_pose's code, in order
    cfg = SCREEN_LAYOUTS[layout]() or reference
    centers, failures = sample_poses(cfg, 60, seed=13)
    feasible = [tuple(c) for c in centers.coords.tolist()]
    # the stack holds the feasible poses, in order, and refuses none
    assert (feasible, failures) == scalar_sample_poses(cfg, 60, seed=13)
    assert centers.coords.shape == (len(feasible), 4)
    assert centers.status.codes() == ["ok"] * len(feasible)
    codes = {code for _, code in failures}
    expected = {"reference": set(), "offset": set(), "offset_wide": {"no_convergence"},
                "square_short_link": {"unreachable"}, "square_unreachable": {"unreachable"}}
    assert codes == expected[layout]
    assert (len(feasible) == 0) == (layout == "square_unreachable")


def test_run_validation_reference(reference):
    report = run_validation(reference, seed=7, n_poses=12)
    assert report["all_passed"] is True
    assert report["poses_feasible"] == 12
    names = {c["name"] for c in report["checks"]}
    assert {"actuation_rows_vs_fd_ik", "constraint_rows_annihilate_tangent",
            "inversion_residual", "block_formula_vs_direct_inversion",
            "selection_annihilates_constrained_freedoms", "dhj_vs_brute_force",
            "cond_dhj_unit_invariance", "plan_equivalence_cond_dhj",
            "tsai_mobility_matches_limb_count"} <= names
    # adopted formula variants are documented with measured rejected errors
    variants = report["variants"]
    assert variants["actuation_rows"]["rejected_pus_normal_rows_max_rel_err"] > 1e-3
    assert variants["moment_block"]["rejected_u_x_a_max_rel_err"] > 1e-3
    assert "degenerate" in variants["opposite_pair_plan"]["status"]
    json.dumps(report)  # must be serializable as-is


def test_run_validation_evaluates_each_oracle_once_per_run(reference, monkeypatch):
    import dhjac.dhj
    import dhjac.verify

    calls = collections.Counter()
    rows = []

    def count(module, name):
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            if name == "resolve_many":
                rows[-1] += len(np.reshape(args[1], (-1, 4)))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for name in ("forward_refine", "resolve_pose", "resolve_many", "brute_force_dhj",
                 "_brute_force_dhj", "fd_oracles", "fd_rows", "sample_poses"):
        count(dhjac.verify, name)
    count(dhjac.dhj, "dexterity_at")
    count(dhjac.dhj, "resolve_pose")
    counts = []
    for n_poses in (6, 24):
        calls.clear()
        rows.append(0)
        report = run_validation(reference, seed=7, n_poses=n_poses)
        assert report["poses_feasible"] == n_poses and report["all_passed"] is True
        counts.append(dict(calls))
    # each oracle and each judged chain runs once over the stack of all poses, so the
    # calls do not grow with the pose count; one pose at a time made 2 + 7 n
    # resolve_many and 1.5 n resolve_pose calls
    assert counts[0] == counts[1]
    assert counts[0]["forward_refine"] == counts[0]["_brute_force_dhj"] == 1
    assert counts[0]["fd_oracles"] == counts[0]["sample_poses"] == 1
    # the central-difference rows are resolved once, for the FD oracles and the brute
    # force's first Newton step
    assert counts[0]["fd_rows"] == 1
    # the oracles take the poses that run_validation resolved; the one-pose form resolves again
    assert "brute_force_dhj" not in counts[0]
    assert "resolve_pose" not in counts[0] and "dexterity_at" not in counts[0]
    # the feasible poses are rows of the stack that sorted the sampled ones: the sampled
    # poses, their central-difference rows, the poses in meters, and the brute force's two
    # Newton iterations after its first step, which reuse the centers' Jacobians
    assert counts[0]["resolve_many"] == 5
    # resolving every row of every Newton iteration made 237 rows per pose (1,422 and
    # 5,688 here) in 10 calls; differencing the forward Jacobian again at every iterate
    # made 90 in 6; now each pose costs 1 + 8 + 1 rows, and 8 per brute-force iteration
    assert rows == [26 * 6, 26 * 24]


def test_brute_force_targets_that_fail_cost_their_iterates_only(square, monkeypatch):
    # on the square layout, whose forward Jacobian is singular at theta = 0, the first
    # target to fail keeps no_forward_solution at the pose of the golden report; every
    # Newton iteration is one resolve_many call over the iterates that are left, and none
    # resolves perturbed poses, also for the targets that never converge
    import dhjac.verify

    rows = []

    def counted(cfg, coords, *args):
        rows.append(len(np.reshape(coords, (-1, 4))))
        return resolve_many(cfg, coords, *args)

    monkeypatch.setattr(dhjac.verify, "resolve_many", counted)
    stops = {11: (0, 0), 17: (4, 5), 26: (3, 4)}  # seed -> (poses tested, never converge)
    for seed, (tested, stuck) in stops.items():
        rows.clear()
        report = run_validation(square, seed=seed, n_poses=10)
        check = next(c for c in report["checks"] if c["name"] == "dhj_vs_brute_force")
        assert check["note"].startswith("no_forward_solution at")
        assert check["poses_tested"] == tested
        # the sampled poses, their central-difference rows, the poses in meters
        assert rows[:3] == [10, 80, 10]
        refine = rows[3:]
        assert refine[0] == 8 * 10 and refine == sorted(refine, reverse=True)
        if stuck:  # the last iterations resolve the iterates of those targets alone
            assert len(refine) == REFINE_MAX_ITER and refine[-1] == stuck
        else:  # the 8 targets of the pose next to theta = 0 leave the workspace
            assert refine == [80, 80, 72, 22]


def test_brute_force_dhj_one_pose_form(reference):
    # the correctness checks of the benchmark harness (perfbench/workloads.py) call this form
    coords = (0.0, 150.0, 0.3, -0.2)
    BF = brute_force_dhj(reference, coords)
    assert type(BF) is np.ndarray and BF.shape == (4, 4)
    stacked = _brute_force_dhj(reference, resolve_many(reference, [coords]))
    assert BF.tobytes() == checked(stacked).value[0].tobytes()
    far = (1e3, 150.0, 0.0, 0.0)
    with pytest.raises(Unreachable) as info:
        brute_force_dhj(reference, far)
    refused = _brute_force_dhj(reference, resolve_many(reference, [far]))
    assert str(info.value) == str(refused.status.error(0))


def test_brute_force_resolves_the_rows_of_ok_centers_only(reference, monkeypatch):
    import dhjac.verify

    resolved = []

    def counted(cfg, coords, *args):
        resolved.append(len(np.reshape(coords, (-1, 4))))
        return resolve_many(cfg, coords, *args)

    monkeypatch.setattr(dhjac.verify, "resolve_many", counted)
    # a center refused at resolution, and one refused by its selection matrix: one
    # resolve_many call each, for the center alone, and none for its 8 rows
    far = (1e3, 150.0, 0.0, 0.0)
    with pytest.raises(Unreachable):
        brute_force_dhj(reference, far)
    with pytest.raises(DegeneratePair):
        brute_force_dhj(reference, (0.0, 150.0, math.radians(10.0), math.radians(5.0)),
                        OPPOSITE_PLAN)
    assert resolved == [1, 1]
    # in a stack, the refused center's rows are left out, and the others' values equal,
    # bit for bit, those from the rows of every center
    coords = [(0.0, 150.0, 0.3, -0.2), far, (0.0, 160.0, -0.1, 0.2)]
    centers = resolve_many(reference, coords)
    resolved.clear()
    own = _brute_force_dhj(reference, centers)
    assert resolved[0] == 2 * 8
    given = _brute_force_dhj(reference, centers, rows=fd_rows(reference, centers))
    assert own.status.codes() == given.status.codes() == ["ok", "unreachable", "ok"]
    assert own.value.tobytes() == given.value.tobytes()


def test_run_validation_deterministic(reference):
    a = run_validation(reference, seed=5, n_poses=6)
    b = run_validation(reference, seed=5, n_poses=6)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_validation_unreachable_geometry():
    report = run_validation(square_config(link_length=100.0), seed=3, n_poses=5)
    assert report["all_passed"] is False
    assert report["poses_feasible"] == 0
    assert report["pose_failures"]
    assert all(f["code"] == "unreachable" for f in report["pose_failures"])
