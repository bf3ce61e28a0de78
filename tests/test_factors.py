import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maploc.errors import (
    NonMonotonicTimestamps,
    WindowTooShort,
    ZeroAcceleration,
)
from maploc.factors import (
    STATE_DIM,
    BiasPriorFactor,
    BiasWalkFactor,
    GravityFactor,
    ImuFactor,
    ImuSample,
    MapFactor,
    OdometryFactor,
    PriorFactor,
    StateNode,
    States,
    ZeroVelocityFactor,
    ZuptParams,
    detect_zupt,
    preintegrate,
    retract_state,
)
from maploc.geometry import (
    Pose,
    between,
    compose,
    exp_map,
    inverse,
    log_map,
    matvec,
    se3_log,
    so3_exp,
    so3_log,
)

from conftest import random_pose
from oracles import preintegration_covariance, row_deleting_map_factor

G_MAG = 9.81
DOWN = np.array([0.0, 0.0, -1.0])


def random_state(rng, t=0.0, rot_scale=0.8):
    return StateNode(random_pose(rng, rot_scale=rot_scale, trans_scale=2.0),
                     rng.normal(size=3),
                     np.concatenate([0.1 * rng.normal(size=3),
                                     0.05 * rng.normal(size=3)]),
                     t)


def make_window(times, gyro, accel):
    gyro = np.broadcast_to(np.asarray(gyro, dtype=float), (len(times), 3))
    accel = np.broadcast_to(np.asarray(accel, dtype=float), (len(times), 3))
    return [ImuSample(t, w, a) for t, w, a in zip(times, gyro, accel)]


def random_window(rng, duration=0.25, rate=200.0):
    n = int(duration * rate) + 1
    times = np.arange(n) / rate
    return [ImuSample(t,
                      np.array([0.4, -0.3, 0.5]) + 0.2 * rng.normal(size=3),
                      np.array([0.3, -0.2, 9.8]) + 0.5 * rng.normal(size=3))
            for t in times]


def pose_states(*poses):
    return States.of([StateNode.at(p, 0.0) for p in poses])


# ---------------------------------------------------------------------------
# factor residuals

class TestResidualFunctions:
    def test_odometry_error_zero_when_consistent(self, rng):
        a = random_pose(rng)
        rel = random_pose(rng)
        b = compose(a, rel)
        r = OdometryFactor(0, 1, rel, np.eye(6)).residual(pose_states(a, b), DOWN)
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_odometry_error_matches_group_definition(self, rng):
        for _ in range(20):
            a, b, z = (random_pose(rng) for _ in range(3))
            r = OdometryFactor(0, 1, z, np.eye(6)).residual(pose_states(a, b),
                                                            DOWN)
            # definition: exp(r) must reproduce the error transform exactly
            err = compose(inverse(z), between(a, b))
            assert np.allclose(exp_map(r).matrix(), err.matrix(), atol=1e-10)

    def test_no_motion_error(self, rng):
        factor = OdometryFactor(0, 1, Pose.identity(), np.eye(6))
        p = random_pose(rng)
        assert np.allclose(factor.residual(pose_states(p, p), DOWN), 0.0,
                           atol=1e-12)
        q = compose(p, exp_map(np.array([0, 0, 0, 0.1, 0, 0])))
        r = factor.residual(pose_states(p, q), DOWN)
        assert np.allclose(r, [0, 0, 0, 0.1, 0, 0], atol=1e-12)
        # composing with the identity is exact: the residual is the log of
        # between(p, q) as the factor forms it, R_p^T R_q and R_p^T (t_q - t_p)
        rt = np.ascontiguousarray(p.rotation.T)
        assert np.array_equal(r, se3_log(
            rt @ q.rotation, matvec(rt, q.translation - p.translation)))

    def test_zero_velocity_error(self):
        state = StateNode.at(Pose.identity(), 0.0, velocity=[0.1, -0.2, 0.3])
        r = ZeroVelocityFactor(0, np.eye(3)).residual(States.of([state]), DOWN)
        assert np.allclose(r, [0.1, -0.2, 0.3])

    def map_factor_at(self, rng, offset, mask):
        """A map factor with a random SPD weight and a state offset from its
        map pose by the translation `offset`, composed on the right."""
        map_pose = random_pose(rng)
        a = rng.normal(size=(6, 6))
        factor = MapFactor(0, map_pose, a @ a.T + np.eye(6), mask=mask)
        pose = compose(map_pose, Pose(np.eye(3), np.asarray(offset, float)))
        state = StateNode.at(pose, 0.0)
        r = factor.residual(States.of([state]), DOWN)
        return factor, r, float(r @ factor.information @ r)

    def test_map_error_masked_axis_offset_vanishes(self, rng):
        _, r, cost = self.map_factor_at(rng, [0.0, 0.0, 0.3], mask=(2,))
        assert r.shape == (6,)
        assert np.allclose(r, [0, 0, 0, 0, 0, 0.3], atol=1e-12)
        assert abs(cost) < 1e-12

    def test_map_error_unmasked_axes_survive(self, rng):
        f, r, cost = self.map_factor_at(rng, [0.0, 0.2, 0.3], mask=(2,))
        assert abs(r[4] - 0.2) < 1e-12  # y row survives
        # the y offset keeps its weight; the masked z offset adds nothing
        assert cost == pytest.approx(0.04 * f.information[4, 4], rel=1e-9)
        assert cost > 0.0

    def test_map_error_no_mask_is_full_log(self, rng):
        pose, map_pose = random_pose(rng), random_pose(rng)
        f = MapFactor(0, map_pose, np.eye(6))
        full = f.residual(States.of([StateNode.at(pose, 0.0)]), DOWN)
        assert full.shape == (6,)
        assert np.allclose(exp_map(full).matrix(),
                           between(map_pose, pose).matrix(), atol=1e-10)
        assert np.array_equal(f.information, np.eye(6))

    def test_map_error_double_mask(self, rng):
        pose, map_pose = random_pose(rng), random_pose(rng)
        a = rng.normal(size=(6, 6))
        info = a @ a.T
        f = MapFactor(0, map_pose, info, mask=(0, 2))
        full = f.residual(States.of([StateNode.at(pose, 0.0)]), DOWN)
        keep = [0, 1, 2, 4]
        assert float(full @ f.information @ full) == pytest.approx(
            float(full[keep] @ info[np.ix_(keep, keep)] @ full[keep]),
            rel=1e-12)
        assert f.mask == (0, 2)
        assert not f.information[[3, 5]].any()
        assert not f.information[:, [3, 5]].any()

    @staticmethod
    def gravity_error(rotation, gravity, a_mean):
        state = StateNode.at(Pose(rotation, np.zeros(3)), 0.0)
        return GravityFactor(0, a_mean, np.eye(3)).residual(
            States.of([state]), gravity)

    def test_gravity_error_level_case(self):
        r = self.gravity_error(np.eye(3), DOWN, np.array([0.0, 0.0, 9.81]))
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_gravity_error_quarter_roll(self):
        # tilted body: 90 deg about x maps the measured direction back to +z
        rot = so3_exp(np.array([-math.pi / 2, 0.0, 0.0]))
        r = self.gravity_error(rot, DOWN, np.array([0.0, -1.0, 0.0]))
        assert np.allclose(r, 0.0, atol=1e-12)

    def test_gravity_error_rejects_small_accel(self):
        with pytest.raises(ZeroAcceleration):
            GravityFactor(0, [0.0, 0.0, 0.4], np.eye(3))

    def test_retract_state_zero_is_identity(self, rng):
        s = random_state(rng)
        [s2] = retract_state(States.of([s]), np.zeros((1, STATE_DIM)))
        assert np.allclose(s2.pose.matrix(), s.pose.matrix(), atol=1e-12)
        assert np.allclose(s2.velocity, s.velocity)

    def test_retract_state_slots(self, rng):
        s = random_state(rng)
        delta = np.zeros((1, STATE_DIM))
        delta[0, 6:9] = [1.0, 2.0, 3.0]
        delta[0, 9:12] = [0.1, 0.0, 0.0]
        delta[0, 12:15] = [0.0, 0.2, 0.0]
        [s2] = retract_state(States.of([s]), delta)
        assert np.allclose(s2.velocity, s.velocity + [1, 2, 3])
        assert np.allclose(s2.bias, s.bias + [0.1, 0, 0, 0, 0.2, 0])
        assert np.allclose(s2.pose.matrix(), s.pose.matrix(), atol=1e-12)

    def test_retract_state_rows_are_independent(self, rng):
        """One batched step moves each state by its own row of delta, as
        exp_map(delta[:6]) * pose plus the velocity and bias slots."""
        nodes = [random_state(rng, t=0.1 * k) for k in range(4)]
        delta = 0.3 * rng.normal(size=(4, STATE_DIM))
        for node, row, got in zip(nodes, delta,
                                  retract_state(States.of(nodes), delta)):
            np.testing.assert_allclose(
                got.pose.matrix(),
                compose(exp_map(row[:6]), node.pose).matrix(), atol=1e-14)
            np.testing.assert_allclose(got.velocity, node.velocity + row[6:9],
                                       atol=1e-15)
            np.testing.assert_allclose(got.bias, node.bias + row[9:],
                                       atol=1e-15)
            assert got.timestamp == node.timestamp


@pytest.mark.parametrize("make", [
    lambda bias: StateNode(Pose.identity(), np.zeros(3), bias, 0.0),
    lambda bias: BiasPriorFactor(0, bias, np.eye(6)),
    lambda bias: preintegrate(make_window([0.0, 0.1], [0, 0, 0], [0, 0, 9.81]),
                              bias),
], ids=["StateNode", "BiasPriorFactor", "preintegrate"])
def test_three_vector_bias_is_refused(make):
    """The bias is one [b_a; b_g] 6-vector; a 3-vector left from the split
    accel/gyro signature is refused, naming it."""
    with pytest.raises(ValueError, match="bias must be a 6-vector"):
        make(np.zeros(3))


def test_preintegrate_sigmas_are_keyword_only():
    samples = make_window([0.0, 0.1], [0, 0, 0], [0, 0, 9.81])
    with pytest.raises(TypeError):
        preintegrate(samples, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# ZUPT detection

class TestZupt:
    def test_stationary_window_fires(self):
        rng = np.random.default_rng(7)
        times = np.arange(61) / 100.0
        samples = [ImuSample(t,
                             rng.normal(scale=0.005, size=3),
                             np.array([0, 0, 9.81]) + rng.normal(scale=0.01, size=3))
                   for t in times]
        assert detect_zupt(samples) is True

    def test_stationary_monte_carlo(self):
        times = np.arange(61) / 100.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            samples = [ImuSample(t,
                                 rng.normal(scale=0.004, size=3),
                                 np.array([0, 0, 9.81]) + rng.normal(scale=0.01, size=3))
                       for t in times]
            assert detect_zupt(samples) is True, f"seed {seed}"

    def test_rotating_window_rejected(self):
        times = np.arange(61) / 100.0
        samples = make_window(times, [0.0, 0.0, 0.5], [0.0, 0.0, 9.81])
        assert detect_zupt(samples) is False

    def test_shaking_window_rejected(self):
        times = np.arange(61) / 100.0
        accel = np.zeros((len(times), 3))
        accel[:, 2] = 9.81 + 0.5 * np.sin(20 * times)
        samples = [ImuSample(t, np.zeros(3), a) for t, a in zip(times, accel)]
        assert detect_zupt(samples) is False

    def test_short_window_raises(self):
        times = np.arange(30) / 100.0  # 0.29 s
        samples = make_window(times, [0, 0, 0], [0, 0, 9.81])
        with pytest.raises(WindowTooShort):
            detect_zupt(samples)

    def test_non_monotonic_raises(self):
        samples = make_window([0.0, 0.6, 0.3], [0, 0, 0], [0, 0, 9.81])
        with pytest.raises(NonMonotonicTimestamps):
            detect_zupt(samples)

    def test_custom_params(self):
        times = np.arange(31) / 100.0
        samples = make_window(times, [0, 0, 0], [0, 0, 9.81])
        assert detect_zupt(samples, ZuptParams(min_duration=0.2)) is True


# ---------------------------------------------------------------------------
# preintegration

class TestPreintegrate:
    def test_stationary_deltas_are_identity(self):
        # at rest the accelerometer reads -g; the deltas integrate that
        # specific force alone: v = a T, p = a T^2 / 2
        times = np.arange(101) / 100.0
        a = np.array([0, 0, 9.81])
        samples = make_window(times, [0, 0, 0], a)
        pre = preintegrate(samples, np.zeros(6))
        assert np.allclose(pre.delta_rotation, np.eye(3), atol=1e-12)
        assert np.allclose(pre.delta_velocity, a * 1.0, atol=1e-12)
        assert np.allclose(pre.delta_position, 0.5 * a * 1.0 ** 2, atol=1e-12)
        assert abs(pre.duration - 1.0) < 1e-12

    def test_constant_acceleration_kinematics(self):
        # 1 m/s^2 along x for 1 s from rest: v = a t, p = a t^2 / 2
        times = np.linspace(0.0, 1.0, 101)
        samples = make_window(times, [0, 0, 0], [1.0, 0, 0])
        pre = preintegrate(samples, np.zeros(6))
        assert np.allclose(pre.delta_velocity, [1.0, 0, 0], atol=1e-12)
        assert np.allclose(pre.delta_position, [0.5, 0, 0], atol=1e-12)
        assert np.allclose(pre.delta_rotation, np.eye(3), atol=1e-12)

    def test_pure_rotation_half_turn(self):
        times = np.linspace(0.0, math.pi, 301)
        samples = make_window(times, [0, 0, 1.0], [0, 0, 0])
        pre = preintegrate(samples, np.zeros(6))
        assert np.allclose(so3_log(pre.delta_rotation), [0, 0, math.pi], atol=1e-9)

    def test_bias_subtraction(self):
        ba = np.array([0.05, -0.02, 0.01])
        bg = np.array([0.002, 0.001, -0.003])
        times = np.arange(51) / 100.0
        a = np.array([0, 0, 9.81])
        samples = make_window(times, bg, ba + a)
        pre = preintegrate(samples, np.concatenate([ba, bg]))
        assert np.allclose(pre.delta_rotation, np.eye(3), atol=1e-12)
        assert np.allclose(pre.delta_velocity, a * 0.5, atol=1e-12)
        assert np.allclose(pre.delta_position, 0.5 * a * 0.5 ** 2, atol=1e-12)

    def test_requires_two_samples(self):
        with pytest.raises(WindowTooShort):
            preintegrate([ImuSample(0.0, np.zeros(3), np.zeros(3))],
                         np.zeros(6))

    def test_non_monotonic_raises(self):
        samples = make_window([0.0, 0.2, 0.1], [0, 0, 0], [0, 0, 0])
        with pytest.raises(NonMonotonicTimestamps):
            preintegrate(samples, np.zeros(6))

    def test_bias_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(11)
        window = random_window(rng)
        ba = np.array([0.03, -0.01, 0.02])
        bg = np.array([0.004, 0.002, -0.001])
        jac = preintegrate(window, np.concatenate([ba, bg])).bias_jacobian
        eps = 1e-5

        def deltas(ba_, bg_):
            p = preintegrate(window, np.concatenate([ba_, bg_]))
            return p.delta_rotation, p.delta_velocity, p.delta_position

        for c in range(3):
            step = np.zeros(3)
            step[c] = eps
            rp, vp, pp = deltas(ba + step, bg)
            rm, vm, pm = deltas(ba - step, bg)
            assert np.allclose((vp - vm) / (2 * eps), jac[3:6, c], atol=1e-6)
            assert np.allclose((pp - pm) / (2 * eps), jac[6:9, c], atol=1e-6)
            assert np.allclose(so3_log(rp.T @ rm), 0.0, atol=1e-12)  # rot ignores b_a
            assert np.all(jac[0:3, c] == 0.0)

            rp, vp, pp = deltas(ba, bg + step)
            rm, vm, pm = deltas(ba, bg - step)
            rot = deltas(ba, bg)[0]
            fd_rot = (so3_log(rot.T @ rp) - so3_log(rot.T @ rm)) / (2 * eps)
            assert np.allclose(fd_rot, jac[0:3, 3 + c], atol=1e-6)
            assert np.allclose((vp - vm) / (2 * eps), jac[3:6, 3 + c], atol=1e-6)
            assert np.allclose((pp - pm) / (2 * eps), jac[6:9, 3 + c], atol=1e-6)

    def test_bias_update_first_order_consistency(self):
        # re-integrating at a shifted bias matches the Jacobian correction
        # to second order in the shift
        for seed in range(10):
            rng = np.random.default_rng(seed)
            window = random_window(rng, duration=0.5)
            ba = 0.05 * rng.normal(size=3)
            bg = 0.01 * rng.normal(size=3)
            pre = preintegrate(window, np.concatenate([ba, bg]))
            da = 1e-3 * rng.normal(size=3)
            dg = 1e-3 * rng.normal(size=3)
            re = preintegrate(window, np.concatenate([ba + da, bg + dg]))
            jac = pre.bias_jacobian
            rot_corr = pre.delta_rotation @ so3_exp(jac[0:3, 3:6] @ dg)
            assert np.linalg.norm(so3_log(rot_corr.T @ re.delta_rotation)) < 1e-5
            vel_corr = (pre.delta_velocity + jac[3:6, 0:3] @ da
                        + jac[3:6, 3:6] @ dg)
            assert np.linalg.norm(vel_corr - re.delta_velocity) < 1e-5
            pos_corr = (pre.delta_position + jac[6:9, 0:3] @ da
                        + jac[6:9, 3:6] @ dg)
            assert np.linalg.norm(pos_corr - re.delta_position) < 1e-5

    def test_covariance_properties(self):
        rng = np.random.default_rng(5)
        window = random_window(rng, duration=0.5)
        pre = preintegrate(window, np.zeros(6))
        cov = pre.covariance
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-18
        assert cov.trace() > 0
        # longer windows accumulate more uncertainty
        half = preintegrate(window[:len(window) // 2], np.zeros(6))
        assert half.covariance.trace() < cov.trace()

    def test_covariance_matches_noise_oracle(self):
        # per-interval white noise on the specific force and the midpoint
        # rate, differenced through the integrator itself; each entry is
        # compared at the scale sqrt(cov_ii cov_jj) of its row and column
        for seed in range(5):
            rng = np.random.default_rng(seed)
            window = random_window(rng, duration=0.1)  # 21 samples
            ba = 0.05 * rng.normal(size=3)
            bg = 0.01 * rng.normal(size=3)
            cov = preintegrate(window, np.concatenate([ba, bg]),
                               sigma_gyro=1e-3, sigma_accel=1e-2).covariance
            ref = preintegration_covariance(window, ba, bg, 1e-2, 1e-3)
            scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
            assert (np.abs(cov - ref) / scale).max() < 1e-6

    def test_zero_noise_zero_covariance(self):
        rng = np.random.default_rng(5)
        window = random_window(rng)
        pre = preintegrate(window, np.zeros(6),
                           sigma_gyro=0.0, sigma_accel=0.0)
        assert np.allclose(pre.covariance, 0.0)


# ---------------------------------------------------------------------------
# factor Jacobians against central finite differences

def fd_blocks(factor, states, gravity, eps=1e-6):
    """Central differences of the residual, by state index and for
    gravity's 3 ambient coordinates."""
    r0 = factor.residual(states, gravity)
    blocks = {}
    for idx in factor.indices:
        jac = np.zeros((len(r0), STATE_DIM))
        for c in range(STATE_DIM):
            delta = np.zeros((len(states), STATE_DIM))
            delta[idx, c] = eps
            plus = retract_state(states, delta)
            minus = retract_state(states, -delta)
            jac[:, c] = (factor.residual(plus, gravity)
                         - factor.residual(minus, gravity)) / (2 * eps)
        blocks[idx] = jac
    grav = np.zeros((len(r0), 3))
    for c in range(3):
        delta = np.zeros(3)
        delta[c] = eps
        grav[:, c] = (factor.residual(states, gravity + delta)
                      - factor.residual(states, gravity - delta)) / (2 * eps)
    return blocks, grav


def check_factor_jacobians(factor, states, gravity, tol=2e-5):
    states = States.of(states)
    r, blocks, g_block = factor.linearize(states, gravity)
    blocks = dict(zip(factor.indices, blocks))
    assert np.allclose(r, factor.residual(states, gravity), atol=1e-12)
    fd, fd_grav = fd_blocks(factor, states, gravity)
    for idx in factor.indices:
        scale = max(1.0, np.abs(blocks[idx]).max())
        assert np.allclose(blocks[idx], fd[idx], atol=tol * scale), \
            f"{factor.kind}: state {idx} Jacobian mismatch"
    analytic_grav = g_block if g_block is not None else np.zeros((len(r), 3))
    scale = max(1.0, np.abs(analytic_grav).max())
    assert np.allclose(analytic_grav, fd_grav, atol=tol * scale), \
        f"{factor.kind}: gravity Jacobian mismatch"


class TestFactorJacobians:
    def test_prior_factor(self, rng):
        for _ in range(10):
            states = [random_state(rng)]
            f = PriorFactor(0, random_pose(rng), np.eye(6))
            check_factor_jacobians(f, states, DOWN.copy())

    def test_odometry_factor(self, rng):
        for _ in range(10):
            states = [random_state(rng), random_state(rng, t=0.1)]
            f = OdometryFactor(0, 1, random_pose(rng), np.eye(6))
            check_factor_jacobians(f, states, DOWN.copy())

    def test_no_motion_factor(self, rng):
        for _ in range(10):
            states = [random_state(rng), random_state(rng, t=0.1)]
            f = OdometryFactor(0, 1, Pose.identity(), np.eye(6))
            check_factor_jacobians(f, states, DOWN.copy())

    def test_map_factor_all_masks(self, rng):
        for mask in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            states = [random_state(rng)]
            f = MapFactor(0, random_pose(rng), np.eye(6), mask=mask)
            check_factor_jacobians(f, states, DOWN.copy())

    def test_gravity_factor(self, rng):
        for _ in range(10):
            states = [random_state(rng)]
            a_mean = rng.normal(size=3)
            a_mean = a_mean / np.linalg.norm(a_mean) * rng.uniform(8.0, 11.0)
            gravity = DOWN + 0.05 * rng.normal(size=3)
            f = GravityFactor(0, a_mean, np.eye(3))
            check_factor_jacobians(f, [states[0]], gravity)

    def test_zero_velocity_factor(self, rng):
        states = [random_state(rng)]
        f = ZeroVelocityFactor(0, np.eye(3))
        check_factor_jacobians(f, states, DOWN.copy())

    def test_bias_walk_factor(self, rng):
        states = [random_state(rng), random_state(rng, t=0.1)]
        f = BiasWalkFactor(0, 1, np.eye(6))
        check_factor_jacobians(f, states, DOWN.copy())

    def test_bias_prior_factor(self, rng):
        state = random_state(rng)
        ba = 0.1 * rng.normal(size=3)
        bg = 0.01 * rng.normal(size=3)
        f = BiasPriorFactor(0, np.concatenate([ba, bg]), np.eye(6))
        expected = np.concatenate([state.bias[:3] - ba, state.bias[3:] - bg])
        assert np.allclose(f.residual(States.of([state]), DOWN), expected)
        check_factor_jacobians(f, [state], DOWN.copy())

    def test_imu_factor(self, rng):
        for _ in range(10):
            window = random_window(rng)
            pre = preintegrate(window,
                               np.concatenate([0.05 * rng.normal(size=3),
                                               0.01 * rng.normal(size=3)]))
            states = [random_state(rng), random_state(rng, t=pre.duration)]
            gravity = DOWN + 0.05 * rng.normal(size=3)
            f = ImuFactor(0, 1, pre, np.eye(9), gravity_magnitude=G_MAG)
            check_factor_jacobians(f, states, gravity, tol=5e-5)

    def test_information_must_be_symmetric(self, rng):
        bad = np.eye(6)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            OdometryFactor(0, 1, random_pose(rng), bad)

    def test_map_factor_masked_information(self, rng):
        info = rng.normal(size=(6, 6))
        info = info @ info.T
        f = MapFactor(0, random_pose(rng), info, mask=(1,))
        assert f.information.shape == (6, 6)
        assert not f.information[4].any() and not f.information[:, 4].any()
        kept = np.delete(np.delete(f.information, 4, axis=0), 4, axis=1)
        expected = np.delete(np.delete(info, 4, axis=0), 4, axis=1)
        assert np.array_equal(kept, expected)
        assert not f.information.flags.writeable


# ---------------------------------------------------------------------------
# a stack of factors against the same factors one at a time

def random_information(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + np.eye(dim)


def random_factor(kind, rng, n_states):
    """A factor of the given kind on random states among n_states, the
    pair ones on consecutive states."""
    k = int(rng.integers(n_states - 1))
    if kind == "prior":
        return PriorFactor(k, random_pose(rng), random_information(rng, 6))
    if kind == "odometry":
        return OdometryFactor(k, k + 1, random_pose(rng),
                              random_information(rng, 6))
    if kind == "map":
        mask = tuple(np.flatnonzero(rng.random(3) < 0.3))
        return MapFactor(k, random_pose(rng), random_information(rng, 6),
                         mask=mask)
    if kind == "gravity":
        return GravityFactor(k, rng.normal(size=3) + [0.0, 0.0, 9.5],
                             random_information(rng, 3))
    if kind == "zero_velocity":
        return ZeroVelocityFactor(k, random_information(rng, 3))
    if kind == "bias_walk":
        return BiasWalkFactor(k, k + 1, random_information(rng, 6))
    if kind == "bias_prior":
        return BiasPriorFactor(k, 0.1 * rng.normal(size=6),
                               random_information(rng, 6))
    pre = preintegrate(random_window(rng), 0.05 * rng.normal(size=6))
    return ImuFactor(k, k + 1, pre, random_information(rng, 9),
                     gravity_magnitude=G_MAG)


FACTOR_KINDS = ("prior", "odometry", "map", "gravity", "zero_velocity",
                "bias_walk", "bias_prior", "imu")


@pytest.mark.parametrize("kind", FACTOR_KINDS)
def test_stack_matches_single_factors(kind):
    """One batched residual and linearize over F = 5 stacked factors give,
    row for row, what the 5 factors give one at a time, to 1e-14 of each
    array's scale."""
    rng = np.random.default_rng(23)
    states = States.of([random_state(rng, t=0.25 * k) for k in range(8)])
    gravity = DOWN + 0.05 * rng.normal(size=3)
    factors = [random_factor(kind, rng, len(states)) for _ in range(5)]
    stack = type(factors[0]).stack(factors)
    assert {f.kind for f in factors} == {stack.kind} == {kind}

    r, jacs, g_block = stack.linearize(states, gravity)
    assert np.array_equal(r, stack.residual(states, gravity))
    assert r.shape == (5, stack.dim)
    for idx, col in zip(stack.indices, zip(*[f.indices for f in factors])):
        assert np.array_equal(idx, col)

    def close(batched, single):
        np.testing.assert_allclose(
            batched, single, rtol=0.0,
            atol=1e-14 * max(1.0, np.abs(single).max()))

    for row, f in enumerate(factors):
        r_f, jacs_f, g_f = f.linearize(states, gravity)
        close(r[row], r_f)
        close(stack.residual(states, gravity)[row],
              f.residual(states, gravity))
        assert len(jacs) == len(jacs_f) == len(f.indices)
        for jac, jac_f in zip(jacs, jacs_f):
            assert jac.shape == (5,) + jac_f.shape
            close(jac[row], jac_f)
        assert (g_block is None) == (g_f is None)
        if g_f is not None:
            close(g_block[row], g_f)


# ---------------------------------------------------------------------------
# the weight-masked map factor against the row-deleting oracle

ALL_MASKS = [m for n in range(4) for m in itertools.combinations(range(3), n)]


@st.composite
def map_factor_cases(draw):
    """(pose, map pose, SPD information). The map pose has a rotation
    below 2.5 rad and translation coordinates within 5 m; the pose sits at a twist of
    norm 0.01 to 2.5 from it, so the residual is never round-off alone; the
    information is A A^T + I with A's entries in [-3, 3]."""
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)

    def direction(n):
        vec = np.array(draw(st.tuples(*[unit] * n)))
        norm = np.linalg.norm(vec)
        return vec / norm if norm > 1e-3 else np.eye(n)[-1]

    rot = direction(3) * draw(st.floats(0.0, 2.5))
    trans = 5.0 * np.array(draw(st.tuples(unit, unit, unit)))
    map_pose = exp_map(np.concatenate([rot, trans]))
    pose = compose(map_pose, exp_map(direction(6) * draw(st.floats(0.01, 2.5))))
    a = 3.0 * np.array(draw(st.lists(unit, min_size=36, max_size=36)))
    return pose, map_pose, a.reshape(6, 6) @ a.reshape(6, 6).T + np.eye(6)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(map_factor_cases())
def test_map_factor_weight_mask_matches_row_deletion(case):
    """Zeroing the masked rows and columns of the weight gives the cost and
    the J^T W J and J^T W r blocks of deleting the masked rows, for every
    mask, to 1e-12 relative to the unmasked |W| |J| |r| scale of each."""
    pose, map_pose, info = case
    state = StateNode.at(pose, 0.0)
    for mask in ALL_MASKS:
        f = MapFactor(0, map_pose, info, mask=mask)
        r, blocks, g_block = f.linearize(States.of([state]), DOWN)
        jac = blocks[0][:, :6]
        r_k, jac_k, info_k = row_deleting_map_factor(
            pose.matrix(), map_pose.matrix(), info, mask)
        assert r.shape == (6,) and g_block is None
        assert not blocks[0][:, 6:].any()
        w, j, e = (np.linalg.norm(m, 2) for m in (info, jac, r))
        for ours, oracle, scale in [
                (r @ f.information @ r, r_k @ info_k @ r_k, w * e * e),
                (jac.T @ f.information @ jac, jac_k.T @ info_k @ jac_k,
                 w * j * j),
                (jac.T @ f.information @ r, jac_k.T @ info_k @ r_k,
                 w * j * e)]:
            assert np.abs(ours - oracle).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# IMU factor consistency on analytic motion

class TestImuFactorConsistency:
    def test_stationary_zero_residual(self, rng):
        rot = random_pose(rng).rotation
        g_world = G_MAG * DOWN
        times = np.arange(51) / 100.0
        samples = make_window(times, [0, 0, 0], -rot.T @ g_world)
        pre = preintegrate(samples, np.zeros(6))
        pose = Pose(rot, np.array([1.0, -2.0, 0.5]))
        si = StateNode(pose, np.zeros(3), np.zeros(6), 0.0)
        sj = StateNode(pose, np.zeros(3), np.zeros(6), 0.5)
        f = ImuFactor(0, 1, pre, np.eye(9), gravity_magnitude=G_MAG)
        r = f.residual(States.of([si, sj]), DOWN)
        assert np.allclose(r, 0.0, atol=1e-9)

    def test_constant_acceleration_zero_residual(self, rng):
        # body frame fixed at rotation R, constant world acceleration
        rot = random_pose(rng, rot_scale=1.2).rotation
        a_world = np.array([0.8, -0.3, 0.2])
        g_world = G_MAG * DOWN
        duration = 0.5
        times = np.arange(101) / 200.0
        samples = make_window(times, [0, 0, 0], rot.T @ (a_world - g_world))
        pre = preintegrate(samples, np.zeros(6))
        t0 = np.array([1.0, 2.0, 3.0])
        v0 = np.array([0.5, 0.0, -0.2])
        tj = t0 + v0 * duration + 0.5 * a_world * duration ** 2
        vj = v0 + a_world * duration
        si = StateNode(Pose(rot, t0), v0, np.zeros(6), 0.0)
        sj = StateNode(Pose(rot, tj), vj, np.zeros(6), duration)
        f = ImuFactor(0, 1, pre, np.eye(9), gravity_magnitude=G_MAG)
        r = f.residual(States.of([si, sj]), DOWN)
        assert np.allclose(r, 0.0, atol=1e-9)

    def test_bias_correction_tracks_reintegration(self, rng):
        # residual with a shifted state bias ~ residual of a fresh
        # preintegration at that bias (first order)
        window = random_window(rng, duration=0.4)
        pre = preintegrate(window, np.zeros(6))
        states = [random_state(rng), random_state(rng, t=pre.duration)]
        da = 2e-3 * rng.normal(size=3)
        dg = 2e-3 * rng.normal(size=3)
        si = StateNode(states[0].pose, states[0].velocity,
                       np.concatenate([da, dg]), 0.0)
        shifted = States.of([si, states[1]])
        f_lin = ImuFactor(0, 1, pre, np.eye(9))
        pre_exact = preintegrate(window, np.concatenate([da, dg]))
        f_exact = ImuFactor(0, 1, pre_exact, np.eye(9))
        r_lin = f_lin.residual(shifted, DOWN)
        r_exact = f_exact.residual(shifted, DOWN)
        assert np.linalg.norm(r_lin - r_exact) < 1e-4
