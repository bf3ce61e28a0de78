"""Factor residuals and analytic Jacobians for the fusion graph.

Per-node state is [rotation; translation; velocity; bias] (15 tangent
dimensions), the bias being one 6-vector [b_a; b_g] of accelerometer and
gyroscope biases from the state through preintegration to every bias
residual. Gravity is a single shared unit direction on S^2, appended after
all nodes, whose Jacobian blocks here are in its 3 ambient coordinates.
Pose perturbations are left-applied, pose <- exp_map(xi) @ pose, so every
Jacobian here is taken with respect to that convention. Residual twist
ordering is [rot; trans] throughout. A no-motion constraint is an
OdometryFactor whose measurement is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonMonotonicTimestamps, WindowTooShort, ZeroAcceleration
from .geometry import (
    Pose,
    between,
    compose,
    exp_map,
    inverse,
    log_map,
    se3_adjoint,
    se3_left_jacobian_inv,
    skew,
    so3_exp,
    so3_log,
    so3_left_jacobian_inv,
    so3_right_jacobian,
)

# tangent-slot layout inside one node's 15 columns
ROT = slice(0, 3)
TRANS = slice(3, 6)
VEL = slice(6, 9)
BIAS = slice(9, 15)  # [b_a; b_g]
STATE_DIM = 15

# gravity factors refuse windows with basically no specific force
MIN_MEAN_ACCEL = 0.5

# per-sample IMU noise (rad/s, m/s^2) and the gravity magnitude (m/s^2)
SIGMA_GYRO = 1e-3
SIGMA_ACCEL = 1e-2
GRAVITY_MAGNITUDE = 9.81


def _vector(value, name, size=3):
    """A read-only float copy of value, of shape (size,), else ValueError."""
    vec = np.array(value, dtype=float)
    if vec.shape != (size,):
        raise ValueError(f"{name} must be a {size}-vector, got shape "
                         f"{vec.shape}")
    vec.flags.writeable = False
    return vec


@dataclass(frozen=True)
class StateNode:
    pose: Pose
    velocity: np.ndarray
    bias: np.ndarray  # (6,) [b_a; b_g]
    timestamp: float

    def __post_init__(self):
        object.__setattr__(self, "velocity", _vector(self.velocity, "velocity"))
        object.__setattr__(self, "bias", _vector(self.bias, "bias", 6))

    @staticmethod
    def at(pose: Pose, timestamp: float, velocity=(0.0, 0.0, 0.0)):
        return StateNode(pose, velocity, np.zeros(6), float(timestamp))


@dataclass(frozen=True)
class ImuSample:
    timestamp: float
    angular_velocity: np.ndarray  # rad/s, body frame
    specific_force: np.ndarray    # m/s^2, body frame

    def __post_init__(self):
        for name in ("angular_velocity", "specific_force"):
            object.__setattr__(self, name, _vector(getattr(self, name), name))


@dataclass(frozen=True)
class ZuptParams:
    min_duration: float = 0.5            # s
    accel_std_threshold: float = 0.05    # m/s^2, stddev of |a|
    gyro_mean_threshold: float = 0.02    # rad/s, mean of |w|
    max_odom_displacement: float = 0.05  # m, odometry stillness bound


def retract_state(state: StateNode, delta) -> StateNode:
    """Apply a 15-dim tangent step; shared by the optimizer and FD tests."""
    delta = np.asarray(delta, dtype=float)
    return StateNode(compose(exp_map(delta[:6]), state.pose),
                     state.velocity + delta[VEL], state.bias + delta[BIAS],
                     state.timestamp)


def detect_zupt(samples, params: ZuptParams = ZuptParams()) -> bool:
    """Stationarity test over an IMU window.

    True iff stddev(|a|) < accel_std_threshold and mean(|w|) <
    gyro_mean_threshold. The window must span at least min_duration.
    """
    if len(samples) < 2:
        raise WindowTooShort("need at least 2 samples")
    times = np.array([s.timestamp for s in samples])
    if np.any(np.diff(times) <= 0):
        raise NonMonotonicTimestamps("IMU window timestamps must increase")
    if times[-1] - times[0] < params.min_duration:
        raise WindowTooShort(
            f"window spans {times[-1] - times[0]:.3f} s < {params.min_duration} s")
    accel_norms = np.array([np.linalg.norm(s.specific_force) for s in samples])
    gyro_norms = np.array([np.linalg.norm(s.angular_velocity) for s in samples])
    return bool(accel_norms.std() < params.accel_std_threshold
                and gyro_norms.mean() < params.gyro_mean_threshold)


# ---------------------------------------------------------------------------
# preintegration

@dataclass(frozen=True)
class Preintegration:
    """Midpoint-integrated IMU deltas, expressed in the frame of state i.

    The deltas integrate specific force only and hold no gravity; the IMU
    factor applies gravity from the shared state variable. The bias
    Jacobian is the exact derivative of this integration scheme at the
    linearization biases, with the rotation error right-applied.
    """

    delta_rotation: np.ndarray  # (3,3)
    delta_velocity: np.ndarray  # (3,)
    delta_position: np.ndarray  # (3,)
    covariance: np.ndarray      # (9,9), [rot; vel; pos]
    duration: float
    bias: np.ndarray            # (6,) linearization point [b_a; b_g]
    bias_jacobian: np.ndarray   # (9,6), d[rot; vel; pos] / d[b_a; b_g]


def preintegrate(samples, bias, *, sigma_gyro=SIGMA_GYRO,
                 sigma_accel=SIGMA_ACCEL) -> Preintegration:
    """Midpoint preintegration of specific force over consecutive sample
    pairs, at the bias [b_a; b_g].

    Noise model: on each sample interval, white noise of standard deviation
    sigma_gyro on the midpoint rate and sigma_accel on the specific force
    (the same draw at both ends). It enters each step as the biases do, so
    one linearization of the step, e' = phi e + g_in [db_a; db_g] over the
    error [rot; vel; pos], carries both the bias Jacobian and the
    covariance.
    """
    if len(samples) < 2:
        raise WindowTooShort("need at least 2 IMU samples to preintegrate")
    times = np.array([s.timestamp for s in samples])
    if np.any(np.diff(times) <= 0):
        raise NonMonotonicTimestamps("IMU timestamps must strictly increase")
    bias = _vector(bias, "bias", 6)
    accel_bias, gyro_bias = bias[:3], bias[3:]
    noise = np.repeat([sigma_accel ** 2, sigma_gyro ** 2], 3)

    d_rot = np.eye(3)
    d_vel = np.zeros(3)
    d_pos = np.zeros(3)
    cov = np.zeros((9, 9))
    jac = np.zeros((9, 6))
    phi = np.eye(9)
    g_in = np.zeros((9, 6))

    for k in range(len(samples) - 1):
        s0, s1 = samples[k], samples[k + 1]
        dt = s1.timestamp - s0.timestamp
        w_mid = 0.5 * (s0.angular_velocity + s1.angular_velocity) - gyro_bias
        step = w_mid * dt
        r_step = so3_exp(step)
        d_rot_next = d_rot @ r_step
        u1 = s1.specific_force - accel_bias
        # a_mid = (d_rot u0 + d_rot_next u1) / 2 = d_rot u_sum / 2
        u_sum = s0.specific_force - accel_bias + r_step @ u1
        a_mid = 0.5 * d_rot @ u_sum

        # the step's error dynamics; the rotation error is right-applied
        jr_dt = so3_right_jacobian(step) * dt
        da_drot = -0.5 * d_rot @ skew(u_sum)
        phi[0:3, 0:3] = r_step.T
        phi[3:6, 0:3] = da_drot * dt
        phi[6:9, 0:3] = da_drot * (0.5 * dt * dt)
        phi[6:9, 3:6] = np.eye(3) * dt
        g_in[0:3, 3:6] = -jr_dt
        g_in[3:6, 0:3] = -0.5 * (d_rot + d_rot_next) * dt
        g_in[3:6, 3:6] = 0.5 * d_rot_next @ skew(u1) @ jr_dt * dt
        g_in[6:9] = g_in[3:6] * (0.5 * dt)
        jac = phi @ jac + g_in
        cov = phi @ cov @ phi.T + (g_in * noise) @ g_in.T

        d_pos = d_pos + d_vel * dt + 0.5 * a_mid * dt * dt
        d_vel = d_vel + a_mid * dt
        d_rot = d_rot_next

    return Preintegration(d_rot, d_vel, d_pos, 0.5 * (cov + cov.T),
                          float(times[-1] - times[0]), bias, jac)


# ---------------------------------------------------------------------------
# factor classes

def _pose_jacobian(r, reference_adjoint):
    """Jacobian of r = log(reference^-1 * pose) w.r.t. the state's left
    pose perturbation: J^-1(r) Ad(reference^-1) in the pose columns, given
    reference_adjoint = Ad(reference^-1)."""
    jac = np.zeros((6, STATE_DIM))
    jac[:, :6] = se3_left_jacobian_inv(r) @ reference_adjoint
    return jac


# Jacobian of [b_a; b_g] w.r.t. a state (identity on its bias columns),
# shared by the bias factors
_BIAS_JACOBIAN = np.eye(6, STATE_DIM, BIAS.start)
_BIAS_JACOBIAN.flags.writeable = False


def _cache_reference(factor, reference: Pose):
    """Store the inverse of a factor's constant reference pose and its
    adjoint Ad(reference^-1), which every residual and linearize reuse."""
    reference_inverse = inverse(reference)
    object.__setattr__(factor, "_inverse", reference_inverse)
    object.__setattr__(factor, "_adjoint", se3_adjoint(reference_inverse))


def _check_information(info, dim):
    info = np.ascontiguousarray(info, dtype=float)
    if info.shape != (dim, dim):
        raise ValueError(f"information must be {dim}x{dim}")
    if np.abs(info - info.T).max() > 1e-9 * max(1.0, np.abs(info).max()):
        raise ValueError("information matrix must be symmetric")
    info.flags.writeable = False
    return info


class _Factor:
    """The contract every factor keeps with the graph.

    ``information`` is the dim x dim weight of the residual, validated once
    here; ``indices`` names the states the factor touches, taken from its
    ``index`` field or its ``i``/``j`` pair. Subclasses are frozen
    dataclasses that define ``residual`` and ``linearize``.
    """

    dim = 6

    def __post_init__(self):
        object.__setattr__(self, "information",
                           _check_information(self.information, self.dim))
        object.__setattr__(self, "indices", (self.i, self.j)
                           if hasattr(self, "j") else (self.index,))


@dataclass(frozen=True)
class PriorFactor(_Factor):
    kind = "prior"
    index: int
    prior: Pose
    information: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        _cache_reference(self, self.prior)

    def residual(self, states, gravity):
        return log_map(compose(self._inverse, states[self.index].pose))

    def linearize(self, states, gravity):
        r = self.residual(states, gravity)
        return r, {self.index: _pose_jacobian(r, self._adjoint)}, None


@dataclass(frozen=True)
class OdometryFactor(_Factor):
    """Relative pose of state j in state i. With the identity as its
    measurement it is the no-motion constraint of a ZUPT."""

    kind = "odometry"
    i: int
    j: int
    measurement: Pose  # relative pose of j in i
    information: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        # its Jacobian's adjoint moves with pose_i, so only the inverse is
        # constant
        object.__setattr__(self, "_inverse", inverse(self.measurement))

    def residual(self, states, gravity):
        """r = log(measurement^-1 * between(pose_i, pose_j))."""
        return log_map(compose(self._inverse,
                               between(states[self.i].pose, states[self.j].pose)))

    def linearize(self, states, gravity):
        r = self.residual(states, gravity)
        jac = _pose_jacobian(r, se3_adjoint(inverse(
            compose(states[self.i].pose, self.measurement))))
        return r, {self.i: -jac, self.j: jac}, None


@dataclass(frozen=True)
class MapFactor(_Factor):
    """Scan-to-map registration as a pose constraint.

    The residual is the body-frame r = log(map_pose^-1 * pose), all 6 rows.
    The weight is the registration Hessian, taken for a left (world-frame)
    perturbation of the scan pose; the mask names degenerate world
    translation axes and zeroes their rows and columns of that weight. The
    two frames differ: see ROADMAP item 1.
    """

    kind = "map"
    index: int
    map_pose: Pose
    information: np.ndarray
    mask: tuple = ()         # degenerate translational axes (0=x, 1=y, 2=z)

    def __post_init__(self):
        super().__post_init__()
        mask = tuple(sorted(set(self.mask)))
        info = self.information.copy()
        rows = [3 + a for a in mask]
        info[rows] = 0.0
        info[:, rows] = 0.0
        info.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "information", info)
        _cache_reference(self, self.map_pose)

    def residual(self, states, gravity):
        return log_map(compose(self._inverse, states[self.index].pose))

    def linearize(self, states, gravity):
        r = self.residual(states, gravity)
        return r, {self.index: _pose_jacobian(r, self._adjoint)}, None


@dataclass(frozen=True)
class GravityFactor(_Factor):
    """Gravity direction residual, 3-vector e = a_w/|a_w| + g.

    a_mean is the bias-corrected mean specific force over a stationary
    window (body frame); a stationary accelerometer measures -g, so the
    normalized world-frame specific force should cancel the unit gravity
    direction. The graph keeps g on the unit sphere, so the factor has no
    norm row. A window with |a_mean| below MIN_MEAN_ACCEL has no direction
    to measure and is refused with ZeroAcceleration.
    """

    kind = "gravity"
    dim = 3
    index: int
    a_mean: np.ndarray  # bias-corrected mean specific force, body frame
    information: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        a_mean = np.ascontiguousarray(self.a_mean, dtype=float)
        norm = np.linalg.norm(a_mean)
        if norm < MIN_MEAN_ACCEL:
            raise ZeroAcceleration(f"mean specific force {norm:.3f} m/s^2 "
                                   "is too small for a gravity factor")
        a_mean.flags.writeable = False
        object.__setattr__(self, "a_mean", a_mean)

    def residual(self, states, gravity):
        a_w = states[self.index].pose.rotation @ self.a_mean
        return a_w / np.linalg.norm(a_w) + gravity

    def linearize(self, states, gravity):
        r = self.residual(states, gravity)
        # u = a_w/|a_w| = r - g moves by (I - u u^T)(-[a_w]x)/|a_w| = -[u]x,
        # as u^T [u]x = 0
        jac = np.zeros((3, STATE_DIM))
        jac[:, ROT] = -skew(r - gravity)
        return r, {self.index: jac}, np.eye(3)


@dataclass(frozen=True)
class ZeroVelocityFactor(_Factor):
    kind = "zero_velocity"
    dim = 3
    index: int
    information: np.ndarray

    def residual(self, states, gravity):
        return states[self.index].velocity.copy()

    def linearize(self, states, gravity):
        jac = np.zeros((3, STATE_DIM))
        jac[:, VEL] = np.eye(3)
        return self.residual(states, gravity), {self.index: jac}, None


@dataclass(frozen=True)
class BiasWalkFactor(_Factor):
    kind = "bias_walk"
    i: int
    j: int
    information: np.ndarray

    def residual(self, states, gravity):
        return states[self.j].bias - states[self.i].bias

    def linearize(self, states, gravity):
        return (self.residual(states, gravity),
                {self.i: -_BIAS_JACOBIAN, self.j: _BIAS_JACOBIAN}, None)


@dataclass(frozen=True)
class BiasPriorFactor(_Factor):
    """Absolute anchor on one state's IMU biases.

    The walk factors only chain consecutive biases; without one absolute
    prior the whole bias trajectory can drift together and trade off
    against gravity.
    """

    kind = "bias_prior"
    index: int
    bias: np.ndarray         # (6,) [b_a; b_g]
    information: np.ndarray  # 6x6 over [b_a; b_g]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "bias", _vector(self.bias, "bias", 6))

    def residual(self, states, gravity):
        return states[self.index].bias - self.bias

    def linearize(self, states, gravity):
        return self.residual(states, gravity), {self.index: _BIAS_JACOBIAN}, None


@dataclass(frozen=True)
class ImuFactor(_Factor):
    """Preintegrated IMU constraint between consecutive states, 9-dim.

    Residual [r_rot; r_vel; r_pos] compares the predicted motion of state j
    from state i (first-order bias-corrected deltas) against the actual
    states, with gravity taken from the shared unit direction scaled by
    gravity_magnitude.
    """

    kind = "imu"
    dim = 9
    i: int
    j: int
    preint: Preintegration
    information: np.ndarray
    gravity_magnitude: float = GRAVITY_MAGNITUDE

    def _terms(self, states, gravity):
        """The residual, plus the bias-corrected delta rotation, the bias
        correction of the deltas and the world-frame velocity and position
        differences (gravity removed) that the Jacobian reuses."""
        si, sj = states[self.i], states[self.j]
        p = self.preint
        corr = p.bias_jacobian @ (si.bias - p.bias)
        d_rot = p.delta_rotation @ so3_exp(corr[0:3])
        dt = p.duration
        d_vel = p.delta_velocity + corr[3:6]
        d_pos = p.delta_position + corr[6:9]
        g_world = np.asarray(gravity, dtype=float) * self.gravity_magnitude
        rit = si.pose.rotation.T
        w_vec = sj.velocity - si.velocity - g_world * dt
        u_vec = (sj.pose.translation - si.pose.translation
                 - si.velocity * dt - 0.5 * g_world * dt * dt)
        r = np.concatenate([so3_log(d_rot.T @ rit @ sj.pose.rotation),
                            rit @ w_vec - d_vel, rit @ u_vec - d_pos])
        return r, d_rot, corr, w_vec, u_vec

    def residual(self, states, gravity):
        return self._terms(states, gravity)[0]

    def linearize(self, states, gravity):
        r, d_rot, corr, w_vec, u_vec = self._terms(states, gravity)
        si, sj = states[self.i], states[self.j]
        p = self.preint
        dt = p.duration
        g_mag = self.gravity_magnitude
        ri = si.pose.rotation
        rit = ri.T
        ti = si.pose.translation
        tj = sj.pose.translation

        jl_inv = so3_left_jacobian_inv(r[0:3])
        c_mat = (ri @ d_rot).T  # (R_i * corrected_delta)^T

        jac_i = np.zeros((9, STATE_DIM))
        jac_j = np.zeros((9, STATE_DIM))

        jac_i[0:3, ROT] = -jl_inv @ c_mat
        jac_j[0:3, ROT] = jl_inv @ c_mat
        # the corrected delta is Ebar exp(corr), corr = J db, so
        # d r_rot / d b = -Jl_inv Jr(corr) J_rot
        jac_i[0:3, BIAS] = (-jl_inv @ so3_right_jacobian(corr[0:3])
                            @ p.bias_jacobian[0:3])

        jac_i[3:6, ROT] = rit @ skew(w_vec)
        jac_i[3:6, VEL] = -rit
        jac_j[3:6, VEL] = rit

        jac_i[6:9, ROT] = rit @ skew(u_vec + ti)
        jac_i[6:9, TRANS] = -rit
        jac_j[6:9, ROT] = -rit @ skew(tj)
        jac_j[6:9, TRANS] = rit
        jac_i[6:9, VEL] = -rit * dt
        jac_i[3:9, BIAS] = -p.bias_jacobian[3:9]

        g_block = np.zeros((9, 3))
        g_block[3:6] = -g_mag * dt * rit
        g_block[6:9] = -0.5 * g_mag * dt * dt * rit
        return r, {self.i: jac_i, self.j: jac_j}, g_block
