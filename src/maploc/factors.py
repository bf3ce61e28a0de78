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

States are read as stacked arrays (States). Each factor class has one
residual and one linearize, written over a leading batch axis: the graph
stacks the active factors of a class into one instance (``stack``) and
evaluates them all with one call, and a factor built by its constructor is
the unbatched case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import NonMonotonicTimestamps, WindowTooShort, ZeroAcceleration
from .geometry import (
    Pose,
    inverse,
    matvec,
    se3_adjoint,
    se3_exp,
    se3_left_jacobian_inv,
    se3_log,
    skew,
    so3_exp,
    so3_left_jacobian,
    so3_left_jacobian_inv,
    so3_log,
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


@dataclass(frozen=True)
class States:
    """States as arrays along a leading axis: rotation (N, 3, 3),
    translation and velocity (N, 3), bias (N, 6) and timestamp (N,).

    The graph keeps its states so and every factor reads them so. An int
    index gives one state as a StateNode, a slice the States of its rows.
    """

    rotation: np.ndarray
    translation: np.ndarray
    velocity: np.ndarray
    bias: np.ndarray
    timestamp: np.ndarray

    @staticmethod
    def of(nodes):
        """A sequence of StateNodes as States."""
        return States(
            np.array([n.pose.rotation for n in nodes]).reshape(-1, 3, 3),
            np.array([n.pose.translation for n in nodes]).reshape(-1, 3),
            np.array([n.velocity for n in nodes]).reshape(-1, 3),
            np.array([n.bias for n in nodes]).reshape(-1, 6),
            np.array([n.timestamp for n in nodes], dtype=float))

    def join(self, other: States) -> States:
        """These states followed by other's."""
        return States(*(np.concatenate(pair) for pair in
                        zip(vars(self).values(), vars(other).values())))

    def __len__(self):
        return len(self.timestamp)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return States(*(a[key] for a in vars(self).values()))
        return StateNode(Pose(self.rotation[key].copy(),
                              self.translation[key].copy()),
                         self.velocity[key], self.bias[key],
                         float(self.timestamp[key]))

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def retract_state(states: States, delta) -> States:
    """Apply one 15-dim tangent step per state, delta (N, 15); shared by
    the optimizer and the FD tests."""
    delta = np.asarray(delta, dtype=float)
    rotation, translation = se3_exp(delta[:, :6])
    return States(rotation @ states.rotation,
                  matvec(rotation, states.translation) + translation,
                  states.velocity + delta[:, VEL], states.bias + delta[:, BIAS],
                  states.timestamp)


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

    # what each step needs of its two samples, for all steps at once
    dts = np.diff(times)
    gyro = np.array([s.angular_velocity for s in samples])
    force = np.array([s.specific_force for s in samples]) - accel_bias
    steps = (0.5 * (gyro[:-1] + gyro[1:]) - gyro_bias) * dts[:, None]
    r_steps = so3_exp(steps)
    # a_mid = (d_rot u0 + d_rot_next u1) / 2 = d_rot u_sum / 2
    u_sums = force[:-1] + matvec(r_steps, force[1:])
    # the right Jacobian Jr(v) = Jl(-v)
    jr_dts = so3_left_jacobian(-steps) * dts[:, None, None]
    skew_u_sums = skew(u_sums)
    skew_u1s = skew(force[1:])

    d_rot = np.eye(3)
    d_vel = np.zeros(3)
    d_pos = np.zeros(3)
    cov = np.zeros((9, 9))
    jac = np.zeros((9, 6))
    phi = np.eye(9)
    g_in = np.zeros((9, 6))

    for k, dt in enumerate(dts.tolist()):
        r_step = r_steps[k]
        d_rot_next = d_rot @ r_step
        a_mid = 0.5 * d_rot @ u_sums[k]

        # the step's error dynamics; the rotation error is right-applied
        jr_dt = jr_dts[k]
        da_drot = -0.5 * d_rot @ skew_u_sums[k]
        phi[0:3, 0:3] = r_step.T
        phi[3:6, 0:3] = da_drot * dt
        phi[6:9, 0:3] = da_drot * (0.5 * dt * dt)
        phi[6:9, 3:6] = np.eye(3) * dt
        g_in[0:3, 3:6] = -jr_dt
        g_in[3:6, 0:3] = -0.5 * (d_rot + d_rot_next) * dt
        g_in[3:6, 3:6] = 0.5 * d_rot_next @ skew_u1s[k] @ jr_dt * dt
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

def _pose_jacobian(r, inverse_rotation, inverse_translation):
    """Jacobian of r = log(reference^-1 * pose) w.r.t. the state's left
    pose perturbation: J^-1(r) Ad(reference^-1) in the pose columns, given
    reference^-1 as its rotation and translation."""
    jac = np.zeros(r.shape[:-1] + (6, STATE_DIM))
    jac[..., :6] = se3_left_jacobian_inv(r) @ se3_adjoint(inverse_rotation,
                                                          inverse_translation)
    return jac


# Jacobians of [b_a; b_g] and of the velocity w.r.t. a state (identity on
# their columns), and gravity's in the gravity factor
_BIAS_JACOBIAN = np.eye(6, STATE_DIM, BIAS.start)
_VELOCITY_JACOBIAN = np.eye(3, STATE_DIM, VEL.start)
_EYE3 = np.eye(3)


def _constant_jacobian(jac, r):
    """jac, the same for every factor, once per row of r, as a read-only
    view."""
    return np.broadcast_to(jac, r.shape[:-1] + jac.shape)


def _cache_inverse(factor, reference: Pose):
    """Store the rotation and translation of a factor's constant reference
    pose's inverse, which every residual and linearize reuse."""
    reference_inverse = inverse(reference)
    object.__setattr__(factor, "_inverse_rotation", reference_inverse.rotation)
    object.__setattr__(factor, "_inverse_translation",
                       reference_inverse.translation)


def _check_information(info, dim):
    info = np.ascontiguousarray(info, dtype=float)
    if info.shape != (dim, dim):
        raise ValueError(f"information must be {dim}x{dim}")
    if np.abs(info - info.T).max() > 1e-9 * max(1.0, np.abs(info).max()):
        raise ValueError("information matrix must be symmetric")
    info.flags.writeable = False
    return info


def _indices(factor):
    return (factor.i, factor.j) if hasattr(factor, "j") else (factor.index,)


def _stack(values):
    """values along a new leading axis; a dataclass field by field."""
    first = values[0]
    if is_dataclass(first):
        return type(first)(*(_stack([getattr(v, f.name) for v in values])
                             for f in fields(first)))
    return np.array(values)


class _Factor:
    """The contract every factor keeps with the graph.

    ``information`` is the dim x dim weight of the residual, validated once
    here; ``indices`` names the states the factor touches, taken from its
    ``index`` field or its ``i``/``j`` pair. Subclasses are frozen
    dataclasses that define ``residual`` and ``linearize``, each written
    once for a leading batch axis: ``stack`` turns F factors of one class
    into one instance whose fields in ``_stacked`` carry that axis, and
    whose residual (F, dim) and Jacobians (F, dim, 15) hold one row per
    factor. A factor built by its constructor is the unbatched case.

    ``linearize`` returns (r, one Jacobian per entry of ``indices``, the
    Jacobian w.r.t. gravity's 3 ambient coordinates or None).
    """

    dim = 6

    def __post_init__(self):
        object.__setattr__(self, "information",
                           _check_information(self.information, self.dim))
        object.__setattr__(self, "indices", _indices(self))

    @classmethod
    def stack(cls, factors):
        """factors, each of class cls, as one batched instance."""
        out = object.__new__(cls)
        for name in cls._stacked:
            object.__setattr__(out, name,
                               _stack([getattr(f, name) for f in factors]))
        object.__setattr__(out, "indices", _indices(out))
        return out


def _reference_residual(factor, s):
    """log(reference^-1 * pose) of the factor's state."""
    q = factor._inverse_rotation
    return se3_log(q @ s.rotation[factor.index],
                   matvec(q, s.translation[factor.index])
                   + factor._inverse_translation)


def _reference_linearize(factor, states):
    r = _reference_residual(factor, states)
    return r, (_pose_jacobian(r, factor._inverse_rotation,
                              factor._inverse_translation),), None


@dataclass(frozen=True)
class PriorFactor(_Factor):
    kind = "prior"
    _stacked = ("index", "information", "_inverse_rotation",
                "_inverse_translation")
    index: int
    prior: Pose
    information: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        _cache_inverse(self, self.prior)

    def residual(self, states, gravity):
        return _reference_residual(self, states)

    def linearize(self, states, gravity):
        return _reference_linearize(self, states)


@dataclass(frozen=True)
class OdometryFactor(_Factor):
    """Relative pose of state j in state i. With the identity as its
    measurement it is the no-motion constraint of a ZUPT."""

    kind = "odometry"
    _stacked = ("i", "j", "information", "_inverse_rotation",
                "_inverse_translation")
    i: int
    j: int
    measurement: Pose  # relative pose of j in i
    information: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        _cache_inverse(self, self.measurement)

    def _terms(self, s):
        """The residual log(measurement^-1 * between(pose_i, pose_j)) and
        the inverse of pose_i * measurement, (rotation, translation)."""
        ti = s.translation[self.i]
        rot = self._inverse_rotation @ np.swapaxes(s.rotation[self.i], -1, -2)
        r = se3_log(rot @ s.rotation[self.j],
                    matvec(rot, s.translation[self.j] - ti)
                    + self._inverse_translation)
        return r, rot, self._inverse_translation - matvec(rot, ti)

    def residual(self, states, gravity):
        return self._terms(states)[0]

    def linearize(self, states, gravity):
        r, rotation, translation = self._terms(states)
        jac = _pose_jacobian(r, rotation, translation)
        return r, (-jac, jac), None


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
    _stacked = PriorFactor._stacked
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
        _cache_inverse(self, self.map_pose)

    def residual(self, states, gravity):
        return _reference_residual(self, states)

    def linearize(self, states, gravity):
        return _reference_linearize(self, states)


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
    _stacked = ("index", "a_mean", "information")
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

    def _direction(self, states):
        """u = a_w/|a_w|, the measured world-frame direction of -g."""
        a_w = matvec(states.rotation[self.index], self.a_mean)
        return a_w / np.linalg.norm(a_w, axis=-1, keepdims=True)

    def residual(self, states, gravity):
        return self._direction(states) + gravity

    def linearize(self, states, gravity):
        u = self._direction(states)
        r = u + gravity
        # u moves by (I - u u^T)(-[a_w]x)/|a_w| = -[u]x, as u^T [u]x = 0
        jac = np.zeros(r.shape + (STATE_DIM,))
        jac[..., ROT] = -skew(u)
        return r, (jac,), _constant_jacobian(_EYE3, r)


@dataclass(frozen=True)
class ZeroVelocityFactor(_Factor):
    kind = "zero_velocity"
    dim = 3
    _stacked = ("index", "information")
    index: int
    information: np.ndarray

    def residual(self, states, gravity):
        return states.velocity[self.index].copy()

    def linearize(self, states, gravity):
        r = states.velocity[self.index].copy()
        return r, (_constant_jacobian(_VELOCITY_JACOBIAN, r),), None


@dataclass(frozen=True)
class BiasWalkFactor(_Factor):
    kind = "bias_walk"
    _stacked = ("i", "j", "information")
    i: int
    j: int
    information: np.ndarray

    def residual(self, states, gravity):
        bias = states.bias
        return bias[self.j] - bias[self.i]

    def linearize(self, states, gravity):
        bias = states.bias
        r = bias[self.j] - bias[self.i]
        jac = _constant_jacobian(_BIAS_JACOBIAN, r)
        return r, (-jac, jac), None


@dataclass(frozen=True)
class BiasPriorFactor(_Factor):
    """Absolute anchor on one state's IMU biases.

    The walk factors only chain consecutive biases; without one absolute
    prior the whole bias trajectory can drift together and trade off
    against gravity.
    """

    kind = "bias_prior"
    _stacked = ("index", "bias", "information")
    index: int
    bias: np.ndarray         # (6,) [b_a; b_g]
    information: np.ndarray  # 6x6 over [b_a; b_g]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "bias", _vector(self.bias, "bias", 6))

    def residual(self, states, gravity):
        return states.bias[self.index] - self.bias

    def linearize(self, states, gravity):
        r = states.bias[self.index] - self.bias
        return r, (_constant_jacobian(_BIAS_JACOBIAN, r),), None


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
    _stacked = ("i", "j", "preint", "information", "gravity_magnitude")
    i: int
    j: int
    preint: Preintegration
    information: np.ndarray
    gravity_magnitude: float = GRAVITY_MAGNITUDE

    def _terms(self, s, gravity):
        """The residual, plus the bias-corrected delta rotation, the bias
        correction of the deltas and the world-frame velocity and position
        differences (gravity removed) that the Jacobian reuses."""
        p = self.preint
        corr = matvec(p.bias_jacobian, s.bias[self.i] - p.bias)
        d_rot = p.delta_rotation @ so3_exp(corr[..., 0:3])
        dt = np.asarray(p.duration)[..., None]
        g_world = np.asarray(gravity, dtype=float) \
            * np.asarray(self.gravity_magnitude)[..., None]
        vi = s.velocity[self.i]
        w_vec = s.velocity[self.j] - vi - g_world * dt
        u_vec = (s.translation[self.j] - s.translation[self.i] - vi * dt
                 - 0.5 * g_world * dt * dt)
        rit = np.swapaxes(s.rotation[self.i], -1, -2)
        r = np.concatenate([
            so3_log(np.swapaxes(d_rot, -1, -2) @ rit @ s.rotation[self.j]),
            matvec(rit, w_vec) - (p.delta_velocity + corr[..., 3:6]),
            matvec(rit, u_vec) - (p.delta_position + corr[..., 6:9])],
            axis=-1)
        return r, d_rot, corr, w_vec, u_vec

    def residual(self, states, gravity):
        return self._terms(states, gravity)[0]

    def linearize(self, states, gravity):
        r, d_rot, corr, w_vec, u_vec = self._terms(states, gravity)
        p = self.preint
        dt = np.asarray(p.duration)[..., None, None]
        g_dt = np.asarray(self.gravity_magnitude)[..., None, None] * dt
        ri = states.rotation[self.i]
        rit = np.swapaxes(ri, -1, -2)
        ti = states.translation[self.i]
        tj = states.translation[self.j]

        jl_inv = so3_left_jacobian_inv(r[..., 0:3])
        c_mat = np.swapaxes(ri @ d_rot, -1, -2)  # (R_i * corrected_delta)^T

        jac_i = np.zeros(r.shape + (STATE_DIM,))
        jac_j = np.zeros(r.shape + (STATE_DIM,))

        jac_i[..., 0:3, ROT] = -jl_inv @ c_mat
        jac_j[..., 0:3, ROT] = jl_inv @ c_mat
        # the corrected delta is Ebar exp(corr), corr = J db, so
        # d r_rot / d b = -Jl_inv Jr(corr) J_rot, Jr(v) being Jl(-v)
        jac_i[..., 0:3, BIAS] = (-jl_inv @ so3_left_jacobian(-corr[..., 0:3])
                                 @ p.bias_jacobian[..., 0:3, :])

        jac_i[..., 3:6, ROT] = rit @ skew(w_vec)
        jac_i[..., 3:6, VEL] = -rit
        jac_j[..., 3:6, VEL] = rit

        jac_i[..., 6:9, ROT] = rit @ skew(u_vec + ti)
        jac_i[..., 6:9, TRANS] = -rit
        jac_j[..., 6:9, ROT] = -rit @ skew(tj)
        jac_j[..., 6:9, TRANS] = rit
        jac_i[..., 6:9, VEL] = -rit * dt
        jac_i[..., 3:9, BIAS] = -p.bias_jacobian[..., 3:9, :]

        g_block = np.zeros(r.shape + (3,))
        g_block[..., 3:6, :] = -g_dt * rit
        g_block[..., 6:9, :] = -0.5 * g_dt * dt * rit
        return r, (jac_i, jac_j), g_block
