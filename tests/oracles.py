"""Independent reference implementations used only by tests.

These deliberately avoid the library's own code paths: alignment via
Horn's quaternion method instead of Kabsch SVD, twists via scipy's
generic matrix logarithm, nearest neighbors via a dense distance matrix,
the SE(3) left Jacobian via its ad-series instead of the closed form, the
SO(3)/SE(3) kernels in their matrix form (skew products and matmuls)
instead of the library's scalar closed forms,
voxel grouping via row-wise np.unique and np.add.at instead of packed keys,
the masked map factor by deleting rows instead of zeroing its weight,
the preintegration covariance by differencing a noisy integrator instead
of propagating a linearized one.
The unit-weight registration Hessian is spelled out from its rows, as
align computes it, so tests can compare it bit for bit.
"""

import math

import numpy as np
from scipy.linalg import logm
from scipy.spatial import distance_matrix


def quat_to_rot(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def horn_align(source, target):
    """Closed-form rigid alignment (Horn 1987, unit quaternion method).

    Returns (rotation, translation) minimizing sum |R s + t - target|^2.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    cs = source.mean(axis=0)
    ct = target.mean(axis=0)
    m = (source - cs).T @ (target - ct)
    sxx, sxy, sxz = m[0]
    syx, syy, syz = m[1]
    szx, szy, szz = m[2]
    n = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ])
    _, vecs = np.linalg.eigh(n)
    rotation = quat_to_rot(vecs[:, -1])
    return rotation, ct - rotation @ cs


def alignment_cost(rotation, translation, source, target):
    residual = source @ rotation.T + translation - target
    return float(np.sum(residual ** 2))


def logm_twist(matrix):
    """[rot; trans] twist of a 4x4 rigid transform via scipy's logm."""
    xi = logm(matrix)
    assert np.abs(np.imag(xi)).max() < 1e-9
    xi = np.real(xi)
    rot = np.array([xi[2, 1], xi[0, 2], xi[1, 0]])
    return np.concatenate([rot, xi[:3, 3]])


def brute_accuracy_cm(est_points, gt_points, threshold):
    d = distance_matrix(est_points, gt_points).min(axis=1)
    inliers = d <= threshold
    if not inliers.any():
        return None
    return float(d[inliers].mean()) * 100.0


def brute_completeness_percent(est_points, gt_points, threshold):
    d = distance_matrix(gt_points, est_points).min(axis=1)
    return float((d <= threshold).mean()) * 100.0


def brute_ate_cm(est_positions, ref_positions):
    rotation, translation = horn_align(est_positions, ref_positions)
    residual = est_positions @ rotation.T + translation - ref_positions
    return float(np.sqrt(np.mean(np.sum(residual ** 2, axis=1)))) * 100.0


def se3_left_jacobian_series(twist):
    """SE(3) left Jacobian, [rot; trans] ordering, by the series
    sum_n ad(twist)^n / (n+1)! of the twist's little adjoint."""
    twist = np.asarray(twist, dtype=float)
    w = np.array([[0.0, -twist[2], twist[1]],
                  [twist[2], 0.0, -twist[0]],
                  [-twist[1], twist[0], 0.0]])
    p = np.array([[0.0, -twist[5], twist[4]],
                  [twist[5], 0.0, -twist[3]],
                  [-twist[4], twist[3], 0.0]])
    ad = np.block([[w, np.zeros((3, 3))], [p, w]])
    result = np.eye(6)
    term = np.eye(6)
    for n in range(1, 80):
        term = term @ ad / (n + 1.0)
        result = result + term
        if np.abs(term).max() < 1e-18:
            break
    return result


def row_deleting_map_factor(pose, map_pose, information, mask):
    """The map factor that drops its masked translation rows.

    pose and map_pose are 4x4 rigid transforms; mask names translation axes
    (0=x, 1=y, 2=z). Returns the kept rows of r = log(map_pose^-1 * pose),
    of its 6x6 Jacobian J^-1(r) Ad(map_pose^-1) with respect to a left pose
    perturbation, and the information block over the kept rows.
    """
    keep = [0, 1, 2] + [3 + a for a in range(3) if a not in mask]
    inv_map = np.linalg.inv(map_pose)
    r = logm_twist(inv_map @ pose)
    rot, trans = inv_map[:3, :3], inv_map[:3, 3]
    t_hat = np.array([[0.0, -trans[2], trans[1]],
                      [trans[2], 0.0, -trans[0]],
                      [-trans[1], trans[0], 0.0]])
    adjoint = np.block([[rot, np.zeros((3, 3))], [t_hat @ rot, rot]])
    jac = np.linalg.solve(se3_left_jacobian_series(r), adjoint)
    return r[keep], jac[keep], np.asarray(information)[np.ix_(keep, keep)]


def voxel_downsample_unique(points, voxel, normals=None):
    """Voxel centroids (and averaged normals) grouped by a row-wise
    np.unique of the (N, 3) cell keys and summed with np.add.at."""
    points = np.asarray(points, dtype=float)
    keys = np.floor(points / voxel).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(uniq)).astype(float)
    centroids = np.zeros((len(uniq), 3))
    np.add.at(centroids, inverse, points)
    centroids /= counts[:, None]
    if normals is None:
        return centroids, None
    summed = np.zeros((len(uniq), 3))
    np.add.at(summed, inverse, np.asarray(normals, dtype=float))
    norms = np.linalg.norm(summed, axis=1)
    with np.errstate(invalid="ignore"):
        averaged = summed / norms[:, None]
    averaged[norms < 1e-9] = np.nan
    return centroids, averaged


def unit_hessian(corrs, pose):
    """Unit-weight point-to-plane Hessian J^T J, symmetrized, of the rows
    J = [p x n, n] at the world points p = pose * source."""
    world = pose.transform(corrs.source_points)
    normals = corrs.target_normals
    jac = np.hstack([np.cross(world, normals), normals])
    hessian = jac.T @ jac
    return 0.5 * (hessian + hessian.T)


# The SO(3)/SE(3) kernels as matrix expressions of the skew matrix; the
# library computes the same formulas elementwise with the same branch
# thresholds (1e-8, 1e-4 and 1e-2 rad).

def skew_matrix(v):
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def so3_exp_matrix(rotvec):
    """I + a W + b W^2 with the Rodrigues coefficients."""
    rotvec = np.asarray(rotvec, dtype=float)
    angle = float(np.linalg.norm(rotvec))
    w = skew_matrix(rotvec)
    if angle < 1e-8:
        a = 1.0 - angle * angle / 6.0
        b = 0.5 - angle * angle / 24.0
    else:
        a = math.sin(angle) / angle
        b = (1.0 - math.cos(angle)) / (angle * angle)
    return np.eye(3) + a * w + b * (w @ w)


def so3_log_matrix(rotation):
    """Rotation vector of a rotation by less than pi - 1e-6."""
    rotation = np.asarray(rotation, dtype=float)
    vee = np.array([rotation[2, 1] - rotation[1, 2],
                    rotation[0, 2] - rotation[2, 0],
                    rotation[1, 0] - rotation[0, 1]])
    vee_norm = float(np.linalg.norm(vee))
    angle = math.atan2(vee_norm, float(np.trace(rotation)) - 1.0)
    if angle < 1e-8:
        return 0.5 * vee
    assert angle <= math.pi - 1e-6
    return (angle / vee_norm) * vee


def so3_log_scalar(rotation):
    """Rotation vector of any rotation, one component at a time; within
    1e-6 of pi the axis comes from the symmetric part and the relative signs
    from the largest component's off-diagonal sums. Its overall sign is
    vee's, or, where |vee| < 1e-12 leaves a half turn to within rounding,
    the one that makes the leading nonzero component positive."""
    rotation = np.asarray(rotation, dtype=float)
    vee = np.array([rotation[2, 1] - rotation[1, 2],
                    rotation[0, 2] - rotation[2, 0],
                    rotation[1, 0] - rotation[0, 1]])
    vee_norm = math.sqrt(float(vee @ vee))
    trace = float(np.trace(rotation))
    angle = math.atan2(vee_norm, trace - 1.0)
    if angle < 1e-8:
        return 0.5 * vee
    if angle <= math.pi - 1e-6:
        return (angle / vee_norm) * vee
    cos_angle = max(-1.0, min(1.0, (trace - 1.0) / 2.0))
    axis = np.array([math.sqrt(max(0.0, (rotation[i, i] - cos_angle)
                                   / (1.0 - cos_angle))) for i in range(3)])
    k = int(np.argmax(axis))
    if axis[k] > 0.0:
        for i in range(3):
            if i != k and rotation[k, i] + rotation[i, k] < 0.0:
                axis[i] = -axis[i]
    if vee_norm >= 1e-12:
        if axis @ vee < 0.0:
            axis = -axis
    else:
        for component in axis:
            if abs(component) > 1e-12:
                if component < 0.0:
                    axis = -axis
                break
    norm = float(np.linalg.norm(axis))
    axis = axis / norm if norm > 0.0 else np.array([1.0, 0.0, 0.0])
    return axis * angle


def so3_left_jacobian_matrix(rotvec):
    rotvec = np.asarray(rotvec, dtype=float)
    angle = float(np.linalg.norm(rotvec))
    if angle < 1e-8:
        b, c = 0.5 - angle * angle / 24.0, 1.0 / 6.0 - angle * angle / 120.0
    else:
        b = (1.0 - math.cos(angle)) / (angle * angle)
        c = (angle - math.sin(angle)) / angle ** 3
    w = skew_matrix(rotvec)
    return np.eye(3) + b * w + c * (w @ w)


def so3_left_jacobian_inv_matrix(rotvec):
    rotvec = np.asarray(rotvec, dtype=float)
    angle = float(np.linalg.norm(rotvec))
    w = skew_matrix(rotvec)
    if angle < 1e-4:
        c = 1.0 / 12.0 + angle * angle / 720.0
    else:
        half = 0.5 * angle
        c = (1.0 - half * math.cos(half) / math.sin(half)) / (angle * angle)
    return np.eye(3) - 0.5 * w + c * (w @ w)


def se3_left_jacobian_inv_matrix(twist):
    """[[J^-1, 0], [-J^-1 Q J^-1, J^-1]] with Barfoot & Furgale's Q as the
    sum of its skew-matrix products."""
    twist = np.asarray(twist, dtype=float)
    angle = float(np.linalg.norm(twist[:3]))
    if angle < 1e-2:
        a2 = angle * angle
        c1, c2, c3 = 1 / 6 - a2 / 120, 1 / 24 - a2 / 720, 1 / 120 - a2 / 2520
    else:
        sin, cos = math.sin(angle), math.cos(angle)
        c1 = (angle - sin) / angle ** 3
        c2 = (angle * angle + 2.0 * cos - 2.0) / (2.0 * angle ** 4)
        c3 = (2.0 * angle - 3.0 * sin + angle * cos) / (2.0 * angle ** 5)
    w = skew_matrix(twist[:3])
    p = skew_matrix(twist[3:])
    wp, pw = w @ p, p @ w
    wpw = wp @ w
    q = (0.5 * p + c1 * (wp + pw + wpw) + c2 * (w @ wp + pw @ w - 3.0 * wpw)
         + c3 * (wpw @ w + w @ wpw))
    j_inv = so3_left_jacobian_inv_matrix(twist[:3])
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = j_inv
    out[3:, :3] = -j_inv @ q @ j_inv
    return out


def noisy_midpoint_deltas(samples, accel_bias, gyro_bias, noise):
    """The midpoint integrator's (rotation, velocity, position) deltas with
    interval k's white noise noise[k] = [n_a; n_g] added to the specific
    force at both of its samples and to its midpoint rate."""
    d_rot, d_vel, d_pos = np.eye(3), np.zeros(3), np.zeros(3)
    for k in range(len(samples) - 1):
        s0, s1 = samples[k], samples[k + 1]
        dt = s1.timestamp - s0.timestamp
        n_a, n_g = noise[k, :3], noise[k, 3:]
        rate = 0.5 * (s0.angular_velocity + s1.angular_velocity) - gyro_bias
        d_rot_next = d_rot @ so3_exp_matrix((rate + n_g) * dt)
        accel = 0.5 * (d_rot @ (s0.specific_force - accel_bias + n_a)
                       + d_rot_next @ (s1.specific_force - accel_bias + n_a))
        d_pos = d_pos + d_vel * dt + 0.5 * accel * dt * dt
        d_vel = d_vel + accel * dt
        d_rot = d_rot_next
    return d_rot, d_vel, d_pos


def preintegration_covariance(samples, accel_bias, gyro_bias, sigma_accel,
                              sigma_gyro, eps=1e-5):
    """sum_k J_k Q J_k^T over the sample intervals k, with Q =
    diag(sigma_accel^2 I, sigma_gyro^2 I) and J_k the central difference of
    the final deltas' error [log(R0^T R); v - v0; p - p0] with respect to
    interval k's noise [n_a; n_g]."""
    zero = np.zeros((len(samples) - 1, 6))
    rot0, vel0, pos0 = noisy_midpoint_deltas(samples, accel_bias, gyro_bias,
                                             zero)

    def error(noise):
        rot, vel, pos = noisy_midpoint_deltas(samples, accel_bias, gyro_bias,
                                              noise)
        return np.concatenate([so3_log_matrix(rot0.T @ rot), vel - vel0,
                               pos - pos0])

    q = np.repeat([sigma_accel ** 2, sigma_gyro ** 2], 3)
    cov = np.zeros((9, 9))
    for k in range(len(zero)):
        jac = np.zeros((9, 6))
        for c in range(6):
            step = zero.copy()
            step[k, c] = eps
            jac[:, c] = (error(step) - error(-step)) / (2 * eps)
        cov += (jac * q) @ jac.T
    return cov
