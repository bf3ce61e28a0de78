"""Independent reference implementations used only by tests.

These deliberately avoid the library's own code paths: alignment via
Horn's quaternion method instead of Kabsch SVD, twists via scipy's
generic matrix logarithm, nearest neighbors via a dense distance matrix,
the SE(3) left Jacobian via its ad-series instead of the closed form, the
SO(3)/SE(3) kernels in their matrix form (skew products and matmuls)
instead of the library's scalar closed forms,
voxel grouping via row-wise np.unique and np.add.at instead of packed keys,
the voxel grid's bounds from every point's cell instead of the extrema's,
the run's map from a list of world-frame scans stacked with np.vstack
instead of slices of one preallocated array,
the masked map factor by deleting rows instead of zeroing its weight,
the preintegration covariance by differencing a noisy integrator instead
of propagating a linearized one, and the preintegration bias Jacobian and
covariance by that step-by-step propagation (with the library's batched
SO(3) kernels) instead of the closed-form sum over steps.
The unit-weight registration Hessian is spelled out from its rows, as
align computes it, so tests can compare it bit for bit. align_reference is
registration.align with a fresh k-d association at every step and every
residual and Jacobian recomputed from the matched scan points, instead of
the per-row association state and the world points kept from it.
optimize_reference is FactorGraph.optimize stacking every active factor
and laying out every slot of its normal equations afresh at each solve,
and concatenating each assembly's blocks, instead of the graph's stacked
store, its reused slot maps and its one assembly buffer per solve; its
damped steps, damped_step_reference, copy the band into a fresh array for
scipy.linalg.solve_banded at every trial instead of factoring it in place
in one workspace per solve.
"""

import math

import numpy as np
from scipy.linalg import logm, solve_banded
from scipy.spatial import distance_matrix

from maploc.errors import NoCorrespondences, SingularSystem
from maploc.factors import STATE_DIM, retract_state
from maploc.geometry import (
    between,
    compose,
    exp_map,
    log_map,
    matvec,
    skew,
    so3_exp,
    so3_left_jacobian,
)
from maploc.graph import (
    DAMPING_INIT,
    DAMPING_MAX,
    DAMPING_MIN,
    REL_COST_TOL,
    STEP_TOL,
    IterationRecord,
    OptimizeResult,
    _nonfinite,
    _total,
    gravity_basis,
    retract_gravity,
)
from maploc.registration import (
    _DAMPING_INIT,
    _DAMPING_MAX,
    _DAMPING_MIN,
    AlignResult,
    Correspondences,
    _huber_cost,
    _huber_weights,
)


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


def brute_force_knn(points, query, k):
    """The k nearest of points to one query row by exhaustive scan, ties by
    lowest index: (distances, indices)."""
    d = np.linalg.norm(points - query, axis=1)
    order = np.lexsort((np.arange(len(points)), d))
    return d[order[:k]], order[:k]


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


def greedy_pairs(est_times, ref_times, max_dt):
    """Greedy association by a full scan: each estimated time in order
    takes the nearest unused reference time within max_dt, the earlier
    reference on a tie."""
    used = set()
    pairs = []
    for i, t in enumerate(est_times):
        best = None
        for j, r in enumerate(ref_times):
            if j in used or abs(r - t) > max_dt:
                continue
            if best is None or abs(r - t) < abs(ref_times[best] - t):
                best = j
        if best is not None:
            used.add(best)
            pairs.append([i, best])
    return pairs


def brute_rpe_per_meter_cm(est_matrices, ref_matrices, distance):
    """Distance-normalized RPE (cm per meter) of two associated sequences
    of 4x4 poses. From each start frame a linear walk sums the reference
    step lengths up to the first frame at least `distance` meters on; that
    window's error is the translation of logm(rel_ref^-1 rel_est) over the
    summed length. None when no window reaches `distance`."""
    normalized_sq = []
    for start in range(len(ref_matrices)):
        traveled = 0.0
        for end in range(start + 1, len(ref_matrices)):
            traveled += float(np.linalg.norm(ref_matrices[end][:3, 3]
                                             - ref_matrices[end - 1][:3, 3]))
            if traveled >= distance:
                break
        else:
            continue
        rel_est = np.linalg.inv(est_matrices[start]) @ est_matrices[end]
        rel_ref = np.linalg.inv(ref_matrices[start]) @ ref_matrices[end]
        xi = logm_twist(np.linalg.inv(rel_ref) @ rel_est)
        normalized_sq.append(float(xi[3:] @ xi[3:]) / traveled ** 2)
    if not normalized_sq:
        return None
    return math.sqrt(np.mean(normalized_sq)) * 100.0


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


def stacked_map(poses, scans, voxel):
    """The map of a run whose states have `poses` and whose keyframe scans
    are `scans` (PointClouds, empty ones included): each scan moved to its
    pose, the moved scans stacked with np.vstack, and the stack reduced to
    voxel centroids."""
    world = [pose.transform(scan.points)
             for pose, scan in zip(poses, scans, strict=True)]
    return voxel_downsample_unique(np.vstack(world), voxel)[0]


def key_spans_of_cells(points, voxel):
    """The least cell and the per-axis cell counts of `points`' voxel grid
    from the floor of every point, or the message of the DataError the
    library raises for a grid too large for int64 keys."""
    cells = np.floor(points / voxel)
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    if not (np.all(lo > -2.0 ** 62) and np.all(hi < 2.0 ** 62)):
        return "cell indices must be finite and below 2^62"
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) > 2 ** 63:
        return "more than int64 keys"
    return lo, spans


def unit_hessian(corrs, pose):
    """Unit-weight point-to-plane Hessian J^T J, symmetrized, of the rows
    J = [p x n, n] at the world points p = pose * source."""
    world = pose.transform(corrs.source_points)
    normals = corrs.target_normals
    jac = np.hstack([np.cross(world, normals), normals])
    hessian = jac.T @ jac
    return 0.5 * (hessian + hessian.T)


def reference_correspondences(scan, map_index, pose, max_distance):
    """Nearest map point per transformed scan point, from one unbounded k-d
    query of every point, kept within max_distance and with a normal."""
    world = pose.transform(scan)
    dist, idx = map_index.knn(world, 1)
    dist, idx = dist[:, 0], idx[:, 0]
    normals = map_index.cloud.normals
    valid = (dist <= max_distance) & np.isfinite(normals[idx, 0])
    if not np.any(valid):
        raise NoCorrespondences("no correspondences")
    target = map_index.cloud.points[idx[valid]]
    normal = normals[idx[valid]]
    residual = np.einsum("ij,ij->i", normal, world[valid] - target)
    return Correspondences(scan[valid], target, normal, residual)


def _reference_residuals(corrs, pose):
    world = pose.transform(corrs.source_points)
    return np.einsum("ij,ij->i", corrs.target_normals,
                     world - corrs.target_points), world


def _reference_system(corrs, pose, kernel_width):
    r, world = _reference_residuals(corrs, pose)
    w = _huber_weights(r, kernel_width)
    jac = np.hstack([np.cross(world, corrs.target_normals),
                     corrs.target_normals])
    hessian = (jac * w[:, None]).T @ jac
    return (0.5 * (hessian + hessian.T), jac.T @ (w * r),
            _huber_cost(r, kernel_width))


def align_reference(scan, map_index, initial_pose, params):
    """registration.align's iteration, stopping rules and result, each step
    associated afresh and its world points transformed at every use."""
    scan = np.asarray(scan, dtype=float)
    pose = before = initial_pose
    damping = _DAMPING_INIT
    converged = False
    trace = []
    for iterations in range(params.max_iterations + 1):
        corrs = reference_correspondences(scan, map_index, pose,
                                          params.max_correspondence_distance)
        if converged or iterations == params.max_iterations:
            break
        hessian, gradient, cost = _reference_system(corrs, pose,
                                                    params.kernel_width)
        while damping <= _DAMPING_MAX:
            step = np.linalg.solve(hessian + damping * np.eye(6), -gradient)
            trial = compose(exp_map(step), pose)
            trial_cost = _huber_cost(_reference_residuals(corrs, trial)[0],
                                     params.kernel_width)
            if trial_cost < cost:
                break
            damping *= 10.0
        else:
            converged = True
            break
        damping = max(damping * 0.5, _DAMPING_MIN)
        trace.append((cost, trial_cost))
        converged = (np.linalg.norm(step) < params.convergence_threshold
                     or (iterations > 0 and np.linalg.norm(log_map(
                         between(before, trial))) < params.convergence_threshold))
        before, pose = pose, trial
    rms = float(np.sqrt(np.mean(corrs.residuals ** 2)))
    return AlignResult(pose, unit_hessian(corrs, pose), rms, corrs, iterations,
                       converged, tuple(trace))


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


def preintegrate_recursive(samples, bias, *, sigma_gyro, sigma_accel):
    """Midpoint preintegration by propagating one linearized step at a
    time, e' = phi e + g_in [db_a; db_g]: the bias Jacobian and covariance
    as step-by-step recursions, not as a sum over steps. Returns (delta
    rotation, velocity, position, covariance, bias Jacobian)."""
    times = samples.timestamp
    accel_bias, gyro_bias = bias[:3], bias[3:]
    noise = np.repeat([sigma_accel ** 2, sigma_gyro ** 2], 3)

    # what each step needs of its two samples, for all steps at once
    dts = np.diff(times)
    gyro = samples.angular_velocity
    force = samples.specific_force - accel_bias
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

    return d_rot, d_vel, d_pos, 0.5 * (cov + cov.T), jac


def damped_step_reference(lower, grav, b, damping):
    """graph._damped_step as it was before the band was factored in place:
    the damped band mirrored into a fresh (2u + 1, n) array in general band
    storage, band[u + r - c, c] = H[r, c], solved by
    scipy.linalg.solve_banded, which copies it into gbsv's layout."""
    u, n = lower.shape[0] - 1, lower.shape[1]
    band = np.zeros((2 * u + 1, n), order="F")
    band[u:] = lower
    for k in range(1, u + 1):
        band[u - k, k:] = lower[k, :-k]
    band[u] += damping
    if grav is None:
        return solve_banded((u, u), band, -b, check_finite=False)
    border = grav[:n]
    x = solve_banded((u, u), band, np.column_stack([-b[:n], border]),
                     check_finite=False)
    g = np.linalg.solve(grav[n:] + damping * np.eye(2) - border.T @ x[:, 1:],
                        -b[n:] - border.T @ x[:, 0])
    return np.concatenate([x[:, 0] - x[:, 1:] @ g, g])


def optimize_reference(graph, first=0, max_iterations=50):
    """graph.optimize(first, max_iterations) as it was before the graph
    kept anything between solves: each solve stacks the active factors of
    each class with ``cls.stack`` and computes every slot of its J^T W J
    entries and J^T W r rows, and each assembly concatenates the blocks
    before its bincount. Moves graph.states and graph.gravity; leaves out
    optimize's argument checks."""
    n = len(graph.states)
    kinds = {}
    for factor in graph.factors:
        kinds.setdefault(type(factor), []).append(factor)
    stacks = []
    for cls, members in kinds.items():
        active = [f for f in members if max(f.indices) >= first]
        if active:
            stacks.append(cls.stack(active))
    if not stacks:
        stacks = [cls.stack(members) for cls, members in kinds.items()]
        c = _total(stacks, [s.residual(graph.states, graph.gravity)
                            for s in stacks])
        return OptimizeResult(c, c, 0, True, [])
    n_free = STATE_DIM * (n - first)
    use_gravity = any(s.kind == "gravity" for s in stacks)
    n_cols = n_free + (2 if use_gravity else 0)
    span = max(int(np.ptp(np.stack(s.indices), axis=0).max())
               for s in stacks)
    u = min(STATE_DIM * (span + 1), n_free) - 1
    band_size = (u + 1) * n_free
    dump = band_size + (2 * n_cols if use_gravity else 0)
    entry_slots, b_rows = [], []
    for stack in stacks:
        cols = [np.where((idx >= first)[:, None], (idx - first)[:, None]
                         * STATE_DIM + np.arange(STATE_DIM), -1)
                for idx in stack.indices]
        if use_gravity:
            cols.append(np.broadcast_to(np.arange(n_free, n_cols),
                                        (len(cols[0]), 2)))
        cols = np.concatenate(cols, axis=1)
        r, c = cols[:, :, None], cols[:, None, :]
        slot = np.where(c < n_free, r + u * c,
                        band_size + 2 * r + c - n_free)
        slot[(r < 0) | (c < 0)
             | ((c < n_free) & ((r < c) | (r >= n_free)))] = dump
        entry_slots.append(slot.ravel())
        b_rows.append(np.where(cols < 0, n_cols, cols).ravel())
    entry_slots = np.concatenate(entry_slots)
    b_rows = np.concatenate(b_rows)

    states = graph.states
    gravity = graph.gravity.copy()

    def assemble():
        basis = gravity_basis(gravity) if use_gravity else None
        residuals, h_vals, b_vals = [], [], []
        for stack in stacks:
            r, jacs, g_block = stack.linearize(states, gravity)
            parts = list(jacs)
            if use_gravity:
                parts.append(np.zeros(r.shape + (2,)) if g_block is None
                             else g_block @ basis)
            jac = np.concatenate(parts, axis=-1)
            jtw = np.swapaxes(jac, -1, -2) @ stack.information
            residuals.append(r)
            h_vals.append(jtw @ jac)
            b_vals.append(matvec(jtw, r))
        data = np.bincount(entry_slots, minlength=dump + 1, weights=
                           np.concatenate([h.ravel() for h in h_vals]))
        b = np.bincount(b_rows, minlength=n_cols + 1, weights=
                        np.concatenate([g.ravel() for g in b_vals]))
        data, b = data[:dump], b[:n_cols]
        if not (np.isfinite(data).all() and np.isfinite(b).all()):
            raise _nonfinite(stacks, h_vals, b_vals)
        lower = data[:band_size].reshape(u + 1, n_free, order="F")
        grav = data[band_size:].reshape(n_cols, 2) if use_gravity else None
        return lower, grav, b, residuals

    def apply_step(delta):
        moved = retract_state(states[first:],
                              delta[:n_free].reshape(-1, STATE_DIM))
        new_gravity = gravity
        if use_gravity:
            new_gravity = retract_gravity(gravity, delta[n_free:])
        return states[:first].join(moved), new_gravity

    lower, grav, b_vec, residuals = assemble()
    initial_cost = cost = _total(stacks, residuals)
    damping = DAMPING_INIT
    records = []
    converged = False
    for it in range(max_iterations):
        accepted = False
        solver_produced_step = False
        step_norm = 0.0
        while damping <= DAMPING_MAX:
            try:
                delta = damped_step_reference(lower, grav, b_vec, damping)
            except np.linalg.LinAlgError:
                delta = None
            if delta is None or not np.all(np.isfinite(delta)):
                damping *= 10.0
                continue
            solver_produced_step = True
            try:
                with np.errstate(over="raise", invalid="raise"):
                    predicted = 0.5 * (damping * (delta @ delta)
                                       - delta @ b_vec)
                    if np.abs(delta).max() < STEP_TOL \
                            or predicted <= REL_COST_TOL * cost:
                        break
                    trial_states, trial_gravity = apply_step(delta)
                    trial_cost = _total(stacks, [
                        s.residual(trial_states, trial_gravity)
                        for s in stacks])
            except (ValueError, FloatingPointError):
                trial_cost = np.inf
            if np.isfinite(trial_cost) and trial_cost < cost:
                states, gravity = trial_states, trial_gravity
                step_norm = float(np.abs(delta).max())
                cost = trial_cost
                damping = max(damping * 0.5, DAMPING_MIN)
                accepted = True
                break
            damping *= 10.0
        records.append(IterationRecord(it, cost, damping, step_norm,
                                       accepted))
        if not accepted:
            if not solver_produced_step:
                raise SingularSystem("linear solve failed at all damping "
                                     "levels")
            converged = True
            break
        if it + 1 < max_iterations:
            lower, grav, b_vec, _ = assemble()

    graph.states = states
    graph.gravity = gravity
    return OptimizeResult(initial_cost, cost, len(records), converged,
                          records)
