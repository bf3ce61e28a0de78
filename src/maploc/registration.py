"""Point-to-plane scan-to-map registration.

Residual per correspondence: r = n^T (T p - q) with p a body-frame scan
point, q a map point carrying unit normal n. Jacobian rows are taken with
respect to a left (world-frame) perturbation exp(xi) T in [rot; trans]
ordering: J = [ (T p) x n , n ].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoCorrespondences
from .geometry import Pose, SpatialIndex, between, compose, exp_map, log_map

# Levenberg damping bounds for the inner step loop.
_DAMPING_INIT = 1e-6
_DAMPING_MAX = 1e8
_DAMPING_MIN = 1e-12


@dataclass(frozen=True)
class RegistrationParams:
    max_correspondence_distance: float = 1.0
    max_iterations: int = 30
    convergence_threshold: float = 1e-6
    kernel_width: float = 0.1  # Huber width, meters

    def validate(self):
        if self.max_correspondence_distance <= 0:
            raise ValueError("max_correspondence_distance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_threshold <= 0 or self.kernel_width <= 0:
            raise ValueError("thresholds must be > 0")


@dataclass(frozen=True)
class Correspondences:
    """Matched pairs, struct-of-arrays, ordered by scan point index."""

    source_points: np.ndarray   # (N, 3) body frame
    target_points: np.ndarray   # (N, 3) world frame
    target_normals: np.ndarray  # (N, 3) unit
    residuals: np.ndarray       # (N,) signed point-to-plane distances

    def __len__(self):
        return self.source_points.shape[0]


@dataclass(frozen=True)
class AlignResult:
    pose: Pose
    hessian: np.ndarray           # 6x6 unit-weight Gauss-Newton Hessian at pose
    residual_rms: float
    correspondences: Correspondences
    iterations: int
    converged: bool
    # (cost_before, cost_after) per accepted step, fixed associations
    cost_trace: tuple = field(default=())


def find_correspondences(scan: np.ndarray, map_index: SpatialIndex, pose: Pose,
                         max_distance: float, workers: int = 1) -> Correspondences:
    """Nearest map point per transformed scan point, within max_distance.

    Map points without a valid normal are skipped. Raises NoCorrespondences
    when the scan is empty or nothing matches. Output order follows scan
    point order.
    """
    scan = np.asarray(scan, dtype=float)
    if not len(scan):
        raise NoCorrespondences("scan holds no points")
    world = pose.transform(scan)
    dist, idx = map_index.nearest(world, workers=workers)
    normals = map_index.cloud.normals
    if normals is None:
        raise ValueError("map cloud carries no normals")
    valid = (dist <= max_distance) & np.isfinite(normals[idx, 0])
    if not np.any(valid):
        raise NoCorrespondences(
            f"no scan point within {max_distance} m of a map point with a normal")
    source = scan[valid]
    target = map_index.cloud.points[idx[valid]]
    normal = normals[idx[valid]]
    residual = np.einsum("ij,ij->i", normal, world[valid] - target)
    return Correspondences(source, target, normal, residual)


def _residuals(corrs: Correspondences, pose: Pose):
    """Signed point-to-plane distances at pose, and the world points."""
    world = pose.transform(corrs.source_points)
    return (np.einsum("ij,ij->i", corrs.target_normals,
                      world - corrs.target_points), world)


def _plane_system(world, normals, weights=None):
    """Point-to-plane rows J = [p x n, n] at world points p, and the
    symmetrized J^T W J (unit weights when weights is None)."""
    jac = np.hstack([np.cross(world, normals), normals])
    hessian = (jac if weights is None else jac * weights[:, None]).T @ jac
    return jac, 0.5 * (hessian + hessian.T)


def _huber_cost(residuals, kernel_width):
    a = np.abs(residuals)
    quad = a <= kernel_width
    cost = np.where(quad, 0.5 * residuals ** 2,
                    kernel_width * (a - 0.5 * kernel_width))
    return float(np.sum(cost))


def _huber_weights(residuals, kernel_width):
    a = np.abs(residuals)
    w = np.ones_like(a)
    out = a > kernel_width
    w[out] = kernel_width / a[out]
    return w


def assemble_system(corrs: Correspondences, pose: Pose, kernel_width: float):
    """IRLS normal equations of the Huber point-to-plane cost.

    Returns (H, b, cost): H = sum w J^T J, b = sum w J^T r (the exact cost
    gradient), cost = sum of Huber losses. Associations stay fixed.
    """
    r, world = _residuals(corrs, pose)
    w = _huber_weights(r, kernel_width)
    jac, hessian = _plane_system(world, corrs.target_normals, w)
    gradient = jac.T @ (w * r)
    return hessian, gradient, _huber_cost(r, kernel_width)


def reference_hessian(corrs: Correspondences):
    """Hessian of the matched map points as a self-registered scan.

    Treats the target points (already in the converged world placement) as
    the scan, so the spectrum reflects the constraint geometry the map
    offers at this location.
    """
    return _plane_system(corrs.target_points, corrs.target_normals)[1]


def align(scan: np.ndarray, map_index: SpatialIndex, initial_pose: Pose,
          params: RegistrationParams = RegistrationParams(),
          workers: int = 1) -> AlignResult:
    """Gauss-Newton with Levenberg damping, re-associating each iteration.

    Converges when an accepted step's twist norm is below the convergence
    threshold, when a step returns within that threshold of the pose before
    the previous step (re-association cycling between two sets), or when no
    damping gives an improving step. Every stop, the max_iterations cap
    included, comes right after an association: the result carries those
    pairs, their residuals, and the unit-weight Hessian at the final pose.
    """
    params.validate()
    pose = before = initial_pose
    damping = _DAMPING_INIT
    converged = False
    trace = []
    for iterations in range(params.max_iterations + 1):
        corrs = find_correspondences(scan, map_index, pose,
                                     params.max_correspondence_distance, workers)
        if converged or iterations == params.max_iterations:
            break
        hessian, gradient, cost = assemble_system(corrs, pose, params.kernel_width)
        while damping <= _DAMPING_MAX:
            step = np.linalg.solve(hessian + damping * np.eye(6), -gradient)
            trial = compose(exp_map(step), pose)
            trial_cost = _huber_cost(_residuals(corrs, trial)[0],
                                     params.kernel_width)
            if trial_cost < cost:
                break
            damping *= 10.0
        else:
            # no improving step exists at any damping: treat as converged
            converged = True
            break
        damping = max(damping * 0.5, _DAMPING_MIN)
        trace.append((cost, trial_cost))
        converged = (np.linalg.norm(step) < params.convergence_threshold
                     or (iterations > 0 and np.linalg.norm(log_map(
                         between(before, trial))) < params.convergence_threshold))
        before, pose = pose, trial
    rms = float(np.sqrt(np.mean(corrs.residuals ** 2)))
    hessian = _plane_system(pose.transform(corrs.source_points),
                            corrs.target_normals)[1]
    return AlignResult(pose, hessian, rms, corrs, iterations, converged,
                       tuple(trace))
