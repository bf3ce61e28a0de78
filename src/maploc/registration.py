"""Point-to-plane scan-to-map registration.

Residual per correspondence: r = n^T (T p - q) with p a body-frame scan
point, q a map point carrying unit normal n. Jacobian rows are taken with
respect to a left (world-frame) perturbation exp(xi) T in [rot; trans]
ordering: J = [ (T p) x n , n ].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NoCorrespondences
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
    """Matched pairs, struct-of-arrays, ordered by scan point index.

    find_correspondences also keeps the pose it associated at and the world
    points it computed the residuals from, so that assemble_system and
    align's final Hessian at that pose transform no point again. The
    arrays are the pairs' own: a later association on the same memo does
    not change them.
    """

    source_points: np.ndarray   # (N, 3) body frame
    target_points: np.ndarray   # (N, 3) world frame
    target_normals: np.ndarray  # (N, 3) unit
    residuals: np.ndarray       # (N,) signed point-to-plane distances
    world_points: np.ndarray | None = None  # (N, 3) source at pose
    pose: Pose | None = None

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


# Margin, in metres, by which a point's nearest map point must beat its
# second nearest for _NearestMemo to keep it; it absorbs the rounding of the
# distances, which is ~1e-16 of their size.
_KEEP_MARGIN = 1e-9


def _checked_scan(scan):
    """The scan as an (N, 3) float array; DataError names a malformed one."""
    try:
        scan = np.asarray(scan, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"scan is not a numeric array: {exc}") from None
    if scan.shape[:1] == (0,):
        raise NoCorrespondences("scan holds no points")
    if scan.ndim != 2 or scan.shape[1] != 3:
        raise DataError(f"scan must have shape (N, 3), not {scan.shape}")
    if not np.isfinite(scan).all():
        row = int(np.argmin(np.isfinite(scan).all(axis=1)))
        raise DataError(f"scan row {row} is not finite: {scan[row].tolist()}")
    return scan


class _NearestMemo:
    """Each scan point's nearest map point, kept across one align call (one
    correspondence gate, whose bound its queries take).

    For each point it holds its world position at its last k-d query (the
    anchor), the nearest and second nearest distances d1 and d2 found there
    (knn's guard distance: at most the query's bound, inf on a one-point
    map), and that nearest map point (target), its normal and whether the
    normal is finite (has_normal). A point that has since moved by m is at
    most d1 + m from that map point and at least d2 - m from every other,
    so while d1 + 2m < d2 (less a rounding margin) its nearest point cannot
    have changed, ties included; nor can that of a point that has not
    moved. Only the other points are queried again, and only their rows
    of the state are written. A point with no map point within the bound
    has d1 = inf and a NaN target and normal, so it matches nothing and is
    queried again once it moves; a NaN in the test counts as stale. A
    fresh memo has NaN everywhere, so its first association queries every
    point.
    """

    def __init__(self, scan, pose):
        self.scan = _checked_scan(scan)
        # the start pose, checked once: align's later poses are finite steps
        if not np.isfinite(pose.matrix()).all():
            raise DataError(f"pose is not finite: {pose.matrix()[:3].tolist()}")
        n = len(self.scan)
        self.anchor = np.full((n, 3), np.nan)
        self.d1 = np.full(n, np.nan)
        self.d2 = np.full(n, np.nan)
        self.target = np.full((n, 3), np.nan)
        self.normal = np.full((n, 3), np.nan)
        self.has_normal = np.zeros(n, dtype=bool)

    def stale(self, world):
        """Rows whose nearest map point may differ from the memo's."""
        moved = world - self.anchor
        moved = np.sqrt(np.einsum("ij,ij->i", moved, moved))
        return ~((self.d1 + 2.0 * moved + _KEEP_MARGIN < self.d2)
                 | (moved == 0.0))

    def nearest(self, world, map_index, workers, bound=np.inf):
        """Each world point's nearest map point within bound, its normal and
        whether that is finite, with one k-d query for the stale rows. The
        lowest index wins a tie. Returns the memo's own arrays."""
        rows = np.flatnonzero(self.stale(world))
        if rows.size == len(world):
            # every row, as at each align's first association: whole-array
            # writes, several times faster than writes by index
            rows, moved = slice(None), world
        else:
            # np.take gathers rows several times faster than fancy indexing
            moved = np.take(world, rows, axis=0)
        dist, idx, beyond = map_index.knn(moved, 1, workers=workers,
                                          guard=True, bound=bound)
        idx = idx[:, 0]
        miss = idx == map_index.size
        # a row with no map point gathers the last one, then NaN
        target = np.take(map_index.cloud.points, idx, axis=0, mode="clip")
        normal = np.take(map_index.cloud.normals, idx, axis=0, mode="clip")
        target[miss] = normal[miss] = np.nan
        self.anchor[rows] = moved
        self.d1[rows] = dist[:, 0]
        self.d2[rows] = beyond
        self.target[rows] = target
        self.normal[rows] = normal
        self.has_normal[rows] = np.isfinite(normal[:, 0])
        return self.target, self.normal, self.has_normal


def find_correspondences(scan: np.ndarray, map_index: SpatialIndex, pose: Pose,
                         max_distance: float, workers: int = 1,
                         memo: _NearestMemo | None = None) -> Correspondences:
    """Nearest map point per transformed scan point, within max_distance.

    Map points without a valid normal are skipped. Raises DataError when
    the scan is not (N, 3) or it or the pose is not finite, ValueError when
    the map carries no normals, both before any k-d query, and
    NoCorrespondences when it is empty or nothing matches. Output order
    follows scan point order. align passes the memo it built from this
    scan, so that each association re-queries only the points whose nearest
    map point may have changed and gathers only their rows from the map;
    the result is the same as without it. The pairs keep the world points
    and the pose they were associated at.
    """
    if memo is None:
        memo = _NearestMemo(scan, pose)
    if map_index.cloud.normals is None:
        raise ValueError("map cloud carries no normals")
    world = pose.transform(memo.scan)
    # queried just past the gate, so that the tree's rounding cannot drop a
    # point the gate keeps; a point far from the map meets no candidate
    target, normal, has_normal = memo.nearest(
        world, map_index, workers, bound=max_distance * (1.0 + 1e-9))
    delta = world - target
    # summed as the k-d tree sums it, so a kept distance equals a fresh one
    distance = np.sqrt(delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1]
                       + delta[:, 2] * delta[:, 2])
    residual = np.einsum("ij,ij->i", normal, delta)
    rows = np.flatnonzero((distance <= max_distance) & has_normal)
    if not rows.size:
        raise NoCorrespondences(
            f"no scan point within {max_distance} m of a map point with a normal")
    if rows.size == len(world):  # every row matches: copy, no gather
        pairs = memo.scan.copy(), target.copy(), normal.copy(), residual, world
    else:
        pairs = [np.take(a, rows, axis=0)
                 for a in (memo.scan, target, normal, residual, world)]
    return Correspondences(*pairs, pose)


def _residuals(corrs: Correspondences, pose: Pose):
    """Signed point-to-plane distances at pose, and the world points: the
    association's own when pose is the one it was made at."""
    if pose is corrs.pose:
        return corrs.residuals, corrs.world_points
    world = pose.transform(corrs.source_points)
    return (np.einsum("ij,ij->i", corrs.target_normals,
                      world - corrs.target_points), world)


def _plane_system(world, normals, weights=None):
    """Point-to-plane rows J = [p x n, n] at world points p, and the
    symmetrized J^T W J (unit weights when weights is None)."""
    (x, y, z), (nx, ny, nz) = world.T, normals.T
    jac = np.empty((len(world), 6))
    # p x n in np.cross's operation order
    np.subtract(y * nz, z * ny, out=jac[:, 0])
    np.subtract(z * nx, x * nz, out=jac[:, 1])
    np.subtract(x * ny, y * nx, out=jac[:, 2])
    jac[:, 3:] = normals
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
    Re-associations query the k-d tree only for the scan points whose
    nearest map point may have changed (_NearestMemo), and each step
    transforms the scan once (Correspondences keeps the world points).
    """
    params.validate()
    memo = _NearestMemo(scan, initial_pose)
    pose = before = initial_pose
    damping = _DAMPING_INIT
    converged = False
    trace = []
    for iterations in range(params.max_iterations + 1):
        corrs = find_correspondences(scan, map_index, pose,
                                     params.max_correspondence_distance, workers,
                                     memo)
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
    # the last association was made at pose: its world points serve
    hessian = _plane_system(corrs.world_points, corrs.target_normals)[1]
    return AlignResult(pose, hessian, rms, corrs, iterations, converged,
                       tuple(trace))
