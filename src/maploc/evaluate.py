"""Trajectory metrics (ATE, RPE) and map metrics (accuracy, completeness).

All reported distances are centimeters and completeness is a percentage,
matching the units used in the output reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometry,
    NoInliers,
    NoMatches,
    NonMonotonicTimestamps,
)
from .geometry import (
    PointCloud,
    Pose,
    between,
    build_index,
    compose,
    log_map,
)

DEFAULT_MAX_DT = 0.05       # s, association gate
DEFAULT_THRESHOLD = 0.20    # m, map accuracy / completeness gate
M_TO_CM = 100.0


@dataclass(frozen=True)
class Trajectory:
    timestamps: np.ndarray
    poses: tuple

    def __post_init__(self):
        ts = np.ascontiguousarray(self.timestamps, dtype=float)
        if ts.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if np.any(np.diff(ts) <= 0):
            raise NonMonotonicTimestamps("trajectory timestamps must strictly increase")
        poses = tuple(self.poses)
        if len(poses) != ts.shape[0]:
            raise ValueError("timestamp/pose count mismatch")
        ts.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "poses", poses)

    def __len__(self):
        return self.timestamps.shape[0]

    @property
    def positions(self):
        return np.array([p.translation for p in self.poses])

    def transformed(self, q: Pose) -> "Trajectory":
        return Trajectory(self.timestamps.copy(),
                          tuple(compose(q, p) for p in self.poses))


def associate(est: Trajectory, ref: Trajectory, max_dt=DEFAULT_MAX_DT):
    """Greedy nearest-timestamp pairing, each reference used at most once.

    Estimated entries are visited in time order; each takes the nearest
    still-unused reference entry within max_dt.
    """
    if len(est) == 0 or len(ref) == 0:
        raise NoMatches("cannot associate an empty trajectory")
    ref_t = ref.timestamps
    used = np.zeros(len(ref), dtype=bool)
    pairs = []
    for i, t in enumerate(est.timestamps):
        insertion = int(np.searchsorted(ref_t, t))
        lo, hi = insertion - 1, insertion
        # expand outward from the insertion point, nearer side first; the
        # first unused candidate inside the gate is the nearest unused
        while lo >= 0 or hi < len(ref_t):
            d_lo = t - ref_t[lo] if lo >= 0 else np.inf
            d_hi = ref_t[hi] - t if hi < len(ref_t) else np.inf
            if min(d_lo, d_hi) > max_dt:
                break
            if d_lo <= d_hi:
                if not used[lo]:
                    used[lo] = True
                    pairs.append((i, lo))
                    break
                lo -= 1
            else:
                if not used[hi]:
                    used[hi] = True
                    pairs.append((i, hi))
                    break
                hi += 1
    if not pairs:
        raise NoMatches(f"no timestamp pairs within {max_dt} s")
    return pairs


def align_se3(source, target) -> Pose:
    """Least-squares rigid transform q minimizing sum |q*source - target|^2.

    Closed form: SVD of the centered cross-covariance with a reflection
    guard on the determinant.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.ndim != 2 or source.shape[1] != 3:
        raise ValueError("need matching (N, 3) position arrays")
    if source.shape[0] < 3:
        raise DegenerateGeometry("need at least 3 position pairs")
    centroid_s = source.mean(axis=0)
    centroid_t = target.mean(axis=0)
    src = source - centroid_s
    tgt = target - centroid_t
    spread = np.linalg.svd(src, compute_uv=False)
    if spread[1] <= 1e-9 * max(spread[0], 1e-300):
        raise DegenerateGeometry("positions are collinear or coincident")
    u, _, vt = np.linalg.svd(src.T @ tgt)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return Pose(rotation, centroid_t - rotation @ centroid_s)


@dataclass(frozen=True)
class AteResult:
    rmse_cm: float
    alignment: Pose
    pairs: int


def ate(est: Trajectory, ref: Trajectory, max_dt=DEFAULT_MAX_DT) -> AteResult:
    """Absolute trajectory error: RMSE (cm) of translational residuals
    after rigid alignment of the associated positions."""
    pairs = associate(est, ref, max_dt)
    est_pos = np.array([est.poses[i].translation for i, _ in pairs])
    ref_pos = np.array([ref.poses[j].translation for _, j in pairs])
    q = align_se3(est_pos, ref_pos)
    residuals = q.transform(est_pos) - ref_pos
    rmse = float(np.sqrt(np.mean(np.sum(residuals ** 2, axis=1))))
    return AteResult(rmse * M_TO_CM, q, len(pairs))


@dataclass(frozen=True)
class RpeResult:
    rmse_cm: float
    rot_rmse_rad: float
    windows: int


def _relative_error(est, ref, first, last):
    """Relative-motion error twist between two associated (est, ref) pairs."""
    rel_est = between(est.poses[first[0]], est.poses[last[0]])
    rel_ref = between(ref.poses[first[1]], ref.poses[last[1]])
    return log_map(between(rel_ref, rel_est))


def rpe(est: Trajectory, ref: Trajectory, delta: int = 1,
        max_dt=DEFAULT_MAX_DT) -> RpeResult:
    """Relative pose error over windows of `delta` associated frames:
    RMSE (cm) of the translational part of the relative-motion error."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    pairs = associate(est, ref, max_dt)
    if len(pairs) < delta + 1:
        raise NoMatches(f"need at least {delta + 1} pairs for delta={delta}")
    trans_sq = []
    rot_sq = []
    for k in range(len(pairs) - delta):
        err = _relative_error(est, ref, pairs[k], pairs[k + delta])
        rot_sq.append(float(err[:3] @ err[:3]))
        trans_sq.append(float(err[3:] @ err[3:]))
    return RpeResult(float(np.sqrt(np.mean(trans_sq))) * M_TO_CM,
                     float(np.sqrt(np.mean(rot_sq))),
                     len(trans_sq))


def rpe_per_meter(est: Trajectory, ref: Trajectory, distance: float = 1.0,
                  max_dt=DEFAULT_MAX_DT):
    """Distance-normalized RPE (cm per meter traveled).

    For each associated start frame, the window ends at the first later
    frame at least `distance` meters along the reference path; the
    translational error is normalized by the actual segment length.
    Returns None when the path never accumulates `distance`.
    """
    pairs = associate(est, ref, max_dt)
    ref_pos = np.array([ref.poses[j].translation for _, j in pairs])
    seg = np.linalg.norm(np.diff(ref_pos, axis=0), axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(seg)])
    normalized_sq = []
    end = 0
    for start in range(len(pairs)):
        target = cumulative[start] + distance
        while end < len(pairs) and cumulative[end] < target:
            end += 1
        if end >= len(pairs):
            break
        traveled = cumulative[end] - cumulative[start]
        if traveled <= 0:
            continue
        err = _relative_error(est, ref, pairs[start], pairs[end])
        normalized_sq.append(float(err[3:] @ err[3:]) / traveled ** 2)
    if not normalized_sq:
        return None
    return float(np.sqrt(np.mean(normalized_sq))) * M_TO_CM


def map_accuracy(est_map: PointCloud, gt_map: PointCloud,
                 threshold: float = DEFAULT_THRESHOLD, workers: int = 1) -> float:
    """Mean distance (cm) from estimated points to their nearest GT point,
    over estimated points whose nearest GT neighbor is within threshold."""
    index = build_index(gt_map)
    dist, _ = index.nearest(est_map.points, workers=workers)
    inliers = dist <= threshold
    if not np.any(inliers):
        raise NoInliers(f"no estimated point within {threshold} m of the GT map")
    return float(dist[inliers].mean()) * M_TO_CM


def map_completeness(est_map: PointCloud, gt_map: PointCloud,
                     threshold: float = DEFAULT_THRESHOLD, workers: int = 1) -> float:
    """Percentage of GT points whose nearest estimated point is within
    threshold. 0% is a valid result."""
    index = build_index(est_map)
    dist, _ = index.nearest(gt_map.points, workers=workers)
    return float(np.mean(dist <= threshold)) * 100.0


@dataclass(frozen=True)
class MetricsReport:
    ate_rmse_cm: float
    rpe_rmse_cm: float
    rpe_rot_rmse_rad: float
    rpe_delta: int
    rpe_per_meter_cm: float | None
    matched_pairs: int
    alignment: Pose
    map_acc_cm: float | None = None
    map_com_percent: float | None = None

    def as_dict(self):
        alignment = self.alignment
        return {
            "ate_rmse_cm": self.ate_rmse_cm,
            "rpe_rmse_cm": self.rpe_rmse_cm,
            "rpe_rot_rmse_rad": self.rpe_rot_rmse_rad,
            "rpe_delta": self.rpe_delta,
            "rpe_per_meter_cm": self.rpe_per_meter_cm,
            "matched_pairs": self.matched_pairs,
            "alignment_rotation": alignment.rotation.tolist(),
            "alignment_translation": alignment.translation.tolist(),
            "map_acc_cm": self.map_acc_cm,
            "map_com_percent": self.map_com_percent,
        }


def compute_metrics(est: Trajectory, ref: Trajectory, delta: int = 1,
                    est_map: PointCloud | None = None,
                    gt_map: PointCloud | None = None,
                    threshold: float = DEFAULT_THRESHOLD,
                    max_dt=DEFAULT_MAX_DT, workers: int = 1) -> MetricsReport:
    ate_result = ate(est, ref, max_dt)
    rpe_result = rpe(est, ref, delta, max_dt)
    per_meter = rpe_per_meter(est, ref, max_dt=max_dt)
    acc = com = None
    if est_map is not None and gt_map is not None:
        acc = map_accuracy(est_map, gt_map, threshold, workers=workers)
        com = map_completeness(est_map, gt_map, threshold, workers=workers)
    return MetricsReport(ate_result.rmse_cm, rpe_result.rmse_cm,
                         rpe_result.rot_rmse_rad, delta, per_meter,
                         ate_result.pairs, ate_result.alignment, acc, com)
