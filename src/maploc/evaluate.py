"""Trajectory metrics (ATE, RPE) and map metrics (accuracy, completeness).

All reported distances are centimeters and completeness is a percentage,
matching the units used in the output reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateGeometry,
    NoInliers,
    NoMatches,
    NonMonotonicTimestamps,
)
from .geometry import (PointCloud, Pose, SpatialIndex, build_index,
                       first_bad_timestamp, matvec, se3_log)

DEFAULT_MAX_DT = 0.05       # s, association gate
DEFAULT_THRESHOLD = 0.20    # m, map accuracy / completeness gate
M_TO_CM = 100.0


@dataclass(frozen=True)
class Trajectory:
    """Timestamped world_from_body poses as three read-only arrays:
    timestamps (N,), strictly increasing, rotations (N, 3, 3) and
    translations (N, 3), all finite. An int index gives one Pose, and
    iteration yields the Poses in time order."""

    timestamps: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        ts, rot, trans = (np.array(a, dtype=float) for a in
                          (self.timestamps, self.rotations, self.translations))
        if ts.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if rot.shape != (len(ts), 3, 3) or trans.shape != (len(ts), 3):
            raise ValueError("timestamp/pose count mismatch")
        k = first_bad_timestamp(ts)
        if k is not None:
            raise NonMonotonicTimestamps(
                f"trajectory timestamp {k} (t={ts[k]:.9f}) is not finite or "
                "does not increase past the one before")
        bad = np.flatnonzero(~np.isfinite(np.hstack([rot.reshape(-1, 9),
                                                     trans])).all(axis=1))
        if bad.size:
            raise DataError(f"trajectory pose {bad[0]} is not finite")
        for name, a in (("timestamps", ts), ("rotations", rot),
                        ("translations", trans)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self):
        return self.timestamps.shape[0]

    def __getitem__(self, k) -> Pose:
        return Pose(self.rotations[k], self.translations[k])

    def __iter__(self):
        return map(Pose, self.rotations, self.translations)

    def transformed(self, q: Pose) -> "Trajectory":
        """Every pose composed on the left with q."""
        return Trajectory(self.timestamps, q.rotation @ self.rotations,
                          self.translations @ q.rotation.T + q.translation)


def associate(est: Trajectory, ref: Trajectory, max_dt=DEFAULT_MAX_DT):
    """Greedy nearest-timestamp pairing, each reference used at most once.

    Estimated entries are visited in time order; each takes the nearest
    still-unused reference entry within max_dt. Returns the (M, 2) int
    array of (est row, ref row) pairs.
    """
    if len(est) == 0 or len(ref) == 0:
        raise NoMatches("cannot associate an empty trajectory")
    ref_t, est_t = ref.timestamps, est.timestamps
    # each search window spans twice the gate, so no rounding at its ends
    # drops a reference entry that the gate test below admits
    lo = np.searchsorted(ref_t, est_t - 2.0 * max_dt)
    hi = np.searchsorted(ref_t, est_t + 2.0 * max_dt, side="right")
    used = np.zeros(len(ref), dtype=bool)
    pairs = []
    for i, t in enumerate(est_t):
        gap = np.abs(ref_t[lo[i]:hi[i]] - t)
        gap[used[lo[i]:hi[i]] | (gap > max_dt)] = np.inf
        if gap.size and gap.min() < np.inf:
            j = lo[i] + int(np.argmin(gap))  # the earlier one on a tie
            used[j] = True
            pairs.append((i, j))
    if not pairs:
        raise NoMatches(f"no timestamp pairs within {max_dt} s")
    return np.array(pairs, dtype=int)


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


def _rms(rows) -> float:
    """Root mean square of the rows' Euclidean norms."""
    return float(np.sqrt(np.mean(np.sum(rows ** 2, axis=1))))


@dataclass(frozen=True)
class AteResult:
    rmse_cm: float
    alignment: Pose
    pairs: int


def ate(est: Trajectory, ref: Trajectory, max_dt=DEFAULT_MAX_DT) -> AteResult:
    """Absolute trajectory error: RMSE (cm) of translational residuals
    after rigid alignment of the associated positions."""
    return _ate(est, ref, associate(est, ref, max_dt))


def _ate(est, ref, pairs) -> AteResult:
    """ate over the (est row, ref row) pairs of associate."""
    est_pos = est.translations[pairs[:, 0]]
    ref_pos = ref.translations[pairs[:, 1]]
    q = align_se3(est_pos, ref_pos)
    return AteResult(_rms(q.transform(est_pos) - ref_pos) * M_TO_CM, q,
                     len(pairs))


@dataclass(frozen=True)
class RpeResult:
    rmse_cm: float
    rot_rmse_rad: float
    windows: int


def _relative_error(est, ref, first_rows, last_rows):
    """Relative-motion error twist of each window, from the associated
    (est row, ref row) pairs first_rows (W, 2) to last_rows (W, 2)."""
    def motion(traj, first, last):
        inv_rot = np.swapaxes(traj.rotations[first], 1, 2)
        return (inv_rot @ traj.rotations[last],
                matvec(inv_rot, traj.translations[last]
                       - traj.translations[first]))

    est_rot, est_trans = motion(est, first_rows[:, 0], last_rows[:, 0])
    ref_rot, ref_trans = motion(ref, first_rows[:, 1], last_rows[:, 1])
    inv_ref = np.swapaxes(ref_rot, 1, 2)
    return se3_log(inv_ref @ est_rot, matvec(inv_ref, est_trans - ref_trans))


def rpe(est: Trajectory, ref: Trajectory, delta: int = 1,
        max_dt=DEFAULT_MAX_DT) -> RpeResult:
    """Relative pose error over windows of `delta` associated frames:
    RMSE (cm) of the translational part of the relative-motion error."""
    return _rpe(est, ref, associate(est, ref, max_dt), delta)


def _rpe(est, ref, pairs, delta) -> RpeResult:
    """rpe over the (est row, ref row) pairs of associate."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if len(pairs) < delta + 1:
        raise NoMatches(f"need at least {delta + 1} pairs for delta={delta}")
    err = _relative_error(est, ref, pairs[:-delta], pairs[delta:])
    return RpeResult(_rms(err[:, 3:]) * M_TO_CM, _rms(err[:, :3]), len(err))


def rpe_per_meter(est: Trajectory, ref: Trajectory, distance: float = 1.0,
                  max_dt=DEFAULT_MAX_DT):
    """Distance-normalized RPE (cm per meter traveled).

    For each associated start frame, the window ends at the first later
    frame at least `distance` meters along the reference path; the
    translational error is normalized by the actual segment length.
    Returns None when the path never accumulates `distance`.
    """
    return _rpe_per_meter(est, ref, associate(est, ref, max_dt), distance)


def _rpe_per_meter(est, ref, pairs, distance=1.0):
    """rpe_per_meter over the (est row, ref row) pairs of associate."""
    seg = np.linalg.norm(np.diff(ref.translations[pairs[:, 1]], axis=0),
                         axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(seg)])
    end = np.searchsorted(cumulative, cumulative + distance)
    start = np.flatnonzero(end < len(pairs))
    end = end[start]
    traveled = cumulative[end] - cumulative[start]
    start, end, traveled = (a[traveled > 0] for a in (start, end, traveled))
    if not len(start):
        return None
    err = _relative_error(est, ref, pairs[start], pairs[end])
    return _rms(err[:, 3:] / traveled[:, None]) * M_TO_CM


def map_accuracy(est_map: PointCloud, gt_map: PointCloud,
                 threshold: float = DEFAULT_THRESHOLD, workers: int = 1,
                 gt_index: SpatialIndex | None = None) -> float:
    """Mean distance (cm) from estimated points to their nearest GT point,
    over estimated points whose nearest GT neighbor is within threshold.
    gt_index, an index over gt_map, spares building one."""
    if gt_index is None:
        gt_index = build_index(gt_map)
    dist = gt_index.nearest_distance(est_map.points, threshold, workers)
    inliers = dist <= threshold
    if not np.any(inliers):
        raise NoInliers(f"no estimated point within {threshold} m of the GT map")
    return float(dist[inliers].mean()) * M_TO_CM


def map_completeness(est_map: PointCloud, gt_map: PointCloud,
                     threshold: float = DEFAULT_THRESHOLD, workers: int = 1) -> float:
    """Percentage of GT points whose nearest estimated point is within
    threshold. 0% is a valid result."""
    dist = build_index(est_map).nearest_distance(gt_map.points, threshold,
                                                 workers)
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
        """The fields, with the alignment as alignment_rotation (nested
        lists) and alignment_translation."""
        out = {k: v for k, v in vars(self).items() if k != "alignment"}
        return dict(out, alignment_rotation=self.alignment.rotation.tolist(),
                    alignment_translation=self.alignment.translation.tolist())


def compute_metrics(est: Trajectory, ref: Trajectory, delta: int = 1,
                    est_map: PointCloud | None = None,
                    gt_map: PointCloud | None = None,
                    threshold: float = DEFAULT_THRESHOLD,
                    max_dt=DEFAULT_MAX_DT, workers: int = 1,
                    gt_index: SpatialIndex | None = None) -> MetricsReport:
    pairs = associate(est, ref, max_dt)
    ate_result = _ate(est, ref, pairs)
    rpe_result = _rpe(est, ref, pairs, delta)
    per_meter = _rpe_per_meter(est, ref, pairs)
    acc = com = None
    if est_map is not None and gt_map is not None:
        acc = map_accuracy(est_map, gt_map, threshold, workers=workers,
                           gt_index=gt_index)
        com = map_completeness(est_map, gt_map, threshold, workers=workers)
    return MetricsReport(ate_result.rmse_cm, rpe_result.rmse_cm,
                         rpe_result.rot_rmse_rad, delta, per_meter,
                         ate_result.pairs, ate_result.alignment, acc, com)
