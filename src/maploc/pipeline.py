"""End-to-end localization against a prior map.

The run loop walks the scan sequence, chains odometry between keyframes,
registers scans to the map on a configurable stride with degeneracy-aware
masking, detects zero-velocity intervals from the IMU, preintegrates IMU
segments, and solves a sliding-window factor graph followed by one full
batch pass. Outputs are written deterministically so identical inputs give
byte-identical files regardless of the worker thread count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .degeneracy import DegeneracyParams, detect, spectrum
from .errors import (DataError, EmptyCloud, InitializationFailure,
                     MaplocError, NoMatches, NonMonotonicTimestamps,
                     NumericalError, ParseError, SingularSystem,
                     ZeroAcceleration)
from .evaluate import MetricsReport, Trajectory, compute_metrics
from .factors import (BiasPriorFactor, BiasWalkFactor, GravityFactor,
                      ImuFactor, MapFactor, OdometryFactor,
                      PriorFactor, StateNode, ZeroVelocityFactor, ZuptParams,
                      detect_zupt, imu_samples, preintegrate)
from .geometry import (PointCloud, Pose, between, build_index, compose,
                       estimate_normals)
from .graph import FactorGraph
from .registration import RegistrationParams, align, reference_hessian
from . import io as mio

logger = logging.getLogger("maploc.pipeline")

SCAN_ODOM_MAX_DT = 0.010   # s, association gate between scans and odometry
INIT_RESIDUAL_LIMIT = 0.5  # m, first-frame registration sanity bound
_KEY_BLOCK = 1 << 16       # rows per block of voxel_downsample's key packing


@dataclass(frozen=True)
class PriorMap:
    cloud: PointCloud       # downsampled, with normals
    index: "SpatialIndex"
    voxel_size: float


@dataclass(frozen=True)
class SequenceInput:
    """One localization input: scans with timestamps, odometry, IMU.

    Scan sources may be PointClouds (in memory) or paths; the run loop reads
    each path once and keeps its cloud for the map assembly.
    The IMU stream, () for none, is rebuilt (so checked) by imu_samples.
    load_sequence sets the stream io.read_imu_csv built, so checked,
    through imu_samples after construction: each stream is checked once.
    The odometry trajectory is expressed in the map frame at its first
    pose; initial_pose overrides that anchor when given.
    """

    scans: tuple            # ((timestamp, PointCloud | path), ...)
    odometry: Trajectory
    imu: np.recarray = ()
    initial_pose: Pose = None

    def __post_init__(self):
        if len(self.imu):
            object.__setattr__(self, "imu", imu_samples(
                self.imu.timestamp, self.imu.angular_velocity,
                self.imu.specific_force))

    @classmethod
    def from_synth(cls, result, initial_pose=None):
        return cls(scans=tuple((f.timestamp, f.cloud) for f in result.scans),
                   odometry=result.odometry, imu=result.imu,
                   initial_pose=initial_pose)


@dataclass
class RunResult:
    trajectory: Trajectory
    map_cloud: PointCloud
    frames: list
    graph: FactorGraph
    metrics: MetricsReport = None
    report: dict = field(default_factory=dict)
    optimizer_records: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# map loading

def _key_spans(low, high, voxel):
    """The least cell and the cell counts per axis of the voxel grid over
    the coordinates from `low` to `high`, the per-axis extrema. A grid too
    large for packed int64 keys is a DataError."""
    # the division rounds monotonically and floor is monotone, so these are
    # the least and greatest cells
    lo = np.floor(np.asarray(low, dtype=float) / voxel)
    hi = np.floor(np.asarray(high, dtype=float) / voxel)
    if not (np.all(lo > -2.0 ** 62) and np.all(hi < 2.0 ** 62)):
        raise DataError(f"voxel grid of {voxel} m: cell indices must be "
                        "finite and below 2^62 in magnitude")
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    if math.prod(spans) > 2 ** 63:
        raise DataError(f"voxel grid of {voxel} m spans {spans[0]} x "
                        f"{spans[1]} x {spans[2]} cells, more than int64 keys")
    return lo, spans


def _voxel_keys(points, voxel):
    """Each row's packed int64 cell key, built over blocks of _KEY_BLOCK
    rows so that the float64 floor and its int64 cast are block-sized. A
    function of its own so that no block view of the key outlives it: the
    caller's `del` then frees the key.

    The extrema are taken one column at a time, as io._finite_rows takes
    its finite mask: numpy reduces (N, 3) rows along an axis several times
    slower than it reduces a column, and min and max give the same bits in
    any order. Sums and means keep their order (np.bincount adds in input
    order), since a column's sum is pairwise and would change the bits."""
    columns = points.T
    lo, spans = _key_spans([c.min() for c in columns],
                           [c.max() for c in columns], voxel)
    packed = np.zeros(len(points), dtype=np.int64)
    for start in range(0, len(points), _KEY_BLOCK):
        rows = points[start:start + _KEY_BLOCK]
        key = packed[start:start + _KEY_BLOCK]
        for axis, span in enumerate(spans):
            cells = np.floor(np.divide(rows[:, axis], voxel, dtype=float))
            key *= span
            key += cells.astype(np.int64) - int(lo[axis])
    return packed


def voxel_downsample(points, voxel, normals=None):
    """Centroid downsampling on a regular grid. Deterministic: cells are
    processed in lexicographic key order.

    Each point's cell floor(p / voxel) is packed into one int64 key whose
    order is the lexicographic (x, y, z) order. A grid too large for that
    key is a DataError. One sort of the keys gives the distinct keys, and
    np.searchsorted of each point's key among them gives its voxel's rank
    in key order, with no permutation or group-count array at full size.

    points and normals are (N, 3) rows of any float dtype, strided views
    included, and are neither copied nor cast whole: the key is packed one
    column and one block of rows at a time, each block cast to float64 for
    its own floor, and np.bincount sums each column in float64. So float32
    rows give the bits their float64 cast would.
    """
    points = np.asarray(points)
    if len(points) == 0:
        return np.zeros((0, 3)), None if normals is None else np.zeros((0, 3))
    packed = _voxel_keys(points, voxel)
    keys = np.sort(packed)
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    inverse = np.searchsorted(keys, packed)
    del packed, keys
    counts = np.bincount(inverse).astype(float)

    # np.bincount adds in input order, so each voxel's sum has the bits of
    # a sequential scatter-add
    def sums(values):
        return np.column_stack([np.bincount(inverse, weights=values[:, i])
                                for i in range(3)])

    centroids = sums(points) / counts[:, None]
    if normals is None:
        return centroids, None
    with np.errstate(invalid="ignore"):  # NaN normals, signalling ones too
        summed = sums(np.asarray(normals))
        norms = np.linalg.norm(summed, axis=1)
        averaged = summed / norms[:, None]
    averaged[norms < 1e-9] = np.nan
    return centroids, averaged


def load_map(path, voxel_size=0.1) -> PriorMap:
    """Read a PCD/PLY map, voxel-downsample it, and ensure normals.

    The file's rows go to voxel_downsample in their own dtype, so a float32
    map is never held as float64 at full size. Normals present in the file
    are centroid-averaged per voxel; missing or degenerate ones are
    re-estimated from the downsampled cloud.
    """
    if not 0 < voxel_size < math.inf:
        raise ValueError("voxel_size must be positive and finite")
    points, normals = mio.read_cloud(path)
    if len(points) == 0:
        raise EmptyCloud(f"map file {path} holds no finite points")
    try:
        points, normals = voxel_downsample(points, voxel_size, normals)
    except DataError as exc:
        raise DataError(f"map file {path}: {exc}") from exc
    if normals is None:
        normals = np.full_like(points, np.nan)
    nx, ny, nz = normals.T
    bad = ~(np.isfinite(nx) & np.isfinite(ny) & np.isfinite(nz))
    if np.any(bad) and len(points) >= 10:
        estimated = estimate_normals(PointCloud(points), k=10).normals
        normals = np.where(bad[:, None], estimated, normals)
    cloud = PointCloud(points, normals)
    return PriorMap(cloud=cloud, index=build_index(cloud),
                    voxel_size=float(voxel_size))


def load_sequence(scans_dir, odom_path, imu_path=None) -> SequenceInput:
    """The scans under scans_dir in timestamp order (equal timestamps in
    name order), odometry, and the IMU stream if imu_path is given."""
    files = sorted(Path(scans_dir).glob("*.pcd"))
    if not files:
        raise ParseError(f"no .pcd scans under {scans_dir}")
    scans = tuple(sorted(((mio.scan_timestamp(f), f) for f in files),
                         key=lambda scan: scan[0]))
    sequence = SequenceInput(scans=scans, odometry=mio.read_tum(odom_path))
    if imu_path:
        # read_imu_csv built (so checked) the stream through imu_samples
        object.__setattr__(sequence, "imu", mio.read_imu_csv(imu_path))
    return sequence


def _scan_name(k, source) -> str:
    return str(k) if isinstance(source, PointCloud) else Path(source).name


# ---------------------------------------------------------------------------
# the run loop and its stages, in the order run() calls them

def _information(fac) -> dict:
    def diag(rot_sigma, trans_sigma):
        return np.diag([1.0 / fac[rot_sigma] ** 2] * 3
                       + [1.0 / fac[trans_sigma] ** 2] * 3)
    return {
        "prior": diag("prior_rot_sigma", "prior_trans_sigma"),
        "odometry": diag("odom_rot_sigma", "odom_trans_sigma"),
        "no_motion": diag("no_motion_rot_sigma", "no_motion_trans_sigma"),
        "zero_velocity": np.eye(3) / fac["zero_velocity_sigma"] ** 2,
        "gravity": np.eye(3) / fac["gravity_direction_sigma"] ** 2,
        "bias_walk": np.eye(6) / fac["bias_walk_sigma"] ** 2,
        "bias_prior": np.eye(6) / fac["bias_prior_sigma"] ** 2,
    }


def _keyframes(sequence: SequenceInput, stride: int) -> tuple:
    """Every stride-th scan as (scan number, t, source, odometry pose): the
    pose nearest in time, the later on a tie, and within SCAN_ODOM_MAX_DT.
    Also returns the scans skipped for lack of such a pose, as report
    entries {scan, timestamp}."""
    scans = sequence.scans
    if not scans:
        raise NoMatches("sequence holds no scans")
    for k in range(1, len(scans)):
        (t0, a), (t1, b) = scans[k - 1], scans[k]
        if not t1 > t0:
            raise NonMonotonicTimestamps(
                f"scan {_scan_name(k, b)} at t={t1:.9f} does not come after "
                f"scan {_scan_name(k - 1, a)} at t={t0:.9f}")
    odom_times = sequence.odometry.timestamps
    if not len(odom_times):
        raise NoMatches("odometry holds no poses to associate scans with")
    keyframes, skipped = [], []
    for k in range(0, len(scans), stride):
        t, source = scans[k]
        j = int(np.clip(np.searchsorted(odom_times, t), 0, len(odom_times) - 1))
        if j > 0 and abs(odom_times[j - 1] - t) < abs(odom_times[j] - t):
            j -= 1
        if abs(odom_times[j] - t) > SCAN_ODOM_MAX_DT:
            logger.warning("scan %d at t=%.3f has no odometry within "
                           "%.0f ms; skipped", k, t, SCAN_ODOM_MAX_DT * 1e3)
            skipped.append({"scan": _scan_name(k, source),
                            "timestamp": float(t)})
            continue
        keyframes.append((k, float(t), source, sequence.odometry[j]))
    if not keyframes:
        raise NoMatches("no scan associates with odometry within the gate")
    return keyframes, skipped


def _keyframe_stage(index, keyframes, graph, sequence, prior_map, cfg, info,
                    period, zupt_span):
    """Keyframe `index` up to its solve: its seeded state, its factors, its
    frame row and its scan, read here only, on the map-factor stride or not,
    so a scan file that cannot be parsed stops the run at its keyframe."""
    _, t, source, odom_pose = keyframe = keyframes[index]
    if index == 0:
        pose = (odom_pose if sequence.initial_pose is None
                else sequence.initial_pose)
        state = StateNode.at(pose, t)
        factors = [PriorFactor(0, pose, info["prior"])]
        if len(sequence.imu):
            factors.append(BiasPriorFactor(0, np.zeros(6), info["bias_prior"]))
    else:
        prev_state = graph.states[index - 1]
        rel = between(keyframes[index - 1][3], odom_pose)
        init_pose = compose(prev_state.pose, rel)
        velocity = (init_pose.translation
                    - prev_state.pose.translation) / (t - prev_state.timestamp)
        state = StateNode.at(init_pose, t, velocity=velocity)
        factors = [OdometryFactor(index - 1, index, rel, info["odometry"])]
    frame = {"index": index, "timestamp": t, "residual_rms": None,
             "correspondences": 0, "map_factor_added": False,
             "mask": [], "zupt": False, "degeneracy": None}
    cloud = source if isinstance(source, PointCloud) else mio.read_pcd(source)
    if index % cfg["map_factor_stride"] == 0:
        factors += _map_factor(frame, keyframe, cloud, state.pose, prior_map,
                               cfg)
    if len(sequence.imu) and index > 0:
        zupt = _zupt_factors(index, keyframe, prev_state, sequence, zupt_span,
                             cfg, info)
        frame["zupt"] = bool(zupt)
        factors += zupt + _imu_factors(index, keyframe, prev_state,
                                       sequence.imu, period, cfg, info)
    return state, factors, frame, cloud


def register_frame(cloud: PointCloud, prior_map: PriorMap, pose: Pose, cfg):
    """Register a scan to the map from `pose`, then run both degeneracy
    stages with the config's degeneracy section; returns (AlignResult,
    DegeneracyReport)."""
    result = align(cloud.points, prior_map.index, pose,
                   RegistrationParams(**cfg["registration"]),
                   workers=cfg["threads"])
    reference = spectrum(reference_hessian(result.correspondences))
    return result, detect(result, reference,
                          DegeneracyParams(**cfg["degeneracy"]))


def _map_factor(frame, keyframe, cloud, pose, prior_map, cfg) -> list:
    """Fill the frame's registration fields from registering the keyframe's
    scan `cloud`; return its map factors."""
    k, t, source, _ = keyframe
    first = frame["index"] == 0
    try:
        result, report = register_frame(cloud, prior_map, pose, cfg)
    except MaplocError as exc:
        if first:
            raise InitializationFailure(
                f"initial registration of scan {_scan_name(k, source)} at "
                f"t={t:.9f} failed: {exc}") from exc
        logger.warning("frame %d registration skipped: %s", k, exc)
        return []
    if first and result.residual_rms >= INIT_RESIDUAL_LIMIT:
        raise InitializationFailure(
            f"initial registration of scan {_scan_name(k, source)} at "
            f"t={t:.9f}: residual {result.residual_rms:.3f} m exceeds "
            f"{INIT_RESIDUAL_LIMIT} m")
    frame.update(residual_rms=float(result.residual_rms),
                 correspondences=len(result.correspondences),
                 degeneracy=report.as_dict())
    if report.stage1_reject:
        return []
    frame.update(map_factor_added=True,
                 mask=[int(a) for a in report.degenerate_axes])
    info = cfg["factors"]["map_weight"] * result.hessian
    return [MapFactor(frame["index"], result.pose, info,
                      mask=report.degenerate_axes)]


def _slice_samples(imu, lo, hi):
    times = imu.timestamp
    return imu[np.searchsorted(times, lo - 1e-9, side="left"):
               np.searchsorted(times, hi + 1e-9, side="right")]


def _zupt_factors(index, keyframe, prev_state, sequence, span, cfg, info):
    """Zero-velocity, no-motion and gravity factors at a keyframe where the
    IMU over the trailing `span` s and odometry within `span` s both show
    the platform at rest."""
    k, t, _, odom_pose = keyframe
    params = ZuptParams(**cfg["zupt"])
    # IMU norm statistics cannot separate constant-velocity travel from
    # rest, so odometry must also report no displacement around t before a
    # ZUPT is accepted. The check is symmetric: the run is offline, and
    # looking ahead rejects windows that straddle the end of a stationary
    # interval, where motion has resumed but the trailing displacement is
    # still tiny.
    odometry = sequence.odometry
    lo = np.searchsorted(odometry.timestamps, t - span, side="left")
    hi = np.searchsorted(odometry.timestamps, t + span, side="right")
    near = odometry.translations[lo:hi]
    still = len(near) > 0 and float(np.max(np.linalg.norm(
        near - odom_pose.translation, axis=1))) <= params.max_odom_displacement
    window = _slice_samples(sequence.imu, t - span, t)
    if not (still and len(window) >= 2
            and window.timestamp[-1] - window.timestamp[0] > params.min_duration
            and detect_zupt(window, params)):
        return []
    factors = [ZeroVelocityFactor(index, info["zero_velocity"]),
               OdometryFactor(index - 1, index, Pose.identity(),
                              info["no_motion"])]
    a_mean = window.specific_force.mean(axis=0) - prev_state.bias[:3]
    try:
        factors.append(GravityFactor(index, a_mean, info["gravity"]))
    except ZeroAcceleration:
        logger.warning("frame %d: mean acceleration too small for a gravity "
                       "factor", k)
    return factors


def _imu_factors(index, keyframe, prev_state, imu, period, cfg, info):
    """IMU and bias-walk factors from the previous keyframe to this one,
    or none when the IMU samples do not start and end within 1.5 median
    IMU periods of the two keyframe times, or leave a gap of more than 1.5
    median periods between them (a dropout). The preintegrated span is
    exactly the keyframe interval: an end sample off its keyframe time gets
    a sample interpolated at that time put beside it (past either end of
    the stream, the end sample)."""
    k, t, _, _ = keyframe
    t0 = prev_state.timestamp
    segment = _slice_samples(imu, t0, t)
    times = segment.timestamp
    if (len(segment) < 2
            or np.diff(np.r_[t0, times, t]).max() > 1.5 * period):
        logger.warning("frame %d: IMU samples do not cover [%.3f, %.3f] s; "
                       "no IMU factor", k, t0, t)
        return []
    head = [t0] if times[0] > t0 + 1e-9 else []
    tail = [t] if times[-1] < t - 1e-9 else []
    if head or tail:
        times = np.concatenate([head, times, tail])
        segment = imu_samples(times, *(
            np.column_stack([np.interp(times, imu.timestamp, c) for c in v.T])
            for v in (imu.angular_velocity, imu.specific_force)))
    imu_cfg = cfg["imu"]
    pre = preintegrate(segment, prev_state.bias,
                       sigma_gyro=imu_cfg["sigma_gyro"],
                       sigma_accel=imu_cfg["sigma_accel"])
    imu_info = np.linalg.inv(pre.covariance + 1e-12 * np.eye(9))
    return [ImuFactor(index - 1, index, pre, 0.5 * (imu_info + imu_info.T),
                      gravity_magnitude=imu_cfg["gravity_magnitude"]),
            BiasWalkFactor(index - 1, index, info["bias_walk"])]


def _keyframe_name(keyframes, index) -> str:
    k, t, source, _ = keyframes[index]
    return f"keyframe {index} (scan {_scan_name(k, source)} at t={t:.9f})"


def _failed_solve(exc: SingularSystem, solve, keyframes, index=None):
    """A SingularSystem from the window or final solve, named after the
    keyframe of the state it blames, else keyframe `index`."""
    blamed = index if exc.state_index is None else exc.state_index
    at = "" if blamed is None else f" at {_keyframe_name(keyframes, blamed)}"
    return SingularSystem(f"{solve} solve{at} failed: {exc}",
                          state_index=exc.state_index)


def _assemble_map(graph: FactorGraph, keyframes, clouds, voxel) -> PointCloud:
    """The keyframe scans as the run loop read them, `clouds`, at their
    optimized poses, written one slice each into one array and downsampled.

    An estimate that diverged from valid inputs is a NumericalError naming
    the first keyframe whose pose is non-finite or whose points take the
    map's voxel grid past its int64 keys.
    """
    ends = np.cumsum([len(cloud) for cloud in clouds])
    world = np.empty((ends[-1], 3))
    low, high = np.full(3, np.inf), np.full(3, -np.inf)
    for index, (cloud, end) in enumerate(zip(clouds, ends)):
        pose = graph.states[index].pose
        where = f"estimate diverged at {_keyframe_name(keyframes, index)}"
        if not np.isfinite(pose.matrix()).all():
            raise NumericalError(f"{where}: non-finite pose")
        if len(cloud):
            block = world[end - len(cloud):end]
            block[:] = pose.transform(cloud.points)
            low = np.minimum(low, [c.min() for c in block.T])
            high = np.maximum(high, [c.max() for c in block.T])
            try:
                _key_spans(low, high, voxel)
            except DataError as exc:
                raise NumericalError(f"{where}: {exc}") from exc
    return PointCloud(voxel_downsample(world, voxel)[0])


def run(prior_map: PriorMap, sequence: SequenceInput, config=None,
        groundtruth: Trajectory = None) -> RunResult:
    cfg = mio.default_config() if config is None else config
    mio.validate_config(cfg)
    info = _information(cfg["factors"])
    keyframes, skipped = _keyframes(sequence, cfg["keyframe_stride"])
    imu = sequence.imu
    # ZUPT windows reach 1.5 median IMU periods past min_duration to clear it
    period = float(np.median(np.diff(imu.timestamp))) if len(imu) > 1 else 0.0
    zupt_span = cfg["zupt"]["min_duration"] + 1.5 * period

    graph = FactorGraph()
    frames, clouds, opt_records = [], [], []
    for index in range(len(keyframes)):
        state, factors, frame, cloud = _keyframe_stage(
            index, keyframes, graph, sequence, prior_map, cfg, info, period,
            zupt_span)
        try:
            outcome = graph.solve_incremental(state, factors,
                                              window=cfg["window"])
        except SingularSystem as exc:
            raise _failed_solve(exc, "window", keyframes, index) from exc
        frames.append(frame)
        clouds.append(cloud)
        opt_records.append((str(index), outcome.records))

    try:
        final = graph.optimize(
            max_iterations=cfg["optimizer"]["max_iterations"])
    except SingularSystem as exc:
        raise _failed_solve(exc, "final", keyframes) from exc
    opt_records.append(("final", final.records))

    map_cloud = _assemble_map(graph, keyframes, clouds, cfg["voxel_size"])
    result = RunResult(
        trajectory=Trajectory(graph.states.timestamp, graph.states.rotation,
                              graph.states.translation),
        map_cloud=map_cloud, frames=frames,
        graph=graph, optimizer_records=opt_records,
        report=mio.sanitize_json({
            "config": cfg,
            "num_states": len(graph.states),
            "gravity": list(graph.gravity),
            "frames": frames,
            "skipped_scans": skipped,
            "metrics": None,
        }))
    if groundtruth is not None:
        evaluate_run(result, groundtruth, prior_map)
    mio.validate_report(result.report)
    return result


def evaluate_run(result: RunResult, groundtruth: Trajectory,
                 prior_map: PriorMap):
    """Score a finished run against ground truth and its map against the
    prior map; sets result.metrics and the report's metrics block."""
    cfg = result.report["config"]
    result.metrics = compute_metrics(
        result.trajectory, groundtruth, delta=cfg["eval"]["rpe_delta"],
        est_map=result.map_cloud, gt_map=prior_map.cloud,
        threshold=cfg["eval"]["map_threshold"],
        max_dt=cfg["eval"]["max_dt"], workers=cfg["threads"])
    result.report["metrics"] = mio.sanitize_json(result.metrics.as_dict())


# ---------------------------------------------------------------------------
# deterministic output

def emit_reports(result: RunResult, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trajectory": out / "trajectory.tum",
        "map": out / "map.pcd",
        "report": out / "report.json",
        "frames": out / "frames.csv",
    }
    mio.write_tum(paths["trajectory"], result.trajectory)
    mio.write_pcd(paths["map"], result.map_cloud)
    mio.write_json(paths["report"], result.report)
    mio.write_frames_csv(paths["frames"], result.frames)
    if result.report.get("metrics"):
        paths["metrics"] = out / "metrics.csv"
        mio.write_metrics_csv(paths["metrics"], result.report["metrics"])
    if result.report["config"].get("verbose"):
        paths["optimizer"] = out / "optimizer.csv"
        lines = ["stage,iteration,cost,damping,step_norm,accepted"]
        for stage, records in result.optimizer_records:
            for rec in records:
                lines.append(f"{stage},{rec.iteration},{rec.cost:.9g},"
                             f"{rec.damping:.9g},{rec.step_norm:.9g},"
                             f"{int(rec.accepted)}")
        paths["optimizer"].write_text("\n".join(lines) + "\n")
    return paths
