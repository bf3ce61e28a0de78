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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .degeneracy import DegeneracyParams, detect, spectrum
from .errors import (EmptyCloud, InitializationFailure, MaplocError,
                     NoMatches, NonMonotonicTimestamps, ParseError)
from .evaluate import MetricsReport, Trajectory, compute_metrics
from .factors import (BiasPriorFactor, BiasWalkFactor, GravityFactor,
                      ImuFactor, MapFactor, MIN_MEAN_ACCEL, NoMotionFactor,
                      OdometryFactor, PriorFactor, StateNode,
                      ZeroVelocityFactor, ZuptParams, detect_zupt,
                      preintegrate)
from .geometry import (PointCloud, Pose, between, build_index, compose,
                       estimate_normals)
from .graph import FactorGraph
from .registration import RegistrationParams, align, reference_hessian
from . import io as mio

logger = logging.getLogger("maploc.pipeline")

SCAN_ODOM_MAX_DT = 0.010   # s, association gate between scans and odometry
INIT_RESIDUAL_LIMIT = 0.5  # m, first-frame registration sanity bound
AUTO_THRESHOLD_FLOOR = 1e-6


@dataclass(frozen=True)
class PriorMap:
    cloud: PointCloud       # downsampled, with normals
    index: "SpatialIndex"
    voxel_size: float


@dataclass(frozen=True)
class SequenceInput:
    """One localization input: scans with timestamps, odometry, IMU.

    Scan sources may be PointClouds (in memory) or paths loaded on demand.
    The odometry trajectory is expressed in the map frame at its first
    pose; initial_pose overrides that anchor when given.
    """

    scans: tuple            # ((timestamp, PointCloud | path), ...)
    odometry: Trajectory
    imu: tuple = ()
    initial_pose: Pose = None

    @classmethod
    def from_synth(cls, result, initial_pose=None):
        return cls(scans=tuple((f.timestamp, f.cloud) for f in result.scans),
                   odometry=result.odometry, imu=tuple(result.imu),
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

def voxel_downsample(points, voxel, normals=None):
    """Centroid downsampling on a regular grid. Deterministic: cells are
    processed in lexicographic key order."""
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


def load_map(path, voxel_size=0.1) -> PriorMap:
    """Read a PCD/PLY map, voxel-downsample it, and ensure normals.

    Normals present in the file are centroid-averaged per voxel; missing
    or degenerate ones are re-estimated from the downsampled cloud.
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    raw = mio.read_cloud(path)
    if len(raw) == 0:
        raise EmptyCloud(f"map file {path} holds no finite points")
    points, normals = voxel_downsample(raw.points, voxel_size, raw.normals)
    if normals is not None:
        bad = ~np.all(np.isfinite(normals), axis=1)
    else:
        bad = np.ones(len(points), dtype=bool)
    if np.any(bad):
        if len(points) >= 10:
            estimated = estimate_normals(PointCloud(points), k=10).normals
            normals = estimated if normals is None \
                else np.where(bad[:, None], estimated, normals)
        elif normals is None:
            normals = np.full_like(points, np.nan)
    cloud = PointCloud(points, normals)
    return PriorMap(cloud=cloud, index=build_index(cloud),
                    voxel_size=float(voxel_size))


def load_sequence(scans_dir, odom_path, imu_path=None) -> SequenceInput:
    files = sorted(Path(scans_dir).glob("*.pcd"))
    if not files:
        raise ParseError(f"no .pcd scans under {scans_dir}")
    scans = tuple((mio.scan_timestamp(f), f) for f in files)
    odometry = mio.read_tum(odom_path)
    imu = tuple(mio.read_imu_csv(imu_path)) if imu_path else ()
    return SequenceInput(scans=scans, odometry=odometry, imu=imu)


def _scan_name(k, source) -> str:
    return str(k) if isinstance(source, PointCloud) else Path(source).name


def _scan_cloud(source) -> PointCloud:
    if isinstance(source, PointCloud):
        return source
    return mio.read_pcd(source)


# ---------------------------------------------------------------------------
# factor construction helpers

def _diag_info(rot_sigma, trans_sigma):
    return np.diag([1.0 / rot_sigma ** 2] * 3 + [1.0 / trans_sigma ** 2] * 3)


def _imu_information(covariance, weight):
    info = weight * np.linalg.inv(covariance + 1e-12 * np.eye(9))
    return 0.5 * (info + info.T)


def _slice_samples(imu_samples, times, lo, hi):
    a = np.searchsorted(times, lo - 1e-9, side="left")
    b = np.searchsorted(times, hi + 1e-9, side="right")
    return imu_samples[a:b]


# ---------------------------------------------------------------------------
# the run loop

def run(prior_map: PriorMap, sequence: SequenceInput, config=None,
        groundtruth: Trajectory = None) -> RunResult:
    cfg = mio.default_config() if config is None else config
    mio.validate_config(cfg)
    threads = cfg["threads"]
    gravity_mag = cfg["imu"]["gravity_magnitude"]

    reg_params = RegistrationParams(**cfg["registration"])
    zupt_params = ZuptParams(
        min_duration=cfg["zupt"]["min_duration"],
        accel_std_threshold=cfg["zupt"]["accel_std_threshold"],
        gyro_mean_threshold=cfg["zupt"]["gyro_mean_threshold"])
    deg_cfg = cfg["degeneracy"]
    deg_params = DegeneracyParams.from_config(deg_cfg)
    # a null threshold is calibrated on the first frame with a finite d_e
    calibrate = deg_cfg["d_e_threshold"] is None
    fac = cfg["factors"]
    prior_info = _diag_info(fac["prior_rot_sigma"], fac["prior_trans_sigma"])
    odom_info = _diag_info(fac["odom_rot_sigma"], fac["odom_trans_sigma"])
    nm_info = _diag_info(fac["no_motion_rot_sigma"],
                         fac["no_motion_trans_sigma"])
    zv_info = np.eye(3) / fac["zero_velocity_sigma"] ** 2
    gravity_info = np.diag([1.0 / fac["gravity_direction_sigma"] ** 2] * 3
                           + [fac["gravity_magnitude_weight"]])
    bias_info = np.eye(6) / fac["bias_walk_sigma"] ** 2
    bias_prior_info = np.eye(6) / fac["bias_prior_sigma"] ** 2

    if not sequence.scans:
        raise NoMatches("sequence holds no scans")
    for k in range(1, len(sequence.scans)):
        (t0, a), (t1, b) = sequence.scans[k - 1], sequence.scans[k]
        if not t1 > t0:
            raise NonMonotonicTimestamps(
                f"scan {_scan_name(k, b)} at t={t1:.9f} does not come after "
                f"scan {_scan_name(k - 1, a)} at t={t0:.9f}")
    odom_times = np.asarray(sequence.odometry.timestamps)
    odom_trans = np.array([p.translation for p in sequence.odometry.poses])
    imu_samples = tuple(sequence.imu)
    imu_times = np.array([s.timestamp for s in imu_samples])
    # ZUPT windows reach 1.5 IMU periods past min_duration to strictly clear it
    zupt_span = zupt_params.min_duration + (
        1.5 * float(np.median(np.diff(imu_times)))
        if len(imu_times) > 1 else 0.0)

    # keyframe selection and odometry association
    keyframes = []
    for k in range(0, len(sequence.scans), cfg["keyframe_stride"]):
        t, source = sequence.scans[k]
        j = int(np.clip(np.searchsorted(odom_times, t), 0, len(odom_times) - 1))
        if j > 0 and abs(odom_times[j - 1] - t) < abs(odom_times[j] - t):
            j -= 1
        if abs(odom_times[j] - t) > SCAN_ODOM_MAX_DT:
            logger.warning("scan %d at t=%.3f has no odometry within "
                           "%.0f ms; skipped", k, t, SCAN_ODOM_MAX_DT * 1e3)
            continue
        keyframes.append((k, float(t), source, sequence.odometry.poses[j]))
    if not keyframes:
        raise NoMatches("no scan associates with odometry within the gate")

    initial_pose = sequence.initial_pose
    if initial_pose is None:
        initial_pose = keyframes[0][3]

    graph = FactorGraph()
    frames = []
    opt_records = []
    kept = []  # (state index, scan source) for map assembly
    prev_index = None
    prev_odom = None

    for frame_no, (k, t, source, odom_pose) in enumerate(keyframes):
        first = frame_no == 0
        if first:
            state = StateNode.at(initial_pose, t)
            factors = [PriorFactor(0, initial_pose, prior_info)]
            if imu_samples:
                factors.append(BiasPriorFactor(0, np.zeros(3), np.zeros(3),
                                               bias_prior_info))
        else:
            rel = between(prev_odom, odom_pose)
            prev_state = graph.states[prev_index]
            init_pose = compose(prev_state.pose, rel)
            dt = t - prev_state.timestamp
            velocity = (init_pose.translation
                        - prev_state.pose.translation) / dt
            state = StateNode.at(init_pose, t, velocity=velocity)
            factors = [OdometryFactor(prev_index, frame_no, rel, odom_info)]
        index = frame_no

        frame = {"index": index, "timestamp": t, "residual_rms": None,
                 "correspondences": 0, "map_factor_added": False,
                 "mask": [], "zupt": False, "degeneracy": None}

        if frame_no % cfg["map_factor_stride"] == 0:
            try:
                cloud = _scan_cloud(source)
                result = align(cloud.points, prior_map.index, state.pose,
                               reg_params, workers=threads)
                if first and result.residual_rms >= INIT_RESIDUAL_LIMIT:
                    raise InitializationFailure(
                        f"initial registration residual "
                        f"{result.residual_rms:.3f} m exceeds "
                        f"{INIT_RESIDUAL_LIMIT} m")
                reference = spectrum(reference_hessian(result.correspondences))
                report = detect(result, reference, deg_params)
                frame["residual_rms"] = float(result.residual_rms)
                frame["correspondences"] = len(result.correspondences)
                frame["degeneracy"] = report.as_dict()
                if (calibrate and not report.stage1_reject
                        and math.isfinite(report.d_e)):
                    calibrate = False
                    deg_params = replace(deg_params, d_e_threshold=max(
                        deg_cfg["auto_threshold_scale"] * report.d_e,
                        AUTO_THRESHOLD_FLOOR))
                    logger.info("degeneracy threshold calibrated to %.3g",
                                deg_params.d_e_threshold)
                if not report.stage1_reject:
                    info = fac["map_weight"] * result.hessian
                    factors.append(MapFactor(index, result.pose, info,
                                             mask=report.degenerate_axes))
                    frame["map_factor_added"] = True
                    frame["mask"] = [int(a) for a in report.degenerate_axes]
            except InitializationFailure:
                raise
            except MaplocError as exc:
                if first:
                    raise InitializationFailure(
                        f"initial registration failed: {exc}") from exc
                logger.warning("frame %d registration skipped: %s", k, exc)

        if imu_samples and not first:
            prev_state = graph.states[prev_index]
            # zero-velocity detection over a trailing window
            window = _slice_samples(imu_samples, imu_times, t - zupt_span, t)
            # IMU norm statistics cannot separate constant-velocity travel
            # from rest, so odometry must also report no displacement around
            # t before a ZUPT is accepted. The check is symmetric: the run is
            # offline, and looking ahead rejects windows that straddle the
            # end of a stationary interval, where motion has resumed but the
            # trailing displacement is still tiny.
            near = odom_trans[(odom_times >= t - zupt_span)
                              & (odom_times <= t + zupt_span)]
            still = (len(near) > 0
                     and float(np.max(np.linalg.norm(
                         near - odom_pose.translation, axis=1)))
                     <= cfg["zupt"]["max_odom_displacement"])
            if still and len(window) >= 2 and (window[-1].timestamp
                                               - window[0].timestamp
                                               > zupt_params.min_duration):
                if detect_zupt(window, zupt_params):
                    frame["zupt"] = True
                    factors.append(ZeroVelocityFactor(index, zv_info))
                    factors.append(NoMotionFactor(prev_index, index, nm_info))
                    a_mean = np.mean([s.specific_force for s in window],
                                     axis=0) - prev_state.accel_bias
                    if np.linalg.norm(a_mean) >= MIN_MEAN_ACCEL:
                        factors.append(GravityFactor(index, a_mean,
                                                     gravity_info))
                    else:
                        logger.warning("frame %d: mean acceleration too "
                                       "small for a gravity factor", k)
            segment = _slice_samples(imu_samples, imu_times,
                                     prev_state.timestamp, t)
            if len(segment) >= 2:
                g_body = prev_state.pose.rotation.T @ (gravity_mag
                                                       * graph.gravity)
                pre = preintegrate(segment, prev_state.accel_bias,
                                   prev_state.gyro_bias, g_body,
                                   sigma_gyro=cfg["imu"]["sigma_gyro"],
                                   sigma_accel=cfg["imu"]["sigma_accel"])
                info = _imu_information(pre.covariance, fac["imu_weight"])
                factors.append(ImuFactor(prev_index, index, pre, info,
                                         gravity_magnitude=gravity_mag))
                factors.append(BiasWalkFactor(prev_index, index, bias_info))

        outcome = graph.solve_incremental(state, factors,
                                          window=cfg["window"])
        frame["iterations"] = int(outcome.iterations)
        frame["converged"] = bool(outcome.converged)
        frames.append(frame)
        opt_records.append((str(index), outcome.records))
        kept.append((index, source))
        prev_index = index
        prev_odom = odom_pose

    final = graph.optimize(max_iterations=cfg["optimizer"]["max_iterations"])
    opt_records.append(("final", final.records))

    trajectory = Trajectory(
        np.array([s.timestamp for s in graph.states]),
        tuple(s.pose for s in graph.states))

    # map assembly from optimized poses
    world_points = []
    for index, source in kept:
        cloud = _scan_cloud(source)
        if len(cloud):
            world_points.append(graph.states[index].pose.transform(
                cloud.points))
    if world_points:
        merged, _ = voxel_downsample(np.vstack(world_points),
                                     cfg["voxel_size"])
    else:
        merged = np.empty((0, 3))
    map_cloud = PointCloud(merged)

    metrics = None
    if groundtruth is not None:
        metrics = compute_metrics(
            trajectory, groundtruth, delta=cfg["eval"]["rpe_delta"],
            est_map=map_cloud, gt_map=prior_map.cloud,
            threshold=cfg["eval"]["map_threshold"],
            max_dt=cfg["eval"]["max_dt"], workers=threads)

    report = mio.sanitize_json({
        "config": cfg,
        "num_states": len(graph.states),
        "gravity": list(graph.gravity),
        "frames": frames,
        "metrics": metrics.as_dict() if metrics is not None else None,
    })
    mio.validate_report(report)

    return RunResult(trajectory=trajectory, map_cloud=map_cloud,
                     frames=frames, graph=graph, metrics=metrics,
                     report=report, optimizer_records=opt_records)


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
