"""Synthetic scene and sequence generator.

Builds rectangular test environments (rooms, corridors, an L-junction, a
bare plane), drives a sensor through them on a spline, and produces
everything a localization run consumes: a ground-truth surface map,
body-frame LiDAR scans from analytic ray casting, drifting odometry, and
IMU samples. All randomness comes from one generator seeded by the spec,
with a fixed consumption order (scan range noise per frame, then odometry
twists per frame, then IMU noise in bulk), so a spec reproduces its
sequence bit for bit.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import InvalidSpec
from .evaluate import Trajectory
from .factors import ImuSample
from .geometry import PointCloud, Pose, compose, between, exp_map, so3_exp
from . import io as mio

SCENE_KINDS = ("cube-room", "corridor", "L-corridor", "plane-only")

_SENSOR_DEFAULTS = {
    "n_azimuth": 180,
    "n_elevation": 16,
    "fov_up": 30.0,    # degrees
    "fov_down": -30.0,
    "max_range": 50.0,
    "min_range": 0.3,
}

_ODOMETRY_DEFAULTS = {
    "drift_per_frame": [0.0] * 6,  # twist [rot; trans], right-applied
    "rot_noise_sigma": 0.0,
    "trans_noise_sigma": 0.0,
}

_IMU_DEFAULTS = {
    "gyro_noise_sigma": 1e-3,
    "accel_noise_sigma": 1e-2,
    "gyro_bias": [0.0, 0.0, 0.0],
    "accel_bias": [0.0, 0.0, 0.0],
    "gravity_magnitude": 9.81,
}

_TOP_KEYS = {"kind", "seed", "size", "density", "scan_rate", "imu_rate",
             "range_noise_sigma", "sensor", "odometry", "imu", "trajectory"}

_SIZE_LEN = {"cube-room": 3, "corridor": 3, "L-corridor": 4, "plane-only": 2}


@dataclass(frozen=True)
class Rect:
    """One rectangular surface patch: corner plus two edge vectors."""

    origin: np.ndarray
    u: np.ndarray  # full-length edge
    v: np.ndarray

    @property
    def normal(self):
        n = np.cross(self.u, self.v)
        return n / np.linalg.norm(n)

    @property
    def area(self):
        return np.linalg.norm(np.cross(self.u, self.v))


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    seed: int
    size: tuple
    density: float
    scan_rate: float
    imu_rate: float
    range_noise_sigma: float
    sensor: dict
    odometry: dict
    imu: dict
    waypoints: tuple
    raw: dict


@dataclass(frozen=True)
class ScanFrame:
    timestamp: float
    cloud: PointCloud  # body frame


@dataclass(frozen=True)
class SynthResult:
    spec: SceneSpec
    gt_trajectory: Trajectory
    odometry: Trajectory
    scans: tuple
    imu: tuple
    gt_map: PointCloud
    surfaces: tuple


# ---------------------------------------------------------------------------
# spec parsing

def _need_number(data, key, minimum=None, exclusive=False):
    value = data.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value):
        raise InvalidSpec(f"'{key}' must be a finite number")
    if minimum is not None:
        if exclusive and not value > minimum:
            raise InvalidSpec(f"'{key}' must be > {minimum}")
        if not exclusive and not value >= minimum:
            raise InvalidSpec(f"'{key}' must be >= {minimum}")
    return float(value)


def _need_vector(data, key, length):
    value = data.get(key)
    arr = np.asarray(value, dtype=float) if value is not None else None
    if arr is None or arr.shape != (length,) or not np.all(np.isfinite(arr)):
        raise InvalidSpec(f"'{key}' must be {length} finite numbers")
    return arr


def _merge_block(data, key, defaults):
    block = data.get(key, {})
    if not isinstance(block, dict):
        raise InvalidSpec(f"'{key}' must be an object")
    unknown = set(block) - set(defaults)
    if unknown:
        raise InvalidSpec(f"unknown keys in '{key}': {sorted(unknown)}")
    merged = copy.deepcopy(defaults)
    merged.update(block)
    return merged


def parse_scene_spec(data: dict) -> SceneSpec:
    """Validate a spec dict and fill defaults. Raises InvalidSpec."""
    if not isinstance(data, dict):
        raise InvalidSpec("scene spec must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise InvalidSpec(f"unknown spec keys: {sorted(unknown)}")

    kind = data.get("kind")
    if kind not in SCENE_KINDS:
        raise InvalidSpec(f"kind must be one of {SCENE_KINDS}, got {kind!r}")
    seed = data.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise InvalidSpec("seed is mandatory and must be a non-negative "
                          "integer")

    size = _need_vector(data, "size", _SIZE_LEN[kind])
    if np.any(size <= 0):
        raise InvalidSpec("'size' entries must be positive")
    if kind == "L-corridor":
        arm_a, arm_b, width, _height = size
        if width >= arm_a or width >= arm_b:
            raise InvalidSpec("L-corridor width must be smaller than both "
                              "arm lengths")

    density = _need_number({"density": data.get("density", 200.0)},
                           "density", 0, exclusive=True)
    scan_rate = _need_number({"scan_rate": data.get("scan_rate", 10.0)},
                             "scan_rate", 0, exclusive=True)
    imu_rate = _need_number({"imu_rate": data.get("imu_rate", 200.0)},
                            "imu_rate", 0, exclusive=True)
    noise = _need_number(
        {"range_noise_sigma": data.get("range_noise_sigma", 0.0)},
        "range_noise_sigma", 0)

    sensor = _merge_block(data, "sensor", _SENSOR_DEFAULTS)
    for key in ("n_azimuth", "n_elevation"):
        if not isinstance(sensor[key], int) or sensor[key] < 1:
            raise InvalidSpec(f"sensor '{key}' must be a positive integer")
    if not sensor["fov_up"] > sensor["fov_down"]:
        raise InvalidSpec("sensor fov_up must exceed fov_down")
    if not 0 <= sensor["min_range"] < sensor["max_range"]:
        raise InvalidSpec("sensor ranges must satisfy 0 <= min < max")

    odometry = _merge_block(data, "odometry", _ODOMETRY_DEFAULTS)
    odometry["drift_per_frame"] = _need_vector(odometry, "drift_per_frame", 6)
    _need_number(odometry, "rot_noise_sigma", 0)
    _need_number(odometry, "trans_noise_sigma", 0)

    imu = _merge_block(data, "imu", _IMU_DEFAULTS)
    _need_number(imu, "gyro_noise_sigma", 0)
    _need_number(imu, "accel_noise_sigma", 0)
    _need_number(imu, "gravity_magnitude", 0, exclusive=True)
    imu["gyro_bias"] = _need_vector(imu, "gyro_bias", 3)
    imu["accel_bias"] = _need_vector(imu, "accel_bias", 3)

    waypoints = data.get("trajectory")
    if not isinstance(waypoints, list) or not waypoints:
        raise InvalidSpec("'trajectory' must be a non-empty waypoint list")
    parsed = []
    for k, wp in enumerate(waypoints):
        if not isinstance(wp, dict) or "pos" not in wp:
            raise InvalidSpec(f"waypoint {k} must be an object with 'pos'")
        extra = set(wp) - {"pos", "yaw", "speed", "dwell"}
        if extra:
            raise InvalidSpec(f"waypoint {k} has unknown keys {sorted(extra)}")
        entry = {"pos": _need_vector(wp, "pos", 3),
                 "yaw": _need_number({"yaw": wp.get("yaw", 0.0)}, "yaw"),
                 "speed": _need_number({"speed": wp.get("speed", 1.0)},
                                       "speed", 0, exclusive=True),
                 "dwell": _need_number({"dwell": wp.get("dwell", 0.0)},
                                       "dwell", 0)}
        parsed.append(entry)

    return SceneSpec(kind=kind, seed=seed, size=tuple(float(s) for s in size),
                     density=density, scan_rate=scan_rate, imu_rate=imu_rate,
                     range_noise_sigma=noise, sensor=sensor,
                     odometry=odometry, imu=imu, waypoints=tuple(parsed),
                     raw=copy.deepcopy(data))


@mio._names_file
def load_scene_spec(path) -> SceneSpec:
    try:
        data = json.loads(mio._read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"scene spec is not valid JSON: {exc.msg}",
                          line=exc.lineno) from exc
    return parse_scene_spec(data)


# ---------------------------------------------------------------------------
# geometry

def _box_rects(lx, ly, lz):
    ex, ey, ez = np.eye(3)
    return [
        Rect(np.zeros(3), lx * ex, ly * ey),            # floor, +z
        Rect(np.array([0, 0, lz]), ly * ey, lx * ex),   # ceiling, -z
        Rect(np.zeros(3), ly * ey, lz * ez),            # x=0 wall, +x
        Rect(np.array([lx, 0, 0]), lz * ez, ly * ey),   # x=lx wall, -x
        Rect(np.zeros(3), lz * ez, lx * ex),            # y=0 wall, +y
        Rect(np.array([0, ly, 0]), lx * ex, lz * ez),   # y=ly wall, -y
    ]


def scene_surfaces(spec: SceneSpec):
    """Rectangles with normals facing the interior."""
    ex, ey, ez = np.eye(3)
    if spec.kind in ("cube-room", "corridor"):
        return tuple(_box_rects(*spec.size))
    if spec.kind == "plane-only":
        lx, ly = spec.size
        return (Rect(np.zeros(3), lx * ex, ly * ey),)
    arm_a, arm_b, width, height = spec.size
    inner = arm_a - width
    return (
        Rect(np.zeros(3), arm_a * ex, width * ey),                      # floor A
        Rect(np.array([inner, width, 0]), width * ex,
             (arm_b - width) * ey),                                     # floor B
        Rect(np.array([0, 0, height]), width * ey, arm_a * ex),         # ceil A
        Rect(np.array([inner, width, height]), (arm_b - width) * ey,
             width * ex),                                               # ceil B
        Rect(np.zeros(3), width * ey, height * ez),                     # x=0
        Rect(np.zeros(3), height * ez, arm_a * ex),                     # y=0
        Rect(np.array([arm_a, 0, 0]), height * ez, arm_b * ey),         # x=arm_a
        Rect(np.array([inner, arm_b, 0]), width * ex, height * ez),     # y=arm_b
        Rect(np.array([0, width, 0]), inner * ex, height * ez),         # inner y
        Rect(np.array([inner, width, 0]), (arm_b - width) * ey,
             height * ez),                                              # inner x
    )


def sample_map(spec: SceneSpec) -> PointCloud:
    """Ground-truth map: a regular grid on every surface at the requested
    density (points per square meter), with analytic normals."""
    spacing = 1.0 / math.sqrt(spec.density)
    points = []
    normals = []
    for rect in scene_surfaces(spec):
        lu = np.linalg.norm(rect.u)
        lv = np.linalg.norm(rect.v)
        n_u = max(1, int(round(lu / spacing)))
        n_v = max(1, int(round(lv / spacing)))
        su = (np.arange(n_u) + 0.5) / n_u
        sv = (np.arange(n_v) + 0.5) / n_v
        grid_u, grid_v = np.meshgrid(su, sv, indexing="ij")
        pts = (rect.origin + np.outer(grid_u.ravel(), rect.u)
               + np.outer(grid_v.ravel(), rect.v))
        points.append(pts)
        normals.append(np.tile(rect.normal, (len(pts), 1)))
    return PointCloud(np.vstack(points), np.vstack(normals))


def raycast(surfaces, origin, directions, min_range=0.0, max_range=np.inf):
    """Nearest-hit ranges for unit rays from a common origin; inf on miss."""
    directions = np.asarray(directions, dtype=float)
    best = np.full(len(directions), np.inf)
    for rect in surfaces:
        normal = rect.normal
        lu = np.linalg.norm(rect.u)
        lv = np.linalg.norm(rect.v)
        denom = directions @ normal
        valid = np.abs(denom) > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(valid, ((rect.origin - origin) @ normal) / denom,
                         -1.0)
        hit = origin + t[:, None] * directions - rect.origin
        su = hit @ (rect.u / lu)
        sv = hit @ (rect.v / lv)
        ok = (valid & (t >= min_range)
              & (su >= -1e-9) & (su <= lu + 1e-9)
              & (sv >= -1e-9) & (sv <= lv + 1e-9))
        best = np.where(ok & (t < best), t, best)
    best[best > max_range] = np.inf
    return best


def ray_grid(sensor: dict):
    """Body-frame unit directions for the scan pattern, row-major over
    (azimuth, elevation)."""
    n_az = sensor["n_azimuth"]
    n_el = sensor["n_elevation"]
    azimuths = -math.pi + 2 * math.pi * (np.arange(n_az) + 0.5) / n_az
    if n_el == 1:
        elevations = np.array([math.radians(
            0.5 * (sensor["fov_up"] + sensor["fov_down"]))])
    else:
        elevations = np.radians(np.linspace(sensor["fov_down"],
                                            sensor["fov_up"], n_el))
    az, el = np.meshgrid(azimuths, elevations, indexing="ij")
    az = az.ravel()
    el = el.ravel()
    return np.column_stack([np.cos(el) * np.cos(az),
                            np.cos(el) * np.sin(az),
                            np.sin(el)])


# ---------------------------------------------------------------------------
# motion profile

def trajectory_splines(spec: SceneSpec):
    """PCHIP position and yaw profiles through the waypoints.

    Segment duration is distance over the departing waypoint's speed; a
    dwell repeats the knot so the interpolant is exactly constant there.
    Returns (position_spline, yaw_spline, duration).
    """
    times = []
    positions = []
    yaws = []
    clock = 0.0
    previous = None
    for k, wp in enumerate(spec.waypoints):
        if previous is not None:
            dist = float(np.linalg.norm(wp["pos"] - previous["pos"]))
            if dist <= 1e-12:
                raise InvalidSpec(f"waypoints {k - 1} and {k} coincide; "
                                  "use a dwell instead")
            clock += dist / previous["speed"]
        times.append(clock)
        positions.append(wp["pos"])
        yaws.append(wp["yaw"])
        if wp["dwell"] > 0:
            clock += wp["dwell"]
            times.append(clock)
            positions.append(wp["pos"])
            yaws.append(wp["yaw"])
        previous = wp
    if len(times) < 2:
        raise InvalidSpec("trajectory needs at least two knots; add "
                          "waypoints or a dwell")
    times = np.asarray(times)
    pos_spline = PchipInterpolator(times, np.asarray(positions), axis=0)
    yaw_spline = PchipInterpolator(times, np.asarray(yaws))
    return pos_spline, yaw_spline, float(times[-1])


def _pose_at(pos_spline, yaw_spline, t) -> Pose:
    return Pose(so3_exp(np.array([0.0, 0.0, float(yaw_spline(t))])),
                np.asarray(pos_spline(t), dtype=float))


# ---------------------------------------------------------------------------
# sequence generation

def generate(spec: SceneSpec) -> SynthResult:
    rng = np.random.default_rng(spec.seed)
    surfaces = scene_surfaces(spec)
    gt_map = sample_map(spec)

    pos_spline, yaw_spline, duration = trajectory_splines(spec)
    n_scans = int(math.floor(duration * spec.scan_rate)) + 1
    scan_times = np.arange(n_scans) / spec.scan_rate
    gt_poses = tuple(_pose_at(pos_spline, yaw_spline, t) for t in scan_times)

    # scans: noise is drawn for every ray so the stream shape is fixed
    dirs_body = ray_grid(spec.sensor)
    min_range = spec.sensor["min_range"]
    max_range = spec.sensor["max_range"]
    scans = []
    for t, pose in zip(scan_times, gt_poses):
        dirs_world = dirs_body @ pose.rotation.T
        ranges = raycast(surfaces, pose.translation, dirs_world,
                         min_range, max_range)
        noise = rng.normal(size=len(ranges)) * spec.range_noise_sigma
        hits = np.isfinite(ranges)
        pts = dirs_body[hits] * (ranges[hits] + noise[hits])[:, None]
        scans.append(ScanFrame(float(t), PointCloud(pts)))

    # odometry: ground-truth relative motion with a drift twist per frame
    drift = spec.odometry["drift_per_frame"]
    rot_sigma = spec.odometry["rot_noise_sigma"]
    trans_sigma = spec.odometry["trans_noise_sigma"]
    odom_poses = [gt_poses[0]]
    for k in range(1, n_scans):
        draw = rng.normal(size=6)
        twist = drift + np.concatenate([draw[:3] * rot_sigma,
                                        draw[3:] * trans_sigma])
        rel = between(gt_poses[k - 1], gt_poses[k])
        odom_poses.append(compose(odom_poses[-1], compose(rel,
                                                          exp_map(twist))))

    # IMU: spline kinematics plus bias and white noise
    n_imu = int(math.floor(duration * spec.imu_rate)) + 1
    imu_times = np.arange(n_imu) / spec.imu_rate
    accel_world = np.asarray(pos_spline.derivative(2)(imu_times), dtype=float)
    yaw = np.asarray(yaw_spline(imu_times), dtype=float)
    yaw_rate = np.asarray(yaw_spline.derivative()(imu_times), dtype=float)
    gravity_mag = spec.imu["gravity_magnitude"]
    gyro_noise = rng.normal(size=(n_imu, 3)) * spec.imu["gyro_noise_sigma"]
    accel_noise = rng.normal(size=(n_imu, 3)) * spec.imu["accel_noise_sigma"]

    cos_y = np.cos(yaw)
    sin_y = np.sin(yaw)
    # specific force in body frame: R^T (a_world + g_up)
    up = accel_world[:, 2] + gravity_mag
    force = np.column_stack([
        cos_y * accel_world[:, 0] + sin_y * accel_world[:, 1],
        -sin_y * accel_world[:, 0] + cos_y * accel_world[:, 1],
        up])
    force = force + spec.imu["accel_bias"] + accel_noise
    omega = np.column_stack([np.zeros(n_imu), np.zeros(n_imu), yaw_rate])
    omega = omega + spec.imu["gyro_bias"] + gyro_noise
    samples = tuple(ImuSample(float(t), omega[j], force[j])
                    for j, t in enumerate(imu_times))

    return SynthResult(
        spec=spec,
        gt_trajectory=Trajectory(scan_times, gt_poses),
        odometry=Trajectory(scan_times, tuple(odom_poses)),
        scans=tuple(scans),
        imu=samples,
        gt_map=gt_map,
        surfaces=surfaces,
    )


def write_sequence(result: SynthResult, out_dir) -> dict:
    """Write the generated sequence in the layout `localize` consumes."""
    out = Path(out_dir)
    scans_dir = out / "scans"
    scans_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "map": out / "map.pcd",
        "scans": scans_dir,
        "odometry": out / "odometry.tum",
        "groundtruth": out / "groundtruth.tum",
        "imu": out / "imu.csv",
        "spec": out / "spec.json",
    }
    mio.write_pcd(paths["map"], result.gt_map)
    for frame in result.scans:
        mio.write_pcd(scans_dir / mio.scan_filename(frame.timestamp),
                      frame.cloud)
    mio.write_tum(paths["odometry"], result.odometry)
    mio.write_tum(paths["groundtruth"], result.gt_trajectory)
    mio.write_imu_csv(paths["imu"], result.imu)
    mio.write_json(paths["spec"], result.spec.raw)
    return paths
