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
from .factors import imu_samples
from .geometry import PointCloud, compose, between, exp_map, so3_exp
from . import io as mio

SCENE_KINDS = ("cube-room", "corridor", "L-corridor", "plane-only")

# A spec's optional keys and their defaults; the spec schema gives each key
# its default's type (see io._schema), and every number must be finite.
_SPEC_DEFAULTS = {
    "density": 200.0,           # map points per square meter
    "scan_rate": 10.0,          # Hz
    "imu_rate": 200.0,          # Hz
    "range_noise_sigma": 0.0,   # m
    "sensor": {
        "n_azimuth": 180,
        "n_elevation": 16,
        "fov_up": 30.0,         # degrees
        "fov_down": -30.0,
        "max_range": 50.0,
        "min_range": 0.3,
    },
    "odometry": {
        "drift_per_frame": [0.0] * 6,  # twist [rot; trans], right-applied
        "rot_noise_sigma": 0.0,
        "trans_noise_sigma": 0.0,
    },
    "imu": {
        "gyro_noise_sigma": 1e-3,
        "accel_noise_sigma": 1e-2,
        "gyro_bias": [0.0, 0.0, 0.0],
        "accel_bias": [0.0, 0.0, 0.0],
        "gravity_magnitude": 9.81,
    },
}

_WAYPOINT_DEFAULTS = {"yaw": 0.0, "speed": 1.0, "dwell": 0.0}

# The numbers bounded below, by dotted key ("trajectory." for a waypoint's)
_SPEC_BOUNDS = {
    **dict.fromkeys(["density", "scan_rate", "imu_rate",
                     "imu.gravity_magnitude", "trajectory.speed"],
                    {"exclusiveMinimum": 0}),
    **dict.fromkeys(["range_noise_sigma", "sensor.min_range",
                     "odometry.rot_noise_sigma", "odometry.trans_noise_sigma",
                     "imu.gyro_noise_sigma", "imu.accel_noise_sigma",
                     "trajectory.dwell"], {"minimum": 0}),
}

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
    imu: np.recarray  # factors.imu_samples
    gt_map: PointCloud
    surfaces: tuple


# ---------------------------------------------------------------------------
# spec parsing

def _spec_schema():
    number = {"type": "number"}
    schema = mio._schema(_SPEC_DEFAULTS, _SPEC_BOUNDS, number)
    waypoint = mio._schema(_WAYPOINT_DEFAULTS, _SPEC_BOUNDS, number,
                           "trajectory.")
    waypoint["properties"]["pos"] = {"type": "array", "items": number,
                                     "minItems": 3, "maxItems": 3}
    waypoint["required"] = ["pos"]
    schema["properties"].update(
        kind={"enum": list(SCENE_KINDS)},
        seed={"type": "integer", "minimum": 0},
        size={"type": "array", "items": dict(number, exclusiveMinimum=0)},
        trajectory={"type": "array", "minItems": 1, "items": waypoint})
    schema["required"] = ["kind", "seed", "size", "trajectory"]
    return schema


_SPEC_VALIDATOR = mio._validator(_spec_schema())


def _filled(data, defaults):
    """`data` over `defaults`: numbers as floats, lists as arrays."""
    out = {}
    for key, default in defaults.items():
        value = data.get(key, default)
        if isinstance(default, dict):
            value = _filled(value, default)
        elif isinstance(default, list):
            value = np.array(value, dtype=float)
        elif isinstance(default, float):
            value = float(value)
        out[key] = value
    return out


def parse_scene_spec(data: dict) -> SceneSpec:
    """Validate a spec dict and fill defaults. Raises InvalidSpec."""
    mio._validate(data, _SPEC_VALIDATOR, "scene spec", InvalidSpec)
    kind, size = data["kind"], tuple(float(s) for s in data["size"])
    if len(size) != _SIZE_LEN[kind]:
        raise InvalidSpec(f"'size' of a {kind} must be {_SIZE_LEN[kind]} "
                          "numbers")
    if kind == "L-corridor":
        arm_a, arm_b, width, _height = size
        if width >= arm_a or width >= arm_b:
            raise InvalidSpec("L-corridor width must be smaller than both "
                              "arm lengths")
    spec = _filled(data, _SPEC_DEFAULTS)
    sensor = spec["sensor"]
    if not sensor["fov_up"] > sensor["fov_down"]:
        raise InvalidSpec("sensor fov_up must exceed fov_down")
    if not sensor["min_range"] < sensor["max_range"]:
        raise InvalidSpec("sensor ranges must satisfy min_range < max_range")
    waypoints = tuple(dict(_filled(wp, _WAYPOINT_DEFAULTS),
                           pos=np.array(wp["pos"], dtype=float))
                      for wp in data["trajectory"])
    return SceneSpec(kind=kind, seed=data["seed"], size=size,
                     waypoints=waypoints, raw=copy.deepcopy(data), **spec)


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


# ---------------------------------------------------------------------------
# sequence generation

def generate(spec: SceneSpec) -> SynthResult:
    rng = np.random.default_rng(spec.seed)
    surfaces = scene_surfaces(spec)
    gt_map = sample_map(spec)

    pos_spline, yaw_spline, duration = trajectory_splines(spec)
    n_scans = int(math.floor(duration * spec.scan_rate)) + 1
    scan_times = np.arange(n_scans) / spec.scan_rate
    gt = Trajectory(scan_times, so3_exp(np.column_stack(
        [np.zeros((n_scans, 2)), yaw_spline(scan_times)])),
        pos_spline(scan_times))

    # scans: noise is drawn for every ray so the stream shape is fixed
    dirs_body = ray_grid(spec.sensor)
    min_range = spec.sensor["min_range"]
    max_range = spec.sensor["max_range"]
    scans = []
    for t, pose in zip(scan_times, gt):
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
    odom_poses = [gt[0]]
    for k in range(1, n_scans):
        draw = rng.normal(size=6)
        twist = drift + np.concatenate([draw[:3] * rot_sigma,
                                        draw[3:] * trans_sigma])
        rel = between(gt[k - 1], gt[k])
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

    return SynthResult(
        spec=spec,
        gt_trajectory=gt,
        odometry=Trajectory(scan_times,
                            [p.rotation for p in odom_poses],
                            [p.translation for p in odom_poses]),
        scans=tuple(scans),
        imu=imu_samples(imu_times, omega, force),
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
