"""File formats: TUM trajectories, PCD/PLY clouds, IMU CSV, JSON config
and reports.

All writers are deterministic: fixed field order, fixed float formatting
(timestamps as %.9f, values with 9 significant digits), sorted JSON keys,
and a fixed quaternion sign convention. Non-finite values are serialized
as JSON null.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .errors import NonMonotonicTimestamps, ParseError
from .evaluate import Trajectory
from .factors import ImuSample
from .geometry import PointCloud, Pose

IMU_HEADER = "t,wx,wy,wz,ax,ay,az"
FRAMES_CSV_HEADER = ("timestamp,d_e,count_x,count_y,count_z,"
                     "mask_x,mask_y,mask_z,residual_rms")
METRICS_CSV_HEADER = ("ate_rmse_cm,rpe_rmse_cm,rpe_per_meter_cm,"
                      "map_acc_cm,map_com_percent,matched_pairs")

_PCD_DTYPES = {
    ("F", 4): "<f4", ("F", 8): "<f8",
    ("I", 1): "<i1", ("I", 2): "<i2", ("I", 4): "<i4", ("I", 8): "<i8",
    ("U", 1): "<u1", ("U", 2): "<u2", ("U", 4): "<u4", ("U", 8): "<u8",
}


# ---------------------------------------------------------------------------
# quaternions (Hamilton convention, components returned w-last)

def rotation_to_quaternion(rotation):
    """(qx, qy, qz, qw) with a deterministic sign: qw > 0, or if qw == 0
    the first nonzero vector component is positive."""
    m = np.asarray(rotation, dtype=float)
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace > 0:
        s = 2.0 * math.sqrt(trace + 1.0)
        q = np.array([(m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s, 0.25 * s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = 2.0 * math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        q = np.array([0.25 * s, (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s, (m[2, 1] - m[1, 2]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = 2.0 * math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        q = np.array([(m[0, 1] + m[1, 0]) / s, 0.25 * s,
                      (m[1, 2] + m[2, 1]) / s, (m[0, 2] - m[2, 0]) / s])
    else:
        s = 2.0 * math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        q = np.array([(m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s,
                      0.25 * s, (m[1, 0] - m[0, 1]) / s])
    q = q / np.linalg.norm(q)
    if q[3] < 0:
        q = -q
    elif q[3] == 0:
        for component in q[:3]:
            if component != 0:
                if component < 0:
                    q = -q
                break
    return q


def quaternion_to_rotation(qx, qy, qz, qw):
    norm = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    if norm < 1e-12:
        raise ValueError("zero-norm quaternion")
    x, y, z, w = qx / norm, qy / norm, qz / norm, qw / norm
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _names_file(reader):
    """Reader wrapper: a ParseError it raises names the file it was reading."""
    @functools.wraps(reader)
    def read(path=None):
        try:
            return reader(path)
        except ParseError as exc:
            exc.path = path
            raise
    return read


def _read_text(path) -> str:
    """The file's UTF-8 text; undecodable bytes are a ParseError that names
    their byte offset."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", offset=exc.start) from exc


def _header_ints(tokens, what, line):
    """A header entry's values, which must be non-negative integers."""
    if not tokens or not all(t.isascii() and t.isdigit() for t in tokens):
        raise ParseError(f"{what} must be non-negative integers", line=line)
    return [int(tok) for tok in tokens]


def _float_rows(lines, first_line, width, sep=None, limit=None, wider=False,
                comments=False):
    """The data rows of `lines`, numbered from `first_line`, as an
    (N, width) float table plus each row's line number.

    Blank lines (and with `comments`, lines starting with '#') are skipped.
    A row has `width` fields split on `sep`, or with `wider` at least that
    many, of which the first `width` are kept. With a `limit`, parsing stops
    after that many rows, and a body that ends short of it is an error.
    """
    rows = []
    numbers = []
    for lineno, raw in enumerate(lines, first_line):
        if len(rows) == limit:
            break
        stripped = raw.strip()
        if not stripped or comments and stripped.startswith("#"):
            continue
        tokens = stripped.split(sep)
        if len(tokens) != width and not (wider and len(tokens) > width):
            raise ParseError(f"expected {width} fields, got {len(tokens)}",
                             line=lineno)
        try:
            rows.append([float(tok) for tok in tokens[:width]])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        numbers.append(lineno)
    if limit is not None and len(rows) < limit:
        raise ParseError(f"body ended after {len(rows)} of {limit} rows",
                         line=first_line + len(lines) - 1)
    return np.array(rows, dtype=float).reshape(-1, width), numbers


def _check_series(table, numbers, what):
    """A TUM or IMU table: every value finite and the timestamps (column 0)
    strictly increasing. The first bad row's line is named."""
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ParseError("non-finite value", line=numbers[bad[0]])
    times = table[:, 0]
    back = np.flatnonzero(times[1:] <= times[:-1]) + 1
    if back.size:
        k = back[0]
        raise NonMonotonicTimestamps(
            f"{what} timestamp {times[k]:.9f} does not increase past "
            f"{times[k - 1]:.9f}", line=numbers[k])


# ---------------------------------------------------------------------------
# TUM trajectories

def _fmt(value: float) -> str:
    return f"{value + 0.0:.9g}"  # +0.0 normalizes -0


def write_tum(path, trajectory: Trajectory):
    lines = []
    for t, pose in zip(trajectory.timestamps, trajectory.poses):
        q = rotation_to_quaternion(pose.rotation)
        x, y, z = pose.translation
        lines.append(" ".join([f"{t:.9f}", _fmt(x), _fmt(y), _fmt(z),
                               _fmt(q[0]), _fmt(q[1]), _fmt(q[2]), _fmt(q[3])]))
    Path(path).write_text("\n".join(lines) + "\n")


@_names_file
def read_tum(path) -> Trajectory:
    table, numbers = _float_rows(_read_text(path).splitlines(), 1, 8,
                                 comments=True)
    if not numbers:
        raise ParseError("no trajectory entries")
    _check_series(table, numbers, "trajectory")
    poses = []
    for row, lineno in zip(table.tolist(), numbers):
        try:
            rotation = quaternion_to_rotation(*row[4:])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        poses.append(Pose(rotation, np.array(row[1:4])))
    return Trajectory(table[:, 0], tuple(poses))


# ---------------------------------------------------------------------------
# PCD / PLY point clouds

def write_pcd(path, cloud: PointCloud, binary: bool = True):
    """PCD v0.7, float32, fields x y z (+ normals when present)."""
    has_normals = cloud.normals is not None
    fields = "x y z normal_x normal_y normal_z" if has_normals else "x y z"
    n_fields = 6 if has_normals else 3
    n = len(cloud)
    header = "\n".join([
        "# .PCD v0.7 - Point Cloud Data file format",
        "VERSION 0.7",
        f"FIELDS {fields}",
        "SIZE" + " 4" * n_fields,
        "TYPE" + " F" * n_fields,
        "COUNT" + " 1" * n_fields,
        f"WIDTH {n}",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        f"POINTS {n}",
        f"DATA {'binary' if binary else 'ascii'}",
    ]) + "\n"
    rows = np.hstack([cloud.points, cloud.normals]) if has_normals \
        else cloud.points
    rows = rows.astype("<f4")
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        if binary:
            handle.write(rows.tobytes())
        else:
            body = "\n".join(" ".join(_fmt(v) for v in row) for row in rows)
            handle.write((body + "\n").encode("ascii"))


@_names_file
def read_pcd(path) -> PointCloud:
    """Reads ASCII or binary PCD v0.7 with at least x y z fields.

    Rows with non-finite coordinates are dropped; normal fields are kept
    when all three are present.
    """
    data = Path(path).read_bytes()
    meta = {}
    pos = 0
    line_no = 0
    while True:
        newline = data.find(b"\n", pos)
        if newline < 0:
            raise ParseError("unterminated PCD header", line=line_no + 1)
        raw = data[pos:newline].decode("ascii", errors="replace").strip()
        pos = newline + 1
        line_no += 1
        if not raw or raw.startswith("#"):
            continue
        key, _, rest = raw.partition(" ")
        meta[key.upper()] = rest.split()
        if key.upper() == "DATA":
            break

    def require(key):
        if key not in meta:
            raise ParseError(f"PCD header missing {key}", line=line_no)
        return meta[key]

    fields = require("FIELDS")
    sizes = _header_ints(require("SIZE"), "PCD SIZE", line_no)
    types = require("TYPE")
    counts = _header_ints(meta.get("COUNT", ["1"] * len(fields)), "PCD COUNT",
                          line_no)
    if not len(fields) == len(sizes) == len(types) == len(counts):
        raise ParseError("inconsistent PCD field declaration", line=line_no)
    if len(set(fields)) != len(fields):
        raise ParseError("PCD FIELDS repeats a name", line=line_no)
    if any(c != 1 for c in counts):
        raise ParseError("PCD COUNT != 1 is not supported", line=line_no)
    for axis in ("x", "y", "z"):
        if axis not in fields:
            raise ParseError(f"PCD is missing field '{axis}'", line=line_no)
    if "POINTS" in meta:
        n_points = _header_ints(meta["POINTS"], "PCD POINTS", line_no)[0]
    else:
        n_points = (_header_ints(require("WIDTH"), "PCD WIDTH", line_no)[0]
                    * _header_ints(meta.get("HEIGHT", ["1"]), "PCD HEIGHT",
                                   line_no)[0])
    mode = (require("DATA") or [""])[0].lower()

    normal_fields = ("normal_x", "normal_y", "normal_z")
    read_normals = all(f in fields for f in normal_fields)

    if mode == "ascii":
        text = data[pos:].decode("ascii", errors="replace")
        table, _ = _float_rows(text.splitlines(), line_no + 1, len(fields),
                               limit=n_points)
        columns = {name: table[:, k] for k, name in enumerate(fields)}
    elif mode == "binary":
        try:
            formats = [_PCD_DTYPES[(t, s)] for t, s in zip(types, sizes)]
        except KeyError as exc:
            raise ParseError(f"unsupported PCD TYPE/SIZE {exc}",
                             line=line_no) from exc
        dtype = np.dtype({"names": fields, "formats": formats})
        expected = n_points * dtype.itemsize
        if len(data) - pos < expected:
            raise ParseError(
                f"PCD body truncated: need {expected} bytes, have "
                f"{len(data) - pos}", offset=len(data))
        table = np.frombuffer(data, dtype=dtype, count=n_points, offset=pos)
        with np.errstate(invalid="ignore"):  # a signalling NaN casts quietly
            columns = {name: table[name].astype(float) for name in fields}
    else:
        raise ParseError(f"unsupported PCD DATA mode '{mode}'", line=line_no)

    points = np.column_stack([columns["x"], columns["y"], columns["z"]])
    keep = np.all(np.isfinite(points), axis=1)
    points = points[keep]
    normals = None
    if read_normals:
        normals = np.column_stack([columns[f] for f in normal_fields])[keep]
    return PointCloud(points, normals)


@_names_file
def read_ply(path) -> PointCloud:
    """ASCII PLY with x/y/z vertex properties; non-finite rows are dropped."""
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("not a PLY file", line=1)
    n_vertices = None
    properties = []
    in_vertex = False
    body_start = None
    for lineno, raw in enumerate(lines[1:], 2):
        tokens = raw.strip().split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:2] != ["ascii"]:
                raise ParseError("only ASCII PLY is supported", line=lineno)
        elif tokens[0] == "element":
            in_vertex = tokens[1:2] == ["vertex"]
            if in_vertex:
                n_vertices = _header_ints(tokens[2:3], "PLY vertex count",
                                          lineno)[0]
        elif tokens[0] == "property" and in_vertex:
            properties.append(tokens[-1])
        elif tokens[0] == "end_header":
            body_start = lineno
            break
    if body_start is None or n_vertices is None:
        raise ParseError("PLY header missing end_header or vertex element",
                         line=len(lines))
    try:
        sel = [properties.index(axis) for axis in ("x", "y", "z")]
    except ValueError as exc:
        raise ParseError("PLY vertex element lacks x/y/z", line=body_start) from exc
    table, _ = _float_rows(lines[body_start:], body_start + 1,
                           len(properties), limit=n_vertices, wider=True)
    points = table[:, sel]
    return PointCloud(points[np.all(np.isfinite(points), axis=1)])


def read_cloud(path) -> PointCloud:
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        return read_ply(path)
    return read_pcd(path)


# ---------------------------------------------------------------------------
# IMU CSV

@_names_file
def read_imu_csv(path):
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != IMU_HEADER:
        raise ParseError(f"IMU CSV header must be '{IMU_HEADER}'", line=1)
    table, numbers = _float_rows(lines[1:], 2, 7, sep=",")
    if not numbers:
        raise ParseError("no IMU samples")
    _check_series(table, numbers, "IMU")
    return [ImuSample(t, w, a) for t, w, a in
            zip(table[:, 0].tolist(), table[:, 1:4], table[:, 4:7])]


def write_imu_csv(path, samples):
    lines = [IMU_HEADER]
    for s in samples:
        w = s.angular_velocity
        a = s.specific_force
        lines.append(",".join([f"{s.timestamp:.9f}"]
                              + [_fmt(v) for v in (*w, *a)]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scan file naming (timestamp-stemmed, zero padded so names sort by time)

def scan_filename(timestamp: float) -> str:
    return f"{timestamp:017.9f}.pcd"


def scan_timestamp(path) -> float:
    stem = Path(path).stem
    try:
        return float(stem)
    except ValueError as exc:
        raise ParseError(f"scan filename '{stem}' is not a timestamp") from exc


# ---------------------------------------------------------------------------
# configuration

DEFAULT_CONFIG = {
    "threads": 1,
    "keyframe_stride": 1,
    "map_factor_stride": 1,
    "window": 8,
    "voxel_size": 0.1,
    "verbose": False,
    "registration": {
        "max_correspondence_distance": 1.0,
        "max_iterations": 30,
        "convergence_threshold": 1e-6,
        "kernel_width": 0.1,
    },
    "degeneracy": {
        "d_e_threshold": None,  # null: calibrate from the first frames
        "s_thres": 3.0,
        "min_correspondences": 100,
        "auto_threshold_scale": 10.0,
    },
    "optimizer": {"max_iterations": 50},
    "zupt": {
        "min_duration": 0.5,
        "accel_std_threshold": 0.05,
        "gyro_mean_threshold": 0.02,
        "max_odom_displacement": 0.05,
    },
    "imu": {
        "sigma_gyro": 1e-3,
        "sigma_accel": 1e-2,
        "gravity_magnitude": 9.81,
    },
    "factors": {
        "prior_rot_sigma": 0.01,
        "prior_trans_sigma": 0.01,
        "odom_rot_sigma": 0.005,
        "odom_trans_sigma": 0.02,
        "map_weight": 2500.0,  # 1/sigma^2 for ~2 cm registration noise
        "zero_velocity_sigma": 0.01,
        "no_motion_rot_sigma": 0.002,
        "no_motion_trans_sigma": 0.002,
        "gravity_direction_sigma": 0.05,
        "gravity_magnitude_weight": 1e6,
        "bias_walk_sigma": 1e-3,
        "bias_prior_sigma": 0.1,
        "imu_weight": 1.0,
    },
    "eval": {"rpe_delta": 1, "map_threshold": 0.2, "max_dt": 0.05},
}

_SCHEMA_CACHE = {}


def _schema(name):
    if name not in _SCHEMA_CACHE:
        text = resources.files("maploc").joinpath(
            "schemas", f"{name}.schema.json").read_text()
        _SCHEMA_CACHE[name] = json.loads(text)
    return _SCHEMA_CACHE[name]


def _validate(payload, schema_name):
    try:
        jsonschema.validate(payload, _schema(schema_name))
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ParseError(f"{schema_name} schema violation at {path}: "
                         f"{exc.message}") from exc


def validate_config(config: dict):
    _validate(config, "config")


def validate_report(report: dict):
    _validate(report, "report")


def _deep_merge(base, override):
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


@_names_file
def load_config(path=None) -> dict:
    """Parse, schema-validate, and merge a JSON config over the defaults."""
    if path is None:
        return default_config()
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}",
                         line=exc.lineno) from exc
    if not isinstance(raw, dict):
        raise ParseError("config root must be a JSON object")
    validate_config(raw)
    return _deep_merge(DEFAULT_CONFIG, raw)


def apply_overrides(config: dict, assignments) -> dict:
    """Apply `section.key=value` overrides, then re-validate."""
    result = copy.deepcopy(config)
    for assignment in assignments:
        key, sep, raw_value = assignment.partition("=")
        if not sep:
            raise ParseError(f"override '{assignment}' must look like "
                             "section.key=value")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        node = result
        parts = key.strip().split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                raise ParseError(f"unknown config section '{part}' in "
                                 f"'{assignment}'")
            node = node[part]
        if parts[-1] not in node:
            raise ParseError(f"unknown config key '{key.strip()}'")
        node[parts[-1]] = value
    validate_config(result)
    return result


# ---------------------------------------------------------------------------
# deterministic JSON / CSV emission

def sanitize_json(obj):
    """Recursively convert numpy scalars/arrays and map non-finite floats
    to None so the result is strict JSON."""
    if isinstance(obj, dict):
        return {key: sanitize_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize_json(value) for value in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer, int)) or obj is None or isinstance(obj, (str, bool)):
        return int(obj) if isinstance(obj, np.integer) else obj
    return obj


def write_json(path, payload):
    text = json.dumps(sanitize_json(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    Path(path).write_text(text + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and not math.isfinite(value):
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def write_frames_csv(path, frames):
    """Plot-ready per-frame table; missing values are empty cells."""
    lines = [FRAMES_CSV_HEADER]
    for frame in frames:
        deg = frame.get("degeneracy")
        d_e = deg.get("d_e") if deg else None
        counts = deg.get("axis_counts") if deg else [None, None, None]
        mask = frame.get("mask", [])
        bits = [1 if axis in mask else 0 for axis in range(3)]
        lines.append(",".join([
            f"{frame['timestamp']:.9f}",
            _csv_cell(d_e),
            _csv_cell(counts[0]), _csv_cell(counts[1]), _csv_cell(counts[2]),
            str(bits[0]), str(bits[1]), str(bits[2]),
            _csv_cell(frame.get("residual_rms")),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_metrics_csv(path, metrics: dict):
    row = [
        _csv_cell(metrics.get("ate_rmse_cm")),
        _csv_cell(metrics.get("rpe_rmse_cm")),
        _csv_cell(metrics.get("rpe_per_meter_cm")),
        _csv_cell(metrics.get("map_acc_cm")),
        _csv_cell(metrics.get("map_com_percent")),
        _csv_cell(metrics.get("matched_pairs")),
    ]
    Path(path).write_text(METRICS_CSV_HEADER + "\n" + ",".join(row) + "\n")
