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
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import jsonschema
import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.spatial.transform import Rotation

from .degeneracy import DegeneracyParams
from .errors import NonMonotonicTimestamps, ParseError
from .evaluate import DEFAULT_MAX_DT, DEFAULT_THRESHOLD, Trajectory
from .factors import (GRAVITY_MAGNITUDE, SIGMA_ACCEL, SIGMA_GYRO,
                      ZuptParams, imu_samples)
from .geometry import PointCloud
from .graph import MAX_ITERATIONS
from .registration import RegistrationParams

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
# quaternions (Hamilton convention, components w-last), converted by scipy

def rotation_to_quaternion(rotations):
    """(qx, qy, qz, qw) of each rotation matrix (..., 3, 3), with a
    deterministic sign: qw > 0, or if qw == 0 the first nonzero vector
    component is positive."""
    return Rotation.from_matrix(rotations).as_quat(canonical=True)


def quaternion_to_rotation(quaternions):
    """The rotation matrix of each (qx, qy, qz, qw) row (..., 4), of any
    norm above 1e-12. Otherwise raises ValueError(message, the flat index
    of the first zero-norm row)."""
    q = np.asarray(quaternions, dtype=float)
    # Scaling by a power of two near the largest component keeps the norm
    # from overflowing, and is exact, so other quaternions keep their bits.
    exponent = np.frexp(np.abs(q).max(axis=-1, keepdims=True))[1]
    q = np.ldexp(q, -exponent)
    norm = np.ldexp(np.linalg.norm(q, axis=-1, keepdims=True), exponent)
    zero = np.flatnonzero(norm < 1e-12)
    if zero.size:
        raise ValueError("zero-norm quaternion", int(zero[0]))
    return Rotation.from_quat(q).as_matrix()


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
    values = np.hstack([trajectory.translations,
                        rotation_to_quaternion(trajectory.rotations)])
    lines = [" ".join([f"{t:.9f}", *map(_fmt, row)])
             for t, row in zip(trajectory.timestamps, values)]
    Path(path).write_text("\n".join(lines) + "\n")


@_names_file
def read_tum(path) -> Trajectory:
    table, numbers = _float_rows(_read_text(path).splitlines(), 1, 8,
                                 comments=True)
    if not numbers:
        raise ParseError("no trajectory entries")
    _check_series(table, numbers, "trajectory")
    try:
        rotations = quaternion_to_rotation(table[:, 4:])
    except ValueError as exc:
        message, row = exc.args
        raise ParseError(message, line=numbers[row]) from exc
    return Trajectory(table[:, 0], rotations, table[:, 1:4])


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


class CloudRows(NamedTuple):
    """A cloud file's rows with finite x/y/z: points (N, 3), and normals
    (N, 3) when the file has all three normal fields, else None.

    In a PCD, three fields that are floats of one type at one spacing give
    read-only, possibly strided, views of the binary body's bytes in that
    type, or of the ASCII body's parsed float64 table, copied only when a
    row is dropped. Other fields, and PLY, give float64 copies.
    PointCloud(*rows) casts them to float64.
    """

    points: np.ndarray
    normals: np.ndarray | None


def _finite_rows(points, normals=None) -> CloudRows:
    """The rows whose coordinates are all finite; a copy only when some row
    is not.

    The mask is taken one column at a time: numpy reduces (N, 3) rows along
    their 3-long axis several times slower than it reduces a column, and
    `and` gives the same mask in any order. Sums never take this shortcut,
    since a column's sum is pairwise and would change the bits."""
    x, y, z = points.T
    keep = np.isfinite(x) & np.isfinite(y) & np.isfinite(z)
    if keep.all():
        return CloudRows(points, normals)
    return CloudRows(points[keep], None if normals is None else normals[keep])


@_names_file
def _pcd_rows(path) -> CloudRows:
    """The rows of an ASCII or binary PCD v0.7 with at least x y z fields;
    normal fields are kept when all three are present."""
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

    if mode == "ascii":
        text = data[pos:].decode("ascii", errors="replace")
        values, _ = _float_rows(text.splitlines(), line_no + 1, len(fields),
                                limit=n_points)
        dtype = np.dtype({"names": fields, "formats": ["<f8"] * len(fields)})
        table = values.view(dtype)[:, 0]
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
    else:
        raise ParseError(f"unsupported PCD DATA mode '{mode}'", line=line_no)

    def rows(names):
        types, offsets = zip(*(dtype.fields[name] for name in names))
        step = offsets[1] - offsets[0]
        if types[0].kind == "f" and types.count(types[0]) == 3 \
                and offsets[2] - offsets[1] == step:
            # one float type at one spacing: a view of the table
            return as_strided(table[names[0]], (n_points, 3),
                              (dtype.itemsize, step), writeable=False)
        with np.errstate(invalid="ignore"):  # a signalling NaN casts quietly
            return np.stack([table[name] for name in names], axis=1,
                            dtype=float)

    normal_fields = ("normal_x", "normal_y", "normal_z")
    normals = rows(normal_fields) \
        if all(f in fields for f in normal_fields) else None
    return _finite_rows(rows(("x", "y", "z")), normals)


def read_pcd(path) -> PointCloud:
    """Reads ASCII or binary PCD v0.7 with at least x y z fields, as
    float64 whatever the field types: its CloudRows cast once.

    Rows with non-finite coordinates are dropped; normal fields are kept
    when all three are present.
    """
    return PointCloud(*_pcd_rows(path))


@_names_file
def _ply_rows(path) -> CloudRows:
    """The x/y/z rows of an ASCII PLY, as float64; no normals."""
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
    return _finite_rows(table[:, sel])


def read_ply(path) -> PointCloud:
    """ASCII PLY with x/y/z vertex properties; non-finite rows are dropped."""
    return PointCloud(*_ply_rows(path))


def read_cloud(path) -> CloudRows:
    """The CloudRows of a .ply file as read_ply reads it, or else of a PCD
    file as read_pcd reads it, before their cast to float64."""
    if Path(path).suffix.lower() == ".ply":
        return _ply_rows(path)
    return _pcd_rows(path)


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
    return imu_samples(table[:, 0], table[:, 1:4], table[:, 4:7])


def write_imu_csv(path, samples):
    values = np.hstack([samples.angular_velocity, samples.specific_force])
    lines = [",".join([f"{t:.9f}", *map(_fmt, row)])
             for t, row in zip(samples.timestamp.tolist(), values.tolist())]
    Path(path).write_text("\n".join([IMU_HEADER, *lines]) + "\n")


# ---------------------------------------------------------------------------
# scan file naming (timestamp-stemmed, zero padded so names sort by time)

def scan_filename(timestamp: float) -> str:
    return f"{timestamp:017.9f}.pcd"


@_names_file
def scan_timestamp(path) -> float:
    stem = Path(path).stem
    try:
        timestamp = float(stem)
    except ValueError as exc:
        raise ParseError(f"scan filename '{stem}' is not a timestamp") from exc
    if not math.isfinite(timestamp):
        raise ParseError(f"scan filename '{stem}' is not a finite timestamp")
    return timestamp


# ---------------------------------------------------------------------------
# configuration

DEFAULT_CONFIG = {
    "threads": 1,
    "keyframe_stride": 1,
    "map_factor_stride": 1,
    "window": 8,
    "voxel_size": 0.1,
    "verbose": False,
    "registration": asdict(RegistrationParams()),
    "degeneracy": asdict(DegeneracyParams()),
    "optimizer": {"max_iterations": MAX_ITERATIONS},
    "zupt": asdict(ZuptParams()),
    "imu": {
        "sigma_gyro": SIGMA_GYRO,
        "sigma_accel": SIGMA_ACCEL,
        "gravity_magnitude": GRAVITY_MAGNITUDE,
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
        "bias_walk_sigma": 1e-3,
        "bias_prior_sigma": 0.1,
    },
    "eval": {"rpe_delta": 1, "map_threshold": DEFAULT_THRESHOLD,
             "max_dt": DEFAULT_MAX_DT},
}

# Each config key takes its default's type. An integer is a count in
# [1, 2^31 - 1], and any other number a magnitude in [1e-100, 1e100], which
# keeps every sigma^2, 1/sigma^2 and weight finite; so a float key keeps a
# float literal default (2500.0, not 2500). The exceptions, by dotted key:
_CONFIG_BOUNDS = {
    "window": {"minimum": 0},                   # 0 frees every state
    "threads": {"maximum": 256},                # kd-tree query workers
    "degeneracy.s_thres": {"exclusiveMinimum": 1},
}


def _schema(defaults, bounds, number_rule, prefix=""):
    """The JSON schema of an object whose keys take their defaults' types:
    a bool is a boolean, an int a count, a list that many numbers, and any
    other number follows `number_rule`. `bounds` amends a rule by dotted
    key."""
    properties = {}
    for key, default in defaults.items():
        name = prefix + key
        if isinstance(default, dict):
            rule = _schema(default, bounds, number_rule, name + ".")
        elif isinstance(default, bool):
            rule = {"type": "boolean"}
        elif isinstance(default, int):
            rule = {"type": "integer", "minimum": 1, "maximum": 2 ** 31 - 1}
        elif isinstance(default, list):
            rule = {"type": "array", "items": number_rule,
                    "minItems": len(default), "maxItems": len(default)}
        else:
            rule = dict(number_rule)
        rule.update(bounds.get(name, {}))
        properties[key] = rule
    return {"type": "object", "additionalProperties": False,
            "properties": properties}


_DRAFT4_TYPES = jsonschema.Draft4Validator.TYPE_CHECKER


def _finite_number(checker, value):
    try:
        return _DRAFT4_TYPES.is_type(value, "number") and math.isfinite(value)
    except (OverflowError, TypeError):  # an int past float range, a complex
        return False


# Draft 7 also takes 2.0 as an integer, but a config count is used as an
# index or a range bound; draft 4's types take only integers. A number must
# also be finite: NaN passes every bound, as each comparison with it fails.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=_DRAFT4_TYPES.redefine("number", _finite_number))


def _validator(schema):
    """A validator of `schema`, checked against its metaschema once, here;
    jsonschema.validate would check it again on every call."""
    _Validator.check_schema(schema)
    return _Validator(schema)


def _validate(payload, validator, name, error=ParseError):
    """Raise `error` naming the first key of `payload` that `validator`
    refuses."""
    exc = jsonschema.exceptions.best_match(validator.iter_errors(payload))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise error(f"{name} schema violation at {path}: "
                    f"{exc.message}") from exc


_VALIDATORS = {
    "config": _validator(_schema(
        DEFAULT_CONFIG, _CONFIG_BOUNDS,
        {"type": "number", "minimum": 1e-100, "maximum": 1e100})),
    "report": _validator(json.loads(resources.files("maploc").joinpath(
        "schemas", "report.schema.json").read_text())),
}


def validate_config(config: dict):
    _validate(config, _VALIDATORS["config"], "config")


def validate_report(report: dict):
    _validate(report, _VALIDATORS["report"], "report")


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


def _reject_constant(token):
    """json.loads hook for the NaN and Infinity tokens Python accepts
    beyond JSON; no config value may be non-finite."""
    raise ParseError(f"non-finite number {token}")


@_names_file
def load_config(path=None) -> dict:
    """Parse, schema-validate, and merge a JSON config over the defaults."""
    if path is None:
        return default_config()
    try:
        raw = json.loads(_read_text(path), parse_constant=_reject_constant)
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
            value = json.loads(raw_value, parse_constant=_reject_constant)
        except json.JSONDecodeError:
            value = raw_value
        except ParseError as exc:
            raise ParseError(f"config key '{key.strip()}': {exc}") from exc
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
    row = [_csv_cell(metrics.get(key)) for key in METRICS_CSV_HEADER.split(",")]
    Path(path).write_text(METRICS_CSV_HEADER + "\n" + ",".join(row) + "\n")
