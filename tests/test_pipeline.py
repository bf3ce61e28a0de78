"""End-to-end pipeline tests on small synthetic rooms.

Scenes are generated once per module; each run takes well under a second
at this scale, so the full-run tests stay cheap while still exercising
registration, degeneracy gating, ZUPT, IMU fusion, and report emission.
"""

import copy
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maploc import io as mio
from maploc import pipeline, synth
from maploc.errors import (DataError, EmptyCloud, InitializationFailure,
                           NoMatches, NonMonotonicTimestamps, ParseError,
                           SingularSystem)
from maploc.evaluate import Trajectory, ate
from maploc.factors import imu_samples
from maploc.geometry import (PointCloud, Pose, between, build_index,
                             compose, estimate_normals)
from maploc.graph import FactorGraph
from maploc.io import (default_config, read_pcd, read_tum, validate_report,
                       write_pcd)
from maploc.pipeline import (PriorMap, SequenceInput, load_map, load_sequence,
                             run, emit_reports, voxel_downsample)

from conftest import imu_stream, trajectory
from oracles import (key_spans_of_cells, stacked_map,
                     voxel_downsample_unique)
from test_registration import SMOKE_SPEC

SENSOR = {"n_azimuth": 90, "n_elevation": 8, "max_range": 12.0,
          "min_range": 0.3}
L_PATH = [{"pos": [2.0, 2.0, 1.5], "speed": 1.0},
          {"pos": [4.0, 2.0, 1.5], "speed": 1.0},
          {"pos": [4.0, 4.0, 1.5]}]

ROOM_SPEC = {"kind": "cube-room", "seed": 3, "size": [6.0, 6.0, 3.0],
             "density": 150.0, "sensor": SENSOR, "trajectory": L_PATH}

DWELL_SPEC = {"kind": "cube-room", "seed": 9, "size": [6.0, 6.0, 3.0],
              "density": 150.0, "sensor": SENSOR,
              "trajectory": [{"pos": [2.0, 2.0, 1.5], "speed": 1.0},
                             {"pos": [4.0, 2.0, 1.5], "speed": 1.0,
                              "dwell": 3.0},
                             {"pos": [4.0, 4.0, 1.5]}]}

DRIFT_SPEC = {"kind": "cube-room", "seed": 5, "size": [6.0, 6.0, 3.0],
              "density": 150.0, "sensor": SENSOR,
              "odometry": {"drift_per_frame": [0, 0, 0, 0, 0, 0.01]},
              "trajectory": L_PATH}

NOISY_SPEC = {"kind": "cube-room", "seed": 11, "size": [6.0, 6.0, 3.0],
              "density": 400.0, "range_noise_sigma": 0.03, "sensor": SENSOR,
              "odometry": {"rot_noise_sigma": 0.002,
                           "trans_noise_sigma": 0.005},
              "trajectory": L_PATH}


def make_cfg(**kw):
    cfg = default_config()
    cfg["degeneracy"]["min_correspondences"] = 50  # scans here are 720 rays
    for key, value in kw.items():
        section, _, name = key.partition("__")
        if name:
            cfg[section][name] = value
        else:
            cfg[key] = value
    return cfg


def scene(spec_dict):
    result = synth.generate(synth.parse_scene_spec(spec_dict))
    pm = PriorMap(cloud=result.gt_map, index=build_index(result.gt_map),
                  voxel_size=0.1)
    return result, pm


@pytest.fixture(scope="module")
def room():
    return scene(ROOM_SPEC)


@pytest.fixture(scope="module")
def run_noimu(room):
    result, pm = room
    seq = SequenceInput(scans=tuple((f.timestamp, f.cloud)
                                    for f in result.scans),
                        odometry=result.odometry)
    return run(pm, seq, make_cfg(), groundtruth=result.gt_trajectory)


@pytest.fixture(scope="module")
def run_imu(room):
    result, pm = room
    return run(pm, SequenceInput.from_synth(result), make_cfg(),
               groundtruth=result.gt_trajectory)


@pytest.fixture(scope="module")
def dwell_run():
    result, pm = scene(DWELL_SPEC)
    out = run(pm, SequenceInput.from_synth(result), make_cfg(),
              groundtruth=result.gt_trajectory)
    return result, out


def brute_voxel(points, voxel):
    cells = {}
    for p in points:
        key = (int(np.floor(p[0] / voxel)), int(np.floor(p[1] / voxel)),
               int(np.floor(p[2] / voxel)))
        cells.setdefault(key, []).append(p)
    return np.array([np.mean(cells[k], axis=0) for k in sorted(cells)])


@st.composite
def voxel_clouds(draw):
    """(points, voxel, normals): coordinates in voxel units, either whole
    (on a cell boundary) or fractional, of either sign; the first rows
    repeated; normals with components in {-1, 0, 1}, so they often cancel."""
    voxel = draw(st.sampled_from([0.1, 0.25, 1.0, 3.0]))
    unit = st.one_of(st.integers(-6, 6).map(float),
                     st.floats(-6.0, 6.0, allow_subnormal=False))
    rows = draw(st.lists(st.tuples(unit, unit, unit), max_size=40))
    rows += rows[:draw(st.integers(0, 5))]
    points = np.array(rows, dtype=float).reshape(-1, 3) * voxel
    normals = None
    if draw(st.booleans()):
        sign = st.sampled_from([-1.0, 0.0, 1.0])
        normals = np.array(draw(st.lists(
            st.tuples(sign, sign, sign), min_size=len(rows),
            max_size=len(rows))), dtype=float).reshape(-1, 3)
    return points, voxel, normals


def strided_float32(cloud):
    """(points, voxel, normals) with the rows as float32 strided views into
    a PCD-like record with a uint16 field between x/y/z and the normals (so
    the normals' columns are not 4-byte aligned)."""
    points, voxel, normals = cloud
    record = np.zeros(len(points), dtype=[("p", "<f4", 3), ("i", "<u2"),
                                          ("n", "<f4", 3)])
    record["p"] = points
    if normals is not None:
        record["n"] = normals
        normals = record["n"]
    return record["p"], voxel, normals


@st.composite
def float32_rows(draw):
    """(points, voxel, normals) from voxel_clouds as float32 rows: either
    contiguous (N, 3) arrays or strided_float32 views."""
    points, voxel, normals = draw(voxel_clouds())
    points = points.astype(np.float32)
    normals = None if normals is None else normals.astype(np.float32)
    if draw(st.booleans()):
        return strided_float32((points, voxel, normals))
    return points, voxel, normals


def block_straddling_cloud(seed):
    """(points, voxel, normals) with 7 rows more than 3 blocks of
    voxel_downsample's key packing: half the rows on multiples of a quarter
    of the 0.25 m cell (so often on a cell boundary), of either sign, the
    rest uniform; normals with components in {-1, 0, 1}, so some voxels'
    normals cancel."""
    rng = np.random.default_rng(seed)
    n = 3 * pipeline._KEY_BLOCK + 7
    points = np.where(rng.random((n, 1)) < 0.5,
                      rng.integers(-12, 12, size=(n, 3)) * 0.0625,
                      rng.uniform(-0.75, 0.75, size=(n, 3)))
    normals = rng.integers(-1, 2, size=(n, 3)).astype(float)
    return points, 0.25, normals


# each axis's least and greatest coordinate in a row of its own, so the
# grid's corner is in no row: extrema taken per row, or from one column for
# every axis, give the wrong grid
SCATTERED_EXTREMA = (np.array([[-1.05, 0.1, 0.2], [0.95, -0.1, 0.0],
                               [0.3, -0.85, 0.1], [-0.2, 0.75, -0.1],
                               [0.1, 0.3, -0.65], [0.0, -0.2, 0.55]]),
                     0.25, np.tile([0.0, 0.6, 0.8], (6, 1)))


class TestVoxelDownsample:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cloud=voxel_clouds())
    @example(cloud=block_straddling_cloud(30))
    @example(cloud=SCATTERED_EXTREMA)
    @example(cloud=(np.zeros((0, 3)), 0.1, None))
    @example(cloud=(np.zeros((0, 3)), 0.1, np.zeros((0, 3))))
    @example(cloud=(np.array([[-0.05, 0.1, 0.0]]), 0.1,
                    np.array([[0.0, 0.0, 1.0]])))
    @example(cloud=(np.array([[0.01, 0.0, 0.0], [0.02, 0.0, 0.0]]), 1.0,
                    np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])))
    def test_bit_identical_to_unique_oracle(self, cloud):
        points, voxel, normals = cloud
        got = voxel_downsample(points, voxel, normals)
        want = voxel_downsample_unique(points, voxel, normals)
        assert got[0].shape == want[0].shape == (len(want[0]), 3)
        assert np.array_equal(got[0], want[0])
        if normals is None:
            assert got[1] is None
        else:
            assert np.array_equal(got[1], want[1], equal_nan=True)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(cloud=float32_rows())
    @example(cloud=(np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.1],
                              [-0.1, -0.0, 0.0]], dtype=np.float32), 0.1,
                    np.array([[-0.0, 0.0, 1.0]] * 3, dtype=np.float32)))
    @example(cloud=(np.array([[-0.25, 0.5, -0.75], [0.25, -0.5, 0.75]],
                             dtype=np.float32)[:, ::-1], 0.25, None))
    @example(cloud=strided_float32(block_straddling_cloud(31)))
    @example(cloud=strided_float32(SCATTERED_EXTREMA))
    def test_float32_rows_bit_identical_to_oracle_of_cast(self, cloud):
        """float32 rows, strided views included, give the bits the oracle
        gives on their float64 cast: negative coordinates, coordinates on
        cell boundaries and -0.0 fall in the same cells."""
        points, voxel, normals = cloud
        got = voxel_downsample(points, voxel, normals)
        want = voxel_downsample_unique(
            points.astype(float), voxel,
            None if normals is None else normals.astype(float))
        assert np.array_equal(got[0], want[0])
        if normals is None:
            assert got[1] is None
        else:
            assert np.array_equal(got[1], want[1], equal_nan=True)

    @pytest.mark.parametrize("points", [
        [[0, 0, 0], [1e19, 0, 0], [2e19, 0, 0], [0.05, 0, 0]],  # > 2^62 cells
        [[0, 0, 0], [-1e17, 1e17, 1e17]],   # each axis fits, the product not
    ], ids=["axis", "product"])
    def test_grid_beyond_int64_keys_raises(self, points):
        with pytest.raises(DataError, match="voxel grid of 0.1 m"):
            voxel_downsample(np.array(points, dtype=float), 0.1)

    def test_matches_brute_force_oracle(self, rng):
        points = rng.uniform(-3.0, 3.0, size=(500, 3))
        got, _ = voxel_downsample(points, 0.25)
        expected = brute_voxel(points, 0.25)
        assert got.shape == expected.shape
        assert np.allclose(got, expected, atol=1e-12)

    def test_unit_cube_collapses_to_centroid(self):
        corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1)
                            for z in (0, 1)], dtype=float)
        got, _ = voxel_downsample(corners, 10.0)
        assert got.shape == (1, 3)
        assert np.allclose(got[0], [0.5, 0.5, 0.5])

    def test_normals_averaged_and_renormalized(self):
        points = np.array([[0.01, 0, 0], [0.02, 0, 0]])
        normals = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        _, avg = voxel_downsample(points, 1.0, normals)
        assert np.allclose(avg[0], [np.sqrt(0.5), np.sqrt(0.5), 0])

    def test_cancelling_normals_become_nan(self):
        points = np.array([[0.01, 0, 0], [0.02, 0, 0]])
        normals = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        _, avg = voxel_downsample(points, 1.0, normals)
        assert np.all(np.isnan(avg[0]))

    def test_deterministic(self, rng):
        points = rng.normal(size=(200, 3))
        a, _ = voxel_downsample(points, 0.5)
        b, _ = voxel_downsample(points, 0.5)
        assert np.array_equal(a, b)

    def test_peak_memory_within_three_key_arrays(self):
        """On 1M float32 rows with normals, strided like a PCD's, the
        tracemalloc peak stays within 3 int64 arrays of one key per row:
        the key is built in row blocks, and one sort and one searchsorted
        group it."""
        rng = np.random.default_rng(30)
        n = 1_000_000
        points = np.column_stack([rng.uniform(0.0, 10.0, n),
                                  rng.uniform(0.0, 8.0, n), np.zeros(n)])
        cloud = strided_float32((points, 0.1, np.tile([0.0, 0.0, 1.0],
                                                      (n, 1))))
        del points
        tracemalloc.start()
        try:
            voxel_downsample(*cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n


class TestKeySpans:
    @pytest.mark.parametrize("voxel", [0.1, 0.25, 0.3, 1.0])
    def test_least_cell_is_least_floor(self, voxel):
        """The extrema's cells are the least and greatest of the points'
        cells, for coordinates that straddle zero and sit on, just below
        and just above cell boundaries, -0.0 included."""
        edges = np.arange(-3, 4) * voxel
        values = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                 np.nextafter(edges, np.inf), [-0.0, 0.0]])
        rng = np.random.default_rng(17)
        cases = [np.full((2, 3), -0.0), np.array([[-0.0, 0.0, -0.0]])]
        cases += [rng.choice(values, size=(int(rng.integers(1, 6)), 3))
                  for _ in range(300)]
        for points in cases:
            lo, spans = pipeline._key_spans(points.min(axis=0),
                                            points.max(axis=0), voxel)
            want_lo, want_spans = key_spans_of_cells(points, voxel)
            assert np.array_equal(lo, want_lo)
            assert spans == want_spans

    @pytest.mark.parametrize("voxel", [0.1, 0.3, 1.0])
    def test_bounds_raise_where_flooring_every_point_did(self, voxel):
        """Both DataErrors, a cell index past 2^62 and more than 2^63 keys,
        trigger at the extrema where the flooring of every point did."""
        big = 2.0 ** 62 * voxel
        axis_ends = [big, -big, math.inf, -math.inf, math.nan]
        axis_ends += [np.nextafter(t, s) for t in (big, -big)
                      for s in (-math.inf, math.inf)]
        cases = [np.array([[0.0, 0.0, 0.0], np.roll([t, 0.0, 0.0], axis)])
                 for t in axis_ends for axis in range(3)]
        # cells 0 to 2^21 - 1 on x and y, and to 2^21 - 1 or 2^21 on z: a
        # grid of exactly 2^63 keys, and one just past it
        side = (2.0 ** 21 - 0.5) * voxel
        cases += [np.array([[0.0, 0.0, 0.0], [side, side, side + d]])
                  for d in (0.0, voxel)]
        messages, fits = set(), 0
        for points in cases:
            want = key_spans_of_cells(points, voxel)
            if isinstance(want, str):
                with pytest.raises(DataError, match=re.escape(want)):
                    pipeline._key_spans(points.min(axis=0),
                                        points.max(axis=0), voxel)
                messages.add(want)
            else:
                lo, spans = pipeline._key_spans(points.min(axis=0),
                                                points.max(axis=0), voxel)
                assert np.array_equal(lo, want[0]) and spans == want[1]
                fits += math.prod(spans) == 2 ** 63
        assert len(messages) == 2 and fits == 1


def map_rows(rng, n=3000):
    """A float32 map of a floor (z = 0) and a wall (x = 0) with unit file
    normals; those with y < 1 m and every 7th are NaN (one a signalling
    NaN), and every 50th row has a non-finite coordinate."""
    half = n // 2
    points = np.vstack([
        np.column_stack([rng.uniform(0, 3, half), rng.uniform(0, 3, half),
                         np.zeros(half)]),
        np.column_stack([np.zeros(n - half), rng.uniform(0, 3, n - half),
                         rng.uniform(0, 2, n - half)])]).astype(np.float32)
    normals = np.repeat(np.array([[0, 0, 1], [1, 0, 0]], dtype=np.float32),
                        [half, n - half], axis=0)
    normals[points[:, 1] < 1.0] = np.nan
    normals[::7] = np.nan
    normals.view(np.uint32)[3, 0] = 0x7FA00000  # signalling NaN
    points[::50, 0] = np.nan
    points[25::50, 2] = -np.inf
    return points, normals


def write_map(path, points, normals):
    """The rows as a PCD (binary or, for an .ascii.pcd name, ASCII) with a
    uint16 intensity field between x y z and the normals, or as an ASCII
    PLY with a uchar property after x y z (and no normals)."""
    n = len(points)
    intensity = np.arange(n) % 1000
    if path.suffix == ".ply":
        header = ["ply", "format ascii 1.0", f"element vertex {n}",
                  "property float x", "property float y", "property float z",
                  "property uchar red", "end_header"]
        rows = [" ".join([*map(repr, map(float, p)), str(i % 256)])
                for p, i in zip(points, intensity)]
        path.write_text("\n".join(header + rows) + "\n")
        return
    ascii_body = path.name.endswith(".ascii.pcd")
    header = ("VERSION 0.7\nFIELDS x y z intensity normal_x normal_y "
              "normal_z\nSIZE 4 4 4 2 4 4 4\nTYPE F F F U F F F\n"
              f"COUNT 1 1 1 1 1 1 1\nWIDTH {n}\nHEIGHT 1\n"
              f"VIEWPOINT 0 0 0 1 0 0 0\nPOINTS {n}\n"
              f"DATA {'ascii' if ascii_body else 'binary'}\n").encode()
    if ascii_body:
        rows = [" ".join([*map(repr, map(float, p)), str(i),
                          *map(repr, map(float, m))])
                for p, i, m in zip(points, intensity, normals)]
        path.write_bytes(header + ("\n".join(rows) + "\n").encode())
        return
    record = np.zeros(n, dtype=[("p", "<f4", 3), ("i", "<u2"),
                                ("n", "<f4", 3)])
    record["p"], record["i"], record["n"] = points, intensity, normals
    path.write_bytes(header + record.tobytes())


def composed_map(points, normals, voxel):
    """load_map's cloud as the float64 composition computes it from the
    file's rows: drop non-finite rows and cast, downsample (by the oracle),
    re-estimate the normals the voxels lack."""
    finite = np.isfinite(points).all(axis=1)
    points = points[finite].astype(float)
    if normals is not None:
        with np.errstate(invalid="ignore"):  # the signalling NaN
            normals = normals[finite].astype(float)
    points, normals = voxel_downsample_unique(points, voxel, normals)
    estimated = estimate_normals(PointCloud(points), k=10).normals
    if normals is None:
        return PointCloud(points, estimated)
    bad = ~np.isfinite(normals).all(axis=1)
    return PointCloud(points, np.where(bad[:, None], estimated, normals))


class TestLoadMap:
    def test_room_pcd_counts_match_oracle(self, room, tmp_path):
        result, _ = room
        from maploc.io import write_pcd
        path = tmp_path / "map.pcd"
        write_pcd(path, result.gt_map)
        pm = load_map(path, voxel_size=0.1)
        expected = len(brute_voxel(result.gt_map.points, 0.1))
        assert abs(len(pm.cloud) - expected) <= 0.01 * expected
        assert np.all(np.isfinite(pm.cloud.normals))
        assert np.allclose(np.linalg.norm(pm.cloud.normals, axis=1), 1.0,
                           atol=1e-9)

    def test_cube_ply_single_centroid(self, tmp_path):
        lines = ["ply", "format ascii 1.0", "element vertex 8",
                 "property float x", "property float y", "property float z",
                 "end_header"]
        lines += [f"{x} {y} {z}" for x in (0, 1) for y in (0, 1)
                  for z in (0, 1)]
        path = tmp_path / "cube.ply"
        path.write_text("\n".join(lines) + "\n")
        pm = load_map(path, voxel_size=10.0)
        assert len(pm.cloud) == 1
        assert np.allclose(pm.cloud.points[0], [0.5, 0.5, 0.5])

    def test_empty_cloud_raises(self, tmp_path):
        from maploc.io import write_pcd
        path = tmp_path / "empty.pcd"
        write_pcd(path, PointCloud(np.empty((0, 3))))
        with pytest.raises(EmptyCloud):
            load_map(path)

    def test_truncated_pcd_raises(self, room, tmp_path):
        result, _ = room
        from maploc.io import write_pcd
        path = tmp_path / "map.pcd"
        write_pcd(path, result.gt_map)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ParseError):
            load_map(path)

    @pytest.mark.parametrize("name", ["map.pcd", "map.ascii.pcd",
                                      "map.ply"])
    def test_bit_identical_to_float64_composition(self, tmp_path, rng, name):
        """Binary and ASCII PCD (an intensity field between x y z and the
        normals; NaN normals, a signalling one included; non-finite rows)
        and PLY maps load to the cloud the float64 composition gives."""
        points, normals = map_rows(rng)
        path = tmp_path / name
        write_map(path, points, normals)
        pm = load_map(path, voxel_size=0.1)
        want = composed_map(points, None if name == "map.ply" else normals,
                            0.1)
        assert np.array_equal(pm.cloud.points, want.points)
        assert np.array_equal(pm.cloud.normals, want.normals, equal_nan=True)

    @pytest.mark.parametrize("name, cut", [
        ("map.pcd", lambda data: data[:-5]),
        ("map.ascii.pcd", lambda data: data.replace(b" 1.0\n", b" 1.0x\n")),
        ("map.ply", lambda data: data[:data.rindex(b" ")] + b"\n"),
    ], ids=["truncated-binary", "bad-token-ascii", "short-row-ply"])
    def test_parse_error_names_the_map_file(self, tmp_path, rng, name, cut):
        path = tmp_path / name
        write_map(path, *map_rows(rng, n=40))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(ParseError) as info:
            load_map(path)
        assert info.value.path == path
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("name", ["map.pcd", "map.ascii.pcd", "map.ply"])
    def test_no_finite_row_raises_empty_cloud_naming_the_file(
            self, tmp_path, rng, name):
        points, normals = map_rows(rng, n=40)
        points[:, 1] = np.nan
        path = tmp_path / name
        write_map(path, points, normals)
        with pytest.raises(EmptyCloud, match=f"^map file {re.escape(str(path))} "
                           "holds no finite points$"):
            load_map(path)

    def test_peak_memory_within_two_and_a_half_file_sizes(self, tmp_path):
        """A dense float32 plane (400k points, ~125 per 0.1 m voxel) is
        loaded without a float64 copy of its rows or a full-size grouping
        permutation: tracemalloc's peak stays within 2.5 times the file's
        size (the file's bytes included)."""
        rng = np.random.default_rng(28)
        n = 400_000
        points = np.column_stack([rng.uniform(0.0, 6.4, n),
                                  rng.uniform(0.0, 5.0, n), np.zeros(n)])
        path = tmp_path / "plane.pcd"
        write_pcd(path, PointCloud(points, np.tile([0.0, 0.0, 1.0], (n, 1))))
        del points
        tracemalloc.start()
        try:
            load_map(path, voxel_size=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * path.stat().st_size

    def test_bad_voxel_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_map(tmp_path / "whatever.pcd", voxel_size=0.0)

    @pytest.mark.parametrize("voxel", [math.nan, math.inf])
    def test_non_finite_voxel_rejected(self, tmp_path, voxel):
        with pytest.raises(ValueError):
            load_map(tmp_path / "whatever.pcd", voxel_size=voxel)

    def test_file_normals_survive(self, tmp_path):
        # flat plane written with its analytic normals; the loader should
        # keep them rather than re-estimating
        from maploc.io import write_pcd
        xs, ys = np.meshgrid(np.linspace(0, 2, 20), np.linspace(0, 2, 20))
        points = np.column_stack([xs.ravel(), ys.ravel(),
                                  np.zeros(xs.size)])
        normals = np.tile([0.0, 0.0, 1.0], (len(points), 1))
        path = tmp_path / "plane.pcd"
        write_pcd(path, PointCloud(points, normals))
        pm = load_map(path, voxel_size=0.3)
        assert np.allclose(np.abs(pm.cloud.normals[:, 2]), 1.0, atol=1e-6)

    def test_nan_file_normals_are_reestimated(self, tmp_path):
        # the smoke map with its normals NaN for x < 2.5 m: those voxels get
        # estimated normals, except on edges that fail the flatness gate of
        # estimate_normals and stay NaN; every other voxel keeps its file
        # normal bit for bit
        from maploc.io import write_pcd
        write_pcd(tmp_path / "map.pcd",
                  synth.generate(synth.parse_scene_spec(SMOKE_SPEC)).gt_map)
        cloud = read_pcd(tmp_path / "map.pcd")  # float32 as the file has it
        normals = cloud.normals.copy()
        normals[cloud.points[:, 0] < 2.5] = np.nan
        write_pcd(tmp_path / "nan.pcd", PointCloud(cloud.points, normals))
        clean = load_map(tmp_path / "map.pcd")
        pm = load_map(tmp_path / "nan.pcd")
        assert np.array_equal(pm.cloud.points, clean.cloud.points)
        region = pm.cloud.points[:, 0] < 2.5
        assert np.array_equal(pm.cloud.normals[~region],
                              clean.cloud.normals[~region])
        finite = np.all(np.isfinite(pm.cloud.normals), axis=1)
        assert 0.9 < finite[region].mean() < 1.0
        assert np.allclose(np.linalg.norm(pm.cloud.normals[finite], axis=1),
                           1.0, atol=1e-12)


class TestLoadSequence:
    def test_roundtrip_from_synth_layout(self, room, tmp_path):
        result, _ = room
        paths = synth.write_sequence(result, tmp_path)
        seq = load_sequence(paths["scans"], paths["odometry"], paths["imu"])
        assert len(seq.scans) == len(result.scans)
        got_t = [t for t, _ in seq.scans]
        want_t = [f.timestamp for f in result.scans]
        assert np.allclose(got_t, want_t, atol=1e-9)
        assert len(seq.odometry) == len(result.odometry)
        assert len(seq.imu) == len(result.imu)

    def test_imu_stream_checked_once(self, room, tmp_path, monkeypatch):
        """imu_samples builds (so checks) an IMU stream once: read_imu_csv's
        stream goes into load_sequence's SequenceInput as it is, and a
        stream given to SequenceInput in memory is built once."""
        result, _ = room
        paths = synth.write_sequence(result, tmp_path)
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return imu_samples(*args)
        monkeypatch.setattr(pipeline, "imu_samples", counted)
        monkeypatch.setattr(mio, "imu_samples", counted)
        seq = load_sequence(paths["scans"], paths["odometry"], paths["imu"])
        assert calls == [len(result.imu)]
        assert not seq.imu.flags.writeable
        assert np.array_equal(seq.imu, mio.read_imu_csv(paths["imu"]))
        calls.clear()
        SequenceInput.from_synth(result)
        assert calls == [len(result.imu)]

    def test_scans_ordered_by_timestamp_not_name(self, room, tmp_path):
        """Unpadded names do not sort by time as text (0.1.pcd comes
        before 0.pcd); the scans still load in time order."""
        result, _ = room
        paths = synth.write_sequence(result, tmp_path)
        scans = sorted(paths["scans"].glob("*.pcd"))
        for path in scans:
            path.rename(path.with_name(f"{float(path.stem):g}.pcd"))
        seq = load_sequence(paths["scans"], paths["odometry"])
        times = [t for t, _ in seq.scans]
        assert times == sorted(times) and len(times) == len(scans)
        assert [p.name for _, p in seq.scans[9:11]] == ["0.9.pcd", "1.pcd"]

    def test_missing_scans_raise(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ParseError):
            load_sequence(tmp_path / "empty", tmp_path / "odom.tum")


class TestCleanRoom:
    def test_no_imu_recovers_ground_truth(self, run_noimu):
        assert run_noimu.metrics.ate_rmse_cm < 0.2
        assert run_noimu.metrics.map_acc_cm < 4.0
        assert all(f["map_factor_added"] for f in run_noimu.frames)
        assert all(f["mask"] == [] for f in run_noimu.frames)

    def test_with_imu_recovers_ground_truth(self, run_imu):
        assert run_imu.metrics.ate_rmse_cm < 0.2
        assert sum(f["zupt"] for f in run_imu.frames) == 0

    def test_gravity_untouched_without_zupt(self, run_imu):
        # no stationary interval -> no gravity factor -> the shared gravity
        # variable must remain exactly at initialization
        assert np.array_equal(run_imu.graph.gravity, [0.0, 0.0, -1.0])

    def test_biases_stay_small_on_clean_data(self, run_imu):
        for state in run_imu.graph.states:
            assert np.linalg.norm(state.bias[:3]) < 5e-3
            assert np.linalg.norm(state.bias[3:]) < 5e-3

    def test_report_complete_and_valid(self, run_noimu):
        report = run_noimu.report
        validate_report(report)
        assert report["num_states"] == len(run_noimu.frames)
        assert report["metrics"]["ate_rmse_cm"] < 0.2
        assert len(report["frames"]) == len(run_noimu.frames)

    def test_frames_record_registration(self, run_noimu):
        for f in run_noimu.frames:
            assert f["correspondences"] > 0
            assert f["residual_rms"] < 0.05
            deg = f["degeneracy"]
            assert deg["stage1_reject"] is False
            assert deg["degenerate_axes"] == []
            assert deg["d_e"] > 0


class TestImuDropout:
    """An interval whose IMU samples do not reach both of its keyframe
    times to within 1.5 median periods, or leave a gap of more than 1.5
    median periods inside it, gets no IMU factor: preintegrating the
    samples it has would take a shorter span for the whole interval, or
    one long midpoint step under the noise of a short one. Every other IMU
    factor spans exactly its keyframe interval, also when no sample falls
    on a keyframe time."""

    @pytest.mark.parametrize("keep, dropped", [
        (lambda t: not 0.65 < t < 1.85, range(7, 20)),  # gap, off-grid ends
        (lambda t: t <= 0.35, range(4, 41)),  # stream ends mid-interval
        (lambda t: abs(10 * t - round(10 * t)) > 1e-6, ()),  # none on scans
        (lambda t: not 0.302 < t < 0.398, (4,)),  # both ends, nothing inside
    ], ids=["gap", "cut", "off-scan", "inner-gap"])
    def test_uncovered_interval_gets_no_imu_factor(self, room, caplog, keep,
                                                   dropped):
        result, pm = room
        seq = SequenceInput.from_synth(result)
        seq = replace(seq, imu=seq.imu[[keep(t) for t in seq.imu.timestamp]])
        out = run(pm, seq, make_cfg(), groundtruth=result.gt_trajectory)
        imu_factors = [f for f in out.graph.factors if f.kind == "imu"]
        assert {f.j for f in imu_factors} == (set(range(1, len(out.frames)))
                                              - set(dropped))
        for f in imu_factors:
            span = out.graph.states[f.j].timestamp - out.graph.states[f.i].timestamp
            assert f.preint.duration == pytest.approx(span, abs=1e-9)
        warned = [r.getMessage() for r in caplog.records
                  if "IMU samples" in r.getMessage()]
        assert [int(m.split()[1].rstrip(":")) for m in warned] == list(dropped)
        assert out.metrics.ate_rmse_cm < 0.2


class TestZupt:
    def test_fires_only_while_stationary(self, dwell_run):
        result, out = dwell_run
        flagged = [f for f in out.frames if f["zupt"]]
        assert len(flagged) >= 15
        # every flagged timestamp must sit on the dwell waypoint
        times = result.gt_trajectory.timestamps
        for f in flagged:
            k = int(np.argmin(np.abs(times - f["timestamp"])))
            gt_pos = result.gt_trajectory.translations[k]
            assert np.linalg.norm(gt_pos - [4.0, 2.0, 1.5]) < 1e-6

    def test_intra_dwell_motion_under_1mm(self, dwell_run):
        _, out = dwell_run
        idx = [f["index"] for f in out.frames if f["zupt"]]
        pts = out.trajectory.translations[idx]
        spread = np.max(np.linalg.norm(pts - pts[0], axis=1))
        assert spread < 1e-3

    def test_gravity_converges_to_unit_down(self, dwell_run):
        _, out = dwell_run
        g = out.graph.gravity
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-14
        assert np.linalg.norm(g - [0.0, 0.0, -1.0]) < 5e-3

    def test_trajectory_still_accurate(self, dwell_run):
        _, out = dwell_run
        assert out.metrics.ate_rmse_cm < 0.3

    def test_weak_gravity_warns_and_adds_no_gravity_factor(self, caplog):
        # at 0.3 m/s^2 of gravity a stationary window's mean specific force
        # is below MIN_MEAN_ACCEL, so GravityFactor refuses it; the ZUPT
        # still adds its zero-velocity and no-motion factors
        result, pm = scene(dict(SMOKE_SPEC, imu={"gravity_magnitude": 0.3}))
        cfg = default_config()
        cfg["imu"]["gravity_magnitude"] = 0.3
        out = run(pm, SequenceInput.from_synth(result), cfg,
                  groundtruth=result.gt_trajectory)
        kinds = [f.kind for f in out.graph.factors]
        zupt = sum(f["zupt"] for f in out.frames)
        warned = [r for r in caplog.records if "mean acceleration too small "
                  "for a gravity factor" in r.getMessage()]
        assert zupt == len(warned) == kinds.count("zero_velocity") == 6
        assert kinds.count("gravity") == 0
        assert out.metrics.ate_rmse_cm < 0.2


class TestDriftCorrection:
    def test_z_drift_removed(self):
        result, pm = scene(DRIFT_SPEC)
        seq = SequenceInput(scans=tuple((f.timestamp, f.cloud)
                                        for f in result.scans),
                            odometry=result.odometry)
        out = run(pm, seq, make_cfg(), groundtruth=result.gt_trajectory)
        dead = ate(result.odometry, result.gt_trajectory).rmse_cm
        assert dead > 1.0  # the injected drift must actually hurt
        assert out.metrics.ate_rmse_cm < 0.25 * dead
        assert out.metrics.ate_rmse_cm < 1.0

    def test_dead_reckoning_without_map_factors(self):
        result, pm = scene(DRIFT_SPEC)
        seq = SequenceInput(scans=tuple((f.timestamp, f.cloud)
                                        for f in result.scans),
                            odometry=result.odometry)
        out = run(pm, seq, make_cfg(map_factor_stride=10 ** 9))
        anchor = out.trajectory[0]
        cum = None
        for k in range(1, len(result.odometry)):
            rel = between(result.odometry[k - 1], result.odometry[k])
            cum = rel if cum is None else compose(cum, rel)
            pred = compose(anchor, cum)
            got = out.trajectory[k]
            assert np.linalg.norm(pred.translation - got.translation) < 1e-9
            assert np.abs(pred.rotation - got.rotation).max() < 1e-9


class TestMapFactorStride:
    def test_denser_map_factors_no_worse(self):
        result, pm = scene(NOISY_SPEC)
        seq = SequenceInput(scans=tuple((f.timestamp, f.cloud)
                                        for f in result.scans),
                            odometry=result.odometry)
        acc = {}
        for stride in (4, 1):
            out = run(pm, seq, make_cfg(map_factor_stride=stride),
                      groundtruth=result.gt_trajectory)
            acc[stride] = out.metrics.map_acc_cm
        assert acc[1] <= acc[4]

    @pytest.mark.parametrize("stride", [1, 2])
    def test_each_scan_read_once_per_keyframe(self, tmp_path, monkeypatch,
                                              stride):
        """A run over scan files reads each keyframe's scan once, in its
        loop, on the map-factor stride or not, and builds the map from the
        clouds it read there."""
        result, pm = scene(SMOKE_SPEC)
        paths = synth.write_sequence(result, tmp_path)
        seq = load_sequence(paths["scans"], paths["odometry"], paths["imu"])
        reads, clouds = [], []

        def counted(path):
            reads.append(path)
            clouds.append(read_pcd(path))
            return clouds[-1]
        monkeypatch.setattr(mio, "read_pcd", counted)
        out = run(pm, seq, make_cfg(map_factor_stride=stride))
        assert reads == [path for _, path in seq.scans]
        assert len(out.frames) == len(result.scans)
        assert np.array_equal(out.map_cloud.points, stacked_map(
            [state.pose for state in out.graph.states], clouds,
            make_cfg()["voxel_size"]))


class TestKeyframeAssociation:
    """Which odometry pose each scan takes, read from run()'s output. With
    a map factor on frame 0 only and no IMU, the trajectory is the chain of
    the associated poses. Scans are retimed to binary-exact stamps so that
    a tie is exact; each has two odometry poses around it, the true one
    `before` s earlier and one raised k cm `after` s later."""

    STEP = 0.125  # s

    def run_room(self, room, before, after, stride=1, shift=None, n=8):
        result, pm = room
        times, poses = [], []
        for k, pose in zip(range(n), result.gt_trajectory):
            raised = Pose(pose.rotation, pose.translation + [0, 0, 0.01 * k])
            times += [k * self.STEP - before, k * self.STEP + after]
            poses += [pose, raised]
        scans = [(k * self.STEP, f.cloud) for k, f in enumerate(result.scans[:n])]
        if shift is not None:  # move one scan out of the association gate
            scans[shift] = (scans[shift][0] + 0.03, scans[shift][1])
        seq = SequenceInput(scans=tuple(scans),
                            odometry=trajectory(np.array(times), poses))
        out = run(pm, seq, make_cfg(map_factor_stride=1000,
                                    keyframe_stride=stride))
        raised = [(p - result.gt_trajectory.translations[round(
            f["timestamp"] / self.STEP)])[2] for f, p in
            zip(out.frames, out.trajectory.translations)]
        return out, raised

    @pytest.mark.parametrize("before, after, later", [
        (2.0 ** -10, 2.0 ** -8, False),  # the earlier pose is nearer
        (2.0 ** -8, 2.0 ** -10, True),   # the later pose is nearer
        (2.0 ** -8, 2.0 ** -8, True),    # a tie goes to the later pose
    ])
    def test_nearest_pose_and_tie(self, room, before, after, later):
        out, raised = self.run_room(room, before, after)
        expected = [0.01 * k if later else 0.0 for k in range(8)]
        np.testing.assert_allclose(raised, expected, atol=1e-6)

    def test_stride_and_gate(self, room, caplog):
        out, raised = self.run_room(room, 2.0 ** -8, 2.0 ** -10, stride=2,
                                    shift=2)
        assert [f["timestamp"] for f in out.frames] == [0.0, 0.5, 0.75]
        np.testing.assert_allclose(raised, [0.0, 0.04, 0.06], atol=1e-6)
        skipped = [r.getMessage() for r in caplog.records
                   if r.levelname == "WARNING"]
        assert skipped == [f"scan 2 at t={2 * self.STEP + 0.03:.3f} has no "
                           "odometry within 10 ms; skipped"]


class TestAssociationAndErrors:
    def test_scan_without_odometry_is_skipped(self, room):
        result, pm = room
        scans = [(f.timestamp, f.cloud) for f in result.scans]
        t3, cloud3 = scans[3]
        scans[3] = (t3 + 0.02, cloud3)  # outside the 10 ms gate
        seq = SequenceInput(scans=tuple(scans), odometry=result.odometry)
        out = run(pm, seq, make_cfg())
        assert len(out.frames) == len(result.scans) - 1
        assert all(abs(f["timestamp"] - (t3 + 0.02)) > 1e-6
                   for f in out.frames)

    def test_no_association_raises(self, room):
        result, pm = room
        scans = tuple((f.timestamp + 1000.0, f.cloud) for f in result.scans)
        seq = SequenceInput(scans=scans, odometry=result.odometry)
        with pytest.raises(NoMatches):
            run(pm, seq, make_cfg())

    def test_repeated_scan_timestamp_raises(self, room):
        result, pm = room
        scans = [(f.timestamp, f.cloud) for f in result.scans]
        scans[4] = (scans[3][0], scans[4][1])
        seq = replace(SequenceInput.from_synth(result), scans=tuple(scans))
        with pytest.raises(NonMonotonicTimestamps,
                           match=r"scan 4 at t=\S+ does not come after scan 3"):
            run(pm, seq, make_cfg())

    def test_nan_odometry_timestamp_refused(self, room):
        """An in-memory odometry stream with a NaN timestamp is refused
        when built, naming its row, instead of running with a pose that
        no scan can associate with."""
        odometry = room[0].odometry
        times = odometry.timestamps.copy()
        times[5] = np.nan
        with pytest.raises(NonMonotonicTimestamps,
                           match=r"timestamp 5 \(t=nan\) is not finite"):
            Trajectory(times, odometry.rotations, odometry.translations)

    def test_out_of_order_imu_refused_before_any_solve(self, room):
        """Swapped IMU samples are refused when the stream is built, naming
        the first timestamp that does not increase, so no solve sees them."""
        imu = room[0].imu
        order = np.arange(len(imu))
        order[[40, 41]] = order[[41, 40]]
        t0, t1 = imu.timestamp[40], imu.timestamp[41]
        with pytest.raises(NonMonotonicTimestamps,
                           match=rf"IMU sample 41 at t={t0:.9f} does not come "
                                 rf"after the sample at t={t1:.9f}"):
            imu_stream(imu.timestamp[order], imu.angular_velocity[order],
                       imu.specific_force[order])

    @pytest.mark.parametrize("reorder, k", [
        (lambda imu: imu[::-1], 1),
        (lambda imu: imu[np.r_[:40, 41, 40, 42:len(imu)]], 41),
    ], ids=["reversed", "swapped-pair"])
    def test_unordered_imu_refused_by_sequence_input(self, room, reorder, k):
        """An in-memory stream that bypassed imu_samples, a reversed slice
        or a fancy index, is checked when the SequenceInput is built, so no
        run starts on it; the error names the first sample out of order."""
        imu = reorder(room[0].imu)
        ts = imu.timestamp
        with pytest.raises(NonMonotonicTimestamps,
                           match=rf"IMU sample {k} at t={ts[k]:.9f} does not "
                                 rf"come after the sample at t={ts[k - 1]:.9f}"):
            replace(SequenceInput.from_synth(room[0]), imu=imu)

    @pytest.mark.parametrize("field, column", [("specific_force", 0),
                                               ("angular_velocity", 2)])
    def test_nan_imu_sample_refused(self, room, field, column):
        """A NaN in an in-memory IMU stream is refused as bad data when the
        stream is built, naming its sample, instead of ending a window
        solve as a numerical failure."""
        imu = room[0].imu
        values = {name: imu[name].copy()
                  for name in ("angular_velocity", "specific_force")}
        values[field][150, column] = np.nan
        with pytest.raises(DataError, match=rf"^IMU sample 150 at "
                           rf"t={imu.timestamp[150]:.9f} has a non-finite "
                           "angular velocity or specific force$"):
            imu_stream(imu.timestamp, values["angular_velocity"],
                       values["specific_force"])

    def test_no_scans_raises(self, room):
        result, pm = room
        seq = SequenceInput(scans=(), odometry=result.odometry)
        with pytest.raises(NoMatches):
            run(pm, seq, make_cfg())

    def test_empty_odometry_raises_naming_it(self, room):
        result, pm = room
        none = Trajectory(np.empty(0), np.empty((0, 3, 3)), np.empty((0, 3)))
        seq = SequenceInput(scans=tuple((f.timestamp, f.cloud)
                                        for f in result.scans), odometry=none)
        with pytest.raises(NoMatches, match="^odometry holds no poses"):
            run(pm, seq, make_cfg())

    def test_bad_initial_pose_raises(self, room):
        result, pm = room
        seq = SequenceInput(
            scans=tuple((f.timestamp, f.cloud) for f in result.scans),
            odometry=result.odometry,
            initial_pose=Pose(np.eye(3), np.array([50.0, 50.0, 50.0])))
        with pytest.raises(InitializationFailure):
            run(pm, seq, make_cfg())

    @pytest.mark.parametrize("fault, matched, reason", [
        (lambda c: PointCloud(np.empty((0, 3))), 0, "scan holds no points"),
        (lambda c: PointCloud(c.points + [1000.0, 0.0, 0.0]), 0,
         "no scan point within"),
        (lambda c: PointCloud(c.points[:5]), 5, None),
    ], ids=["empty", "off-map", "five-points"])
    def test_empty_scan_mid_run_is_skipped(self, room, caplog, fault, matched,
                                           reason):
        # a scan that matches nothing is skipped before degeneracy analysis,
        # with a warning that tells an empty scan from one off the map; one
        # with too few matches is rejected by stage 1
        result, pm = room
        scans = [(f.timestamp, f.cloud) for f in result.scans]
        scans[5] = (scans[5][0], fault(scans[5][1]))
        seq = SequenceInput(scans=tuple(scans), odometry=result.odometry)
        out = run(pm, seq, make_cfg(), groundtruth=result.gt_trajectory)
        skipped = [r.getMessage() for r in caplog.records if r.getMessage()
                   .startswith("frame 5 registration skipped: ")]
        assert len(skipped) == (1 if reason else 0)
        assert all(reason in message for message in skipped)
        assert len(out.frames) == len(result.scans)
        frame = out.frames[5]
        assert frame["map_factor_added"] is False
        assert frame["correspondences"] == matched
        if matched:
            assert frame["degeneracy"]["stage1_reject"] is True
        else:
            assert frame["degeneracy"] is None
        assert out.frames[6]["map_factor_added"] is True
        assert out.metrics.ate_rmse_cm < 0.2  # odometry bridges the gap
        # the map is the scans as the run read them, each at its state's pose,
        # bit for bit: the assembly's slices skip past an empty or short scan
        poses = [state.pose for state in out.graph.states]
        assert np.array_equal(out.map_cloud.points, stacked_map(
            poses, [cloud for _, cloud in scans], make_cfg()["voxel_size"]))

    def test_invalid_config_rejected(self, room):
        result, pm = room
        seq = SequenceInput(scans=tuple((f.timestamp, f.cloud)
                                        for f in result.scans),
                            odometry=result.odometry)
        cfg = make_cfg()
        cfg["registration"]["nonsense"] = 1
        with pytest.raises(ParseError):
            run(pm, seq, cfg)

    @pytest.mark.parametrize("state_index, blamed", [(1, 1), (None, 2)])
    def test_failed_solve_names_keyframe(self, room, monkeypatch,
                                         state_index, blamed):
        """A failed window solve names the keyframe of the state it blames,
        else the keyframe it was adding, and keeps state_index."""
        result, pm = room
        optimize = FactorGraph.optimize

        def fail_at_third_state(graph, *args, **kwargs):
            if len(graph.states) == 3:
                raise SingularSystem("linear solve failed at all damping "
                                     "levels", state_index=state_index)
            return optimize(graph, *args, **kwargs)

        monkeypatch.setattr(FactorGraph, "optimize", fail_at_third_state)
        with pytest.raises(SingularSystem) as info:
            run(pm, SequenceInput.from_synth(result), make_cfg())
        t = result.scans[blamed].timestamp
        assert str(info.value) == (
            f"window solve at keyframe {blamed} (scan {blamed} at t={t:.9f}) "
            "failed: linear solve failed at all damping levels")
        assert info.value.state_index == state_index


class TestEmitAndDeterminism:
    def test_emitted_files_roundtrip(self, run_noimu, tmp_path):
        paths = emit_reports(run_noimu, tmp_path / "out")
        for key in ("trajectory", "map", "report", "frames", "metrics"):
            assert paths[key].exists(), key
        assert "optimizer" not in paths  # verbose off
        reloaded = read_tum(paths["trajectory"])
        for got, want in zip(reloaded, run_noimu.trajectory, strict=True):
            assert np.linalg.norm(got.translation - want.translation) < 1e-8
            assert np.abs(got.rotation - want.rotation).max() < 1e-7
        report = json.loads(paths["report"].read_text())
        validate_report(report)
        lines = paths["frames"].read_text().splitlines()
        assert len(lines) == len(run_noimu.frames) + 1
        cloud = read_pcd(paths["map"])
        assert len(cloud) == len(run_noimu.map_cloud)

    def test_verbose_writes_optimizer_trace(self, room, tmp_path):
        result, pm = room
        seq = SequenceInput(scans=tuple((f.timestamp, f.cloud)
                                        for f in result.scans[:4]),
                            odometry=result.odometry)
        out = run(pm, seq, make_cfg(verbose=True))
        paths = emit_reports(out, tmp_path / "v")
        lines = paths["optimizer"].read_text().splitlines()
        assert lines[0] == "stage,iteration,cost,damping,step_norm,accepted"
        assert len(lines) > 1
        assert lines[-1].startswith("final,")

    def test_byte_identical_runs_and_thread_independence(self, room,
                                                         tmp_path):
        result, pm = room
        seq = SequenceInput.from_synth(result)
        gt = result.gt_trajectory

        def emit(cfg, name):
            return emit_reports(run(pm, seq, cfg, groundtruth=gt),
                                tmp_path / name)

        p1 = emit(make_cfg(threads=1), "a")
        p2 = emit(make_cfg(threads=1), "b")
        p8 = emit(make_cfg(threads=8), "c")
        for key in ("trajectory", "map", "report", "frames", "metrics"):
            assert p1[key].read_bytes() == p2[key].read_bytes(), key
        # thread count may appear in the embedded config, but must not
        # change any numerical output
        for key in ("trajectory", "map", "frames", "metrics"):
            assert p1[key].read_bytes() == p8[key].read_bytes(), key
        r1 = json.loads(p1["report"].read_text())
        r8 = json.loads(p8["report"].read_text())
        r1["config"].pop("threads")
        r8["config"].pop("threads")
        assert r1 == r8
