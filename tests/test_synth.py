"""Scene generator: spec validation, surfaces, ray casting, sequences."""

import copy
import json
import math

import numpy as np
import pytest

from maploc.degeneracy import DegeneracyParams, detect, spectrum
from maploc.errors import InvalidSpec
from maploc.factors import detect_zupt
from maploc.geometry import build_index
from maploc.io import read_imu_csv, read_pcd, read_tum
from maploc.registration import RegistrationParams, align, reference_hessian
from maploc.synth import (_SPEC_DEFAULTS, _WAYPOINT_DEFAULTS, ScanFrame,
                          generate, load_scene_spec, parse_scene_spec,
                          ray_grid, raycast, sample_map, scene_surfaces,
                          trajectory_splines, write_sequence)

from conftest import leaf_keys


def make_spec(**over):
    data = {
        "kind": "cube-room",
        "seed": 3,
        "size": [4.0, 4.0, 2.0],
        "density": 100.0,
        "scan_rate": 10.0,
        "imu_rate": 100.0,
        "sensor": {"n_azimuth": 60, "n_elevation": 6, "max_range": 20.0,
                   "min_range": 0.2},
        "trajectory": [{"pos": [1.0, 2.0, 1.0], "speed": 1.0},
                       {"pos": [3.0, 2.0, 1.0]}],
    }
    data.update(over)
    return parse_scene_spec(data)


class TestSpecValidation:
    def test_defaults_filled(self):
        spec = make_spec()
        assert spec.sensor["fov_up"] == 30.0
        assert spec.imu["gravity_magnitude"] == 9.81
        assert np.allclose(spec.odometry["drift_per_frame"], 0)
        assert spec.waypoints[0]["speed"] == 1.0
        assert spec.waypoints[0]["dwell"] == 0.0

    def test_missing_seed(self):
        with pytest.raises(InvalidSpec, match="seed"):
            parse_scene_spec({"kind": "cube-room", "size": [1, 1, 1],
                              "trajectory": [{"pos": [0, 0, 0]}]})

    def test_seed_must_be_integer(self):
        with pytest.raises(InvalidSpec):
            make_spec(seed=1.5)
        with pytest.raises(InvalidSpec):
            make_spec(seed=True)
        with pytest.raises(InvalidSpec):
            make_spec(seed=-1)

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec, match="kind"):
            make_spec(kind="sphere")

    def test_unknown_keys(self):
        with pytest.raises(InvalidSpec, match="extra"):
            make_spec(extra=1)
        with pytest.raises(InvalidSpec, match="sensor"):
            make_spec(sensor={"beams": 64})
        with pytest.raises(InvalidSpec):
            make_spec(trajectory=[{"pos": [0, 0, 0], "velocity": 2.0},
                                  {"pos": [1, 0, 0]}])

    def test_size_length_per_kind(self):
        with pytest.raises(InvalidSpec):
            make_spec(size=[4.0, 4.0])
        with pytest.raises(InvalidSpec):
            make_spec(kind="plane-only", size=[4.0, 4.0, 2.0])
        with pytest.raises(InvalidSpec):
            make_spec(size=[4.0, -4.0, 2.0])

    def test_l_corridor_width_bound(self):
        with pytest.raises(InvalidSpec, match="width"):
            make_spec(kind="L-corridor", size=[10.0, 3.0, 3.0, 2.5])

    def test_sensor_bounds(self):
        with pytest.raises(InvalidSpec, match="fov"):
            make_spec(sensor={"fov_up": -10.0, "fov_down": 10.0})
        with pytest.raises(InvalidSpec, match="range"):
            make_spec(sensor={"min_range": 5.0, "max_range": 2.0})
        with pytest.raises(InvalidSpec):
            make_spec(sensor={"n_azimuth": 0})

    def test_trajectory_required(self):
        with pytest.raises(InvalidSpec):
            make_spec(trajectory=[])
        with pytest.raises(InvalidSpec, match="pos"):
            make_spec(trajectory=[{"yaw": 0.0}])

    def test_coincident_waypoints(self):
        spec = make_spec(trajectory=[{"pos": [1, 1, 1]}, {"pos": [1, 1, 1]}])
        with pytest.raises(InvalidSpec, match="dwell"):
            trajectory_splines(spec)

    def test_single_waypoint_needs_dwell(self):
        spec = make_spec(trajectory=[{"pos": [1, 1, 1]}])
        with pytest.raises(InvalidSpec):
            trajectory_splines(spec)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(make_spec().raw))
        assert load_scene_spec(path).kind == "cube-room"
        path.write_text("{broken")
        with pytest.raises(InvalidSpec):
            load_scene_spec(path)


# The required keys only; every other key takes its default
MINIMAL_SPEC = {"kind": "cube-room", "seed": 3, "size": [4.0, 4.0, 2.0],
                "trajectory": [{"pos": [1.0, 2.0, 1.0]},
                               {"pos": [3.0, 2.0, 1.0]}]}

SPEC_LEAF_KEYS = {**dict(leaf_keys(_SPEC_DEFAULTS)),
                  **{f"trajectory.{key}": default
                     for key, default in _WAYPOINT_DEFAULTS.items()}}


def _spec_with(key, value):
    """MINIMAL_SPEC with one dotted key set ("trajectory." on waypoint 0)."""
    data = copy.deepcopy(MINIMAL_SPEC)
    *sections, leaf = key.split(".")
    node = data
    for section in sections:
        node = (node[section][0] if section == "trajectory"
                else node.setdefault(section, {}))
    node[leaf] = value
    return data


def _filled_value(spec, key):
    section, _, leaf = key.rpartition(".")
    if section == "trajectory":
        return spec.waypoints[0][leaf]
    return getattr(spec, section)[leaf] if section else getattr(spec, leaf)


def _spec_wrong_types(default):
    if isinstance(default, int):
        return [True, 2.5, 2.0, "1", None]
    if isinstance(default, list):
        return [None, [0.0] * (len(default) + 1), [math.nan] * len(default),
                ["0"] * len(default)]
    return ["1.0", True, None, math.nan, math.inf, -math.inf]


# Each bound restated: a key is positive, non-negative, or any finite number
POSITIVE = {"density", "scan_rate", "imu_rate", "imu.gravity_magnitude",
            "trajectory.speed"}
NON_NEGATIVE = {"range_noise_sigma", "sensor.min_range",
                "odometry.rot_noise_sigma", "odometry.trans_noise_sigma",
                "imu.gyro_noise_sigma", "imu.accel_noise_sigma",
                "trajectory.dwell"}


def _spec_past_bounds(key, default):
    """The first values outside the key's range."""
    if isinstance(default, int):
        return [0, 2 ** 31]
    if key in POSITIVE:
        return [0.0]
    if key in NON_NEGATIVE:
        return [-5e-324]
    return []


def _fails_naming(data, key):
    path = key.replace("trajectory.", "trajectory/0/").replace(".", "/")
    with pytest.raises(InvalidSpec) as info:
        parse_scene_spec(data)
    assert f"schema violation at {path}" in str(info.value)


@pytest.mark.parametrize("key", sorted(SPEC_LEAF_KEYS))
class TestSpecSchema:
    """The spec schema is built from _SPEC_DEFAULTS and _WAYPOINT_DEFAULTS:
    each key takes its default's type, and every number is finite."""

    def test_default_validates_and_is_filled(self, key):
        default = SPEC_LEAF_KEYS[key]
        parse_scene_spec(_spec_with(key, default))
        np.testing.assert_array_equal(
            _filled_value(parse_scene_spec(MINIMAL_SPEC), key), default)

    def test_wrong_type_fails_naming_the_key(self, key):
        for value in _spec_wrong_types(SPEC_LEAF_KEYS[key]):
            _fails_naming(_spec_with(key, value), key)

    def test_first_value_past_the_bound_fails(self, key):
        for value in _spec_past_bounds(key, SPEC_LEAF_KEYS[key]):
            _fails_naming(_spec_with(key, value), key)


@pytest.mark.parametrize("key, value", [
    ("kind", "sphere"), ("seed", True), ("seed", -1), ("seed", 1.5),
    ("size", "big"), ("size", [4.0, 0.0, 2.0]), ("size", [4.0, math.inf, 2.0]),
    ("trajectory", []), ("trajectory", {"pos": [1.0, 2.0, 1.0]}),
    ("trajectory.pos", [1.0, 2.0]), ("trajectory.pos", [1.0, math.nan, 2.0]),
])
def test_required_key_fails_naming_it(key, value):
    _fails_naming(_spec_with(key, value), key)


class TestSurfaces:
    def test_box_count_and_area(self):
        spec = make_spec(size=[4.0, 3.0, 2.0])
        rects = scene_surfaces(spec)
        assert len(rects) == 6
        total = sum(r.area for r in rects)
        assert total == pytest.approx(2 * (4 * 3 + 4 * 2 + 3 * 2))

    def test_box_normals_point_inward(self):
        spec = make_spec(size=[4.0, 3.0, 2.0])
        center = np.array([2.0, 1.5, 1.0])
        for rect in scene_surfaces(spec):
            mid = rect.origin + 0.5 * rect.u + 0.5 * rect.v
            assert rect.normal @ (center - mid) > 0

    def test_l_corridor_normals_point_inward(self):
        spec = make_spec(kind="L-corridor", size=[12.0, 10.0, 3.0, 2.5])
        rects = scene_surfaces(spec)
        assert len(rects) == 10
        # interior probes: one per arm
        probes = [np.array([5.0, 1.5, 1.25]), np.array([10.5, 6.0, 1.25])]
        for rect in rects:
            mid = rect.origin + 0.5 * rect.u + 0.5 * rect.v
            assert max(rect.normal @ (p - mid) for p in probes) > 0

    def test_plane_only(self):
        spec = make_spec(kind="plane-only", size=[6.0, 5.0],
                         trajectory=[{"pos": [3.0, 2.5, 2.0], "dwell": 1.0}])
        rects = scene_surfaces(spec)
        assert len(rects) == 1
        assert np.allclose(rects[0].normal, [0, 0, 1])


class TestSampleMap:
    def test_plane_grid_exact_count(self):
        spec = make_spec(kind="plane-only", size=[4.0, 5.0], density=100.0,
                         trajectory=[{"pos": [2.0, 2.5, 1.5], "dwell": 1.0}])
        cloud = sample_map(spec)
        assert len(cloud) == 40 * 50
        assert np.allclose(cloud.points[:, 2], 0)
        assert np.allclose(cloud.normals, [0, 0, 1])

    def test_room_points_on_faces(self):
        spec = make_spec(size=[4.0, 3.0, 2.0], density=25.0)
        cloud = sample_map(spec)
        pts = cloud.points
        face_dist = np.minimum.reduce([
            np.abs(pts[:, 0]), np.abs(pts[:, 0] - 4.0),
            np.abs(pts[:, 1]), np.abs(pts[:, 1] - 3.0),
            np.abs(pts[:, 2]), np.abs(pts[:, 2] - 2.0)])
        assert np.max(face_dist) < 1e-12
        assert np.all(pts >= -1e-12)

    def test_density_scaling(self):
        low = sample_map(make_spec(density=50.0))
        high = sample_map(make_spec(density=200.0))
        assert 3.5 < len(high) / len(low) < 4.5


class TestRaycast:
    def setup_method(self):
        self.surfaces = scene_surfaces(make_spec(size=[4.0, 4.0, 2.0]))
        self.origin = np.array([2.0, 2.0, 1.0])

    def cast(self, direction, **kw):
        d = np.asarray(direction, float)
        d = d / np.linalg.norm(d)
        return raycast(self.surfaces, self.origin, d[None, :], **kw)[0]

    def test_axis_rays(self):
        assert self.cast([1, 0, 0]) == pytest.approx(2.0)
        assert self.cast([0, -1, 0]) == pytest.approx(2.0)
        assert self.cast([0, 0, 1]) == pytest.approx(1.0)
        assert self.cast([0, 0, -1]) == pytest.approx(1.0)

    def test_diagonal_ray(self):
        assert self.cast([1, 1, 0]) == pytest.approx(2 * math.sqrt(2))

    def test_oblique_hits_ceiling_first(self):
        assert self.cast([1, 0, 1]) == pytest.approx(math.sqrt(2))

    def test_range_gates(self):
        assert self.cast([1, 0, 0], max_range=1.5) == np.inf
        assert self.cast([1, 0, 0], min_range=2.5) == np.inf
        assert self.cast([1, 0, 0], min_range=0.5, max_range=2.5) \
            == pytest.approx(2.0)

    def test_open_scene_misses(self):
        spec = make_spec(kind="plane-only", size=[4.0, 4.0],
                         trajectory=[{"pos": [2.0, 2.0, 1.0], "dwell": 1.0}])
        surfaces = scene_surfaces(spec)
        up = raycast(surfaces, self.origin, np.array([[0.0, 0.0, 1.0]]))
        down = raycast(surfaces, self.origin, np.array([[0.0, 0.0, -1.0]]))
        assert up[0] == np.inf
        assert down[0] == pytest.approx(1.0)

    def test_ray_grid_shape_and_units(self):
        dirs = ray_grid({"n_azimuth": 8, "n_elevation": 3, "fov_up": 30.0,
                         "fov_down": -30.0})
        assert dirs.shape == (24, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert np.max(np.abs(np.degrees(np.arcsin(dirs[:, 2])))) \
            == pytest.approx(30.0)


class TestTrajectorySplines:
    def test_duration_from_speed(self):
        spec = make_spec(trajectory=[{"pos": [0, 0, 0], "speed": 2.0},
                                     {"pos": [4, 0, 0]}])
        pos, yaw, duration = trajectory_splines(spec)
        assert duration == pytest.approx(2.0)
        assert np.allclose(pos(duration), [4, 0, 0])
        assert np.allclose(pos(0.0), [0, 0, 0])

    def test_dwell_is_exactly_constant(self):
        spec = make_spec(trajectory=[{"pos": [1, 1, 1], "dwell": 10.0}])
        pos, yaw, duration = trajectory_splines(spec)
        assert duration == 10.0
        samples = pos(np.array([0.0, 3.7, 6.2, 10.0]))
        assert np.all(samples == np.array([1.0, 1.0, 1.0]))
        assert np.all(pos.derivative()(np.array([2.0, 5.0])) == 0.0)

    def test_dwell_boundaries_have_zero_velocity(self):
        spec = make_spec(trajectory=[{"pos": [0, 0, 0], "dwell": 2.0},
                                     {"pos": [2, 0, 0], "dwell": 2.0}])
        pos, _, duration = trajectory_splines(spec)
        vel = pos.derivative()
        assert np.allclose(vel(2.0), 0, atol=1e-12)
        assert np.allclose(vel(4.0), 0, atol=1e-12)
        assert vel(3.0)[0] > 0

    def test_yaw_interpolates(self):
        spec = make_spec(trajectory=[
            {"pos": [0, 0, 0], "yaw": 0.0},
            {"pos": [2, 0, 0], "yaw": 1.0}])
        _, yaw, duration = trajectory_splines(spec)
        assert yaw(0.0) == 0.0
        assert yaw(duration) == pytest.approx(1.0)
        assert 0.0 < yaw(duration / 2) < 1.0


class TestGenerate:
    def test_deterministic(self):
        a = generate(make_spec(range_noise_sigma=0.02))
        b = generate(make_spec(range_noise_sigma=0.02))
        assert len(a.scans) == len(b.scans)
        for fa, fb in zip(a.scans, b.scans):
            assert np.array_equal(fa.cloud.points, fb.cloud.points)
        assert np.array_equal(a.odometry.rotations, b.odometry.rotations)
        assert np.array_equal(a.odometry.translations,
                              b.odometry.translations)
        assert np.array_equal(a.imu, b.imu)

    def test_seed_changes_noise(self):
        a = generate(make_spec(range_noise_sigma=0.02, seed=1))
        b = generate(make_spec(range_noise_sigma=0.02, seed=2))
        assert not np.array_equal(a.scans[0].cloud.points,
                                  b.scans[0].cloud.points)

    def test_frame_count_and_times(self):
        result = generate(make_spec())
        # 2 m at 1 m/s, 10 Hz: frames at 0.0 .. 2.0
        assert len(result.scans) == 21
        assert result.scans[3].timestamp == pytest.approx(0.3)
        assert len(result.imu) == 201

    def test_clean_odometry_equals_ground_truth(self):
        result = generate(make_spec())
        for odom, gt in zip(result.odometry, result.gt_trajectory,
                            strict=True):
            assert np.allclose(odom.matrix(), gt.matrix(), atol=1e-10)

    def test_z_drift_accumulates(self):
        drift = [0, 0, 0, 0, 0, 0.01]
        result = generate(make_spec(odometry={"drift_per_frame": drift}))
        deltas = (result.odometry.translations
                  - result.gt_trajectory.translations)
        for k, delta in enumerate(deltas):
            assert np.allclose(delta[:2], 0, atol=1e-9)
            assert delta[2] == pytest.approx(0.01 * k, abs=1e-9)

    def test_scan_points_lie_on_walls(self):
        result = generate(make_spec())
        lx, ly, lz = result.spec.size
        frame = result.scans[5]
        pose = result.gt_trajectory[5]
        world = pose.transform(frame.cloud.points)
        face = np.minimum.reduce([
            np.abs(world[:, 0]), np.abs(world[:, 0] - lx),
            np.abs(world[:, 1]), np.abs(world[:, 1] - ly),
            np.abs(world[:, 2]), np.abs(world[:, 2] - lz)])
        assert len(world) > 100
        assert np.max(face) < 1e-9

    def test_ranges_respect_sensor_gates(self):
        spec = make_spec(sensor={"n_azimuth": 60, "n_elevation": 6,
                                 "max_range": 2.0, "min_range": 0.5})
        result = generate(spec)
        for frame in result.scans:
            if len(frame.cloud) == 0:
                continue
            ranges = np.linalg.norm(frame.cloud.points, axis=1)
            assert np.all(ranges >= 0.5 - 1e-9)
            assert np.all(ranges <= 2.0 + 1e-9)

    def test_stationary_sequence(self):
        spec = make_spec(trajectory=[{"pos": [2.0, 2.0, 1.0], "dwell": 4.0}])
        result = generate(spec)
        first = result.gt_trajectory[0].matrix()
        for pose in result.gt_trajectory:
            assert np.array_equal(pose.matrix(), first)
        imu = result.imu
        assert np.allclose(imu.specific_force.mean(axis=0), [0, 0, 9.81],
                           atol=0.01)
        assert detect_zupt(imu[(imu.timestamp >= 1.0) & (imu.timestamp <= 2.5)])

    def test_constant_velocity_imu(self):
        result = generate(make_spec())
        # interior samples: straight line at 1 m/s, no rotation
        imu = result.imu
        inner = imu[(imu.timestamp > 0.7) & (imu.timestamp < 1.3)]
        assert np.allclose(inner.specific_force.mean(axis=0), [0, 0, 9.81],
                           atol=0.02)
        assert np.allclose(inner.angular_velocity.mean(axis=0), 0, atol=0.005)

    def test_imu_bias_applied(self):
        spec = make_spec(imu={"gyro_bias": [0.05, 0.0, 0.0],
                              "accel_bias": [0.0, 0.2, 0.0],
                              "gyro_noise_sigma": 1e-4,
                              "accel_noise_sigma": 1e-3})
        result = generate(spec)
        omega = result.imu.angular_velocity
        force = result.imu.specific_force
        assert omega[:, 0].mean() == pytest.approx(0.05, abs=0.005)
        assert force[:, 1].mean() == pytest.approx(0.2, abs=0.01)

    def test_custom_gravity_magnitude(self):
        spec = make_spec(trajectory=[{"pos": [2.0, 2.0, 1.0], "dwell": 2.0}],
                         imu={"gravity_magnitude": 3.71,
                              "accel_noise_sigma": 1e-4})
        result = generate(spec)
        assert result.imu.specific_force[:, 2].mean() == pytest.approx(
            3.71, abs=0.01)


class TestDegeneracyScenes:
    def run_frame(self, spec, index):
        result = generate(spec)
        frame = result.scans[index]
        gt_pose = result.gt_trajectory[index]
        index_map = build_index(result.gt_map)
        out = align(frame.cloud.points, index_map, gt_pose,
                    RegistrationParams(max_correspondence_distance=0.5))
        reference = spectrum(reference_hessian(out.correspondences))
        return detect(out, reference, DegeneracyParams())

    def test_mid_corridor_flags_x_only(self):
        spec = make_spec(
            kind="corridor", size=[40.0, 4.0, 3.0], density=40.0,
            sensor={"n_azimuth": 90, "n_elevation": 8, "max_range": 8.0,
                    "min_range": 0.3},
            trajectory=[{"pos": [15.0, 2.0, 1.5], "speed": 2.0},
                        {"pos": [25.0, 2.0, 1.5]}])
        report = self.run_frame(spec, index=25)  # x = 20, mid corridor
        assert report.degenerate_axes == (0,)
        assert report.axis_counts[0] == 0
        assert not report.stage1_reject

    def test_cube_room_flags_nothing(self):
        report = self.run_frame(make_spec(size=[6.0, 6.0, 3.0], trajectory=[
            {"pos": [3.0, 3.0, 1.5], "dwell": 1.0}]), index=5)
        assert report.degenerate_axes == ()
        assert not report.stage1_reject


class TestWriteSequence:
    def test_layout_and_round_trip(self, tmp_path):
        result = generate(make_spec())
        paths = write_sequence(result, tmp_path / "seq")
        assert paths["map"].exists()
        assert paths["imu"].exists()

        gt = read_tum(paths["groundtruth"])
        assert np.allclose(gt.timestamps, result.gt_trajectory.timestamps,
                           atol=1e-9)
        for a, b in zip(gt, result.gt_trajectory, strict=True):
            assert np.allclose(a.matrix(), b.matrix(), atol=1e-6)

        scan_files = sorted(paths["scans"].glob("*.pcd"))
        assert len(scan_files) == len(result.scans)
        first = read_pcd(scan_files[0])
        assert np.allclose(first.points, result.scans[0].cloud.points,
                           atol=1e-5)

        imu = read_imu_csv(paths["imu"])
        assert len(imu) == len(result.imu)

        gt_map = read_pcd(paths["map"])
        assert len(gt_map) == len(result.gt_map)
        assert gt_map.normals is not None

        spec2 = load_scene_spec(paths["spec"])
        assert spec2.kind == result.spec.kind
        assert spec2.seed == result.spec.seed
        assert spec2.size == result.spec.size
