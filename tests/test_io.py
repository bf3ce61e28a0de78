"""I/O round trips, format validation, and config handling."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maploc.errors import DataError, NonMonotonicTimestamps, ParseError
from maploc.evaluate import Trajectory
from maploc.factors import ImuSample
from maploc.geometry import PointCloud, Pose, so3_exp
from maploc.io import (_CONFIG_BOUNDS, DEFAULT_CONFIG, FRAMES_CSV_HEADER,
                       apply_overrides,
                       default_config, load_config, quaternion_to_rotation,
                       read_imu_csv, read_pcd, read_ply, read_tum,
                       rotation_to_quaternion, sanitize_json, scan_filename,
                       scan_timestamp, validate_config, validate_report,
                       write_frames_csv, write_imu_csv, write_json,
                       write_metrics_csv, write_pcd, write_tum)

from conftest import leaf_keys, random_pose
from maploc.synth import _SPEC_BOUNDS, _SPEC_DEFAULTS, _WAYPOINT_DEFAULTS
from oracles import quat_to_rot


def random_trajectory(rng, n=20):
    times = np.cumsum(rng.uniform(0.05, 0.15, size=n))
    poses = tuple(random_pose(rng, rot_scale=2.5, trans_scale=5.0)
                  for _ in range(n))
    return Trajectory(times, poses)


class TestQuaternions:
    def test_identity(self):
        q = rotation_to_quaternion(np.eye(3))
        assert np.allclose(q, [0, 0, 0, 1])

    def test_round_trip_many_rotations(self, rng):
        for _ in range(300):
            rotation = random_pose(rng, rot_scale=3.0).rotation
            q = rotation_to_quaternion(rotation)
            assert abs(np.linalg.norm(q) - 1) < 1e-12
            back = quaternion_to_rotation(list(q))
            assert np.allclose(back, rotation, atol=1e-12)

    def test_agrees_with_oracle(self, rng):
        for _ in range(100):
            rotation = random_pose(rng, rot_scale=3.0).rotation
            qx, qy, qz, qw = rotation_to_quaternion(rotation)
            assert np.allclose(quat_to_rot((qw, qx, qy, qz)), rotation,
                               atol=1e-12)

    def test_sign_is_canonical(self, rng):
        # q and -q encode the same rotation; conversion must pick one
        for _ in range(50):
            rotation = random_pose(rng, rot_scale=3.0).rotation
            q = rotation_to_quaternion(rotation)
            again = rotation_to_quaternion(quaternion_to_rotation(list(-q)))
            assert np.allclose(q, again, atol=1e-12)
            assert q[3] >= 0

    def test_half_turn_sign(self):
        # qw == 0 for 180 degree turns; first nonzero component positive
        for axis in range(3):
            angle_axis = np.zeros(3)
            angle_axis[axis] = math.pi
            q = rotation_to_quaternion(so3_exp(angle_axis))
            assert q[3] == pytest.approx(0.0, abs=1e-12)
            assert q[axis] > 0.99

    def test_shepperd_branches(self):
        # near-180 turns about each axis hit the three trace<=0 branches
        for axis in range(3):
            angle_axis = np.zeros(3)
            angle_axis[axis] = 0.999 * math.pi
            rotation = so3_exp(angle_axis)
            q = rotation_to_quaternion(rotation)
            assert np.allclose(quaternion_to_rotation(list(q)), rotation,
                               atol=1e-12)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            quaternion_to_rotation([0.0, 0.0, 0.0, 0.0])

    def test_unnormalized_input_normalized(self):
        rotation = quaternion_to_rotation([0.0, 0.0, 0.0, 2.0])
        assert np.allclose(rotation, np.eye(3), atol=1e-15)


class TestTum:
    def test_identity_line_exact(self, tmp_path):
        path = tmp_path / "traj.tum"
        write_tum(path, Trajectory(np.array([0.0]), (Pose.identity(),)))
        assert path.read_text() == "0.000000000 0 0 0 0 0 0 1\n"

    def test_round_trip(self, tmp_path, rng):
        traj = random_trajectory(rng, n=40)
        path = tmp_path / "traj.tum"
        write_tum(path, traj)
        back = read_tum(path)
        assert np.allclose(back.timestamps, traj.timestamps, atol=1e-9)
        for a, b in zip(back.poses, traj.poses):
            assert np.allclose(a.rotation, b.rotation, atol=1e-7)
            assert np.allclose(a.translation, b.translation, atol=1e-6)

    def test_write_is_deterministic(self, tmp_path, rng):
        traj = random_trajectory(rng, n=10)
        p1, p2 = tmp_path / "a.tum", tmp_path / "b.tum"
        write_tum(p1, traj)
        write_tum(p2, traj)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("# header\n\n1.0 0 0 0 0 0 0 1\n\n"
                        "# mid\n2.0 1 2 3 0 0 0 1\n")
        traj = read_tum(path)
        assert len(traj.poses) == 2
        assert np.allclose(traj.poses[1].translation, [1, 2, 3])

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("1.0 0 0 0 0 0 1\n")
        with pytest.raises(ParseError) as info:
            read_tum(path)
        assert info.value.line == 1
        assert "line 1" in str(info.value)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("1.0 0 0 0 0 0 0 1\n2.0 x 0 0 0 0 0 1\n")
        with pytest.raises(ParseError) as info:
            read_tum(path)
        assert info.value.line == 2

    def test_zero_quaternion_line(self, tmp_path):
        # the whole file converts at once; the first zero row is named
        path = tmp_path / "traj.tum"
        path.write_text("1.0 0 0 0 0 0 0 1\n# gap\n2.0 0 0 0 0 0 0 0\n"
                        "3.0 0 0 0 0 0 0 1\n4.0 0 0 0 0 0 0 0\n")
        with pytest.raises(ParseError) as info:
            read_tum(path)
        assert info.value.line == 3
        assert str(info.value) == f"{path}: zero-norm quaternion (line 3)"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError):
            read_tum(path)

    def test_non_monotonic(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("2.0 0 0 0 0 0 0 1\n1.0 0 0 0 0 0 0 1\n")
        with pytest.raises(NonMonotonicTimestamps) as info:
            read_tum(path)
        assert info.value.line == 2
        assert "1.000000000 does not increase past 2.000000000" in str(info.value)

    def test_undecodable_bytes_name_their_offset(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_bytes(b"\xff\xfe1.0 0 0 0 0 0 0 1\n")
        with pytest.raises(ParseError) as info:
            read_tum(path)
        assert info.value.path == path and info.value.offset == 0

    def test_quaternion_normalized_on_read(self, tmp_path):
        path = tmp_path / "traj.tum"
        path.write_text("1.0 0 0 0 0 0 0 2\n")
        traj = read_tum(path)
        assert np.allclose(traj.poses[0].rotation, np.eye(3), atol=1e-15)

    def test_huge_quaternion_normalized_on_read(self, tmp_path):
        # the squared components overflow a float; the half turn about
        # x + y must survive rather than read as the identity
        path = tmp_path / "traj.tum"
        path.write_text("1.0 0 0 0 0 0 0 1\n2.0 0 0 0 1e200 1e200 0 0\n"
                        "3.0 0 0 0 0 0 0 3e-12\n")
        poses = read_tum(path).poses
        assert np.allclose(poses[1].rotation,
                           [[0, 1, 0], [1, 0, 0], [0, 0, -1]], atol=1e-15)
        # each row is scaled by its own power of two
        assert np.array_equal(poses[0].rotation, np.eye(3))
        assert np.array_equal(poses[2].rotation, np.eye(3))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [0, 1, 7])  # timestamp, x, qw
    def test_non_finite_value_names_line(self, tmp_path, value, field):
        tokens = "3.0 1 2 3 0 0 0 1".split()
        tokens[field] = value
        path = tmp_path / "traj.tum"
        path.write_text("1.0 0 0 0 0 0 0 1\n2.0 0 0 0 0 0 0 1\n"
                        + " ".join(tokens) + "\n")
        with pytest.raises(ParseError) as info:
            read_tum(path)
        assert info.value.line == 3
        assert "non-finite" in str(info.value)


class TestPcd:
    def make_cloud(self, rng, n=64, normals=True):
        pts = rng.uniform(-10, 10, size=(n, 3))
        nrm = None
        if normals:
            nrm = rng.normal(size=(n, 3))
            nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        return PointCloud(pts, nrm)

    def test_binary_round_trip(self, tmp_path, rng):
        cloud = self.make_cloud(rng)
        path = tmp_path / "cloud.pcd"
        write_pcd(path, cloud)
        back = read_pcd(path)
        assert np.allclose(back.points, cloud.points, atol=1e-5)
        assert np.allclose(back.normals, cloud.normals, atol=1e-6)

    def test_ascii_round_trip(self, tmp_path, rng):
        cloud = self.make_cloud(rng, n=32)
        path = tmp_path / "cloud.pcd"
        write_pcd(path, cloud, binary=False)
        back = read_pcd(path)
        assert np.allclose(back.points, cloud.points, atol=1e-5)
        assert np.allclose(back.normals, cloud.normals, atol=1e-6)

    def test_no_normals(self, tmp_path, rng):
        cloud = self.make_cloud(rng, normals=False)
        path = tmp_path / "cloud.pcd"
        write_pcd(path, cloud)
        back = read_pcd(path)
        assert back.normals is None
        assert np.allclose(back.points, cloud.points, atol=1e-5)

    def test_nan_normals_survive(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, size=(8, 3))
        nrm = np.tile([0.0, 0.0, 1.0], (8, 1))
        nrm[3] = np.nan
        path = tmp_path / "cloud.pcd"
        write_pcd(path, PointCloud(pts, nrm))
        back = read_pcd(path)
        assert np.all(np.isnan(back.normals[3]))
        assert np.allclose(back.normals[4], [0, 0, 1])

    def test_write_is_deterministic(self, tmp_path, rng):
        cloud = self.make_cloud(rng)
        p1, p2 = tmp_path / "a.pcd", tmp_path / "b.pcd"
        write_pcd(p1, cloud)
        write_pcd(p2, cloud)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nonfinite_points_dropped(self, tmp_path):
        path = tmp_path / "cloud.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
            "COUNT 1 1 1\nWIDTH 3\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\n"
            "POINTS 3\nDATA ascii\n1 2 3\nnan 0 0\n4 5 6\n")
        cloud = read_pcd(path)
        assert len(cloud) == 2
        assert np.allclose(cloud.points, [[1, 2, 3], [4, 5, 6]])

    def test_truncated_binary(self, tmp_path, rng):
        cloud = self.make_cloud(rng, n=16)
        path = tmp_path / "cloud.pcd"
        write_pcd(path, cloud)
        blob = path.read_bytes()[:-10]
        path.write_bytes(blob)
        with pytest.raises(ParseError) as info:
            read_pcd(path)
        assert info.value.offset == len(blob)
        assert "byte offset" in str(info.value)

    def test_truncated_ascii(self, tmp_path, rng):
        cloud = self.make_cloud(rng, n=8, normals=False)
        path = tmp_path / "cloud.pcd"
        write_pcd(path, cloud, binary=False)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ParseError):
            read_pcd(path)

    def test_missing_xyz_field(self, tmp_path):
        path = tmp_path / "cloud.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y\nSIZE 4 4\nTYPE F F\nCOUNT 1 1\n"
            "WIDTH 1\nHEIGHT 1\nPOINTS 1\nDATA ascii\n1 2\n")
        with pytest.raises(ParseError) as info:
            read_pcd(path)
        assert "'z'" in str(info.value)

    def test_count_not_one(self, tmp_path):
        path = tmp_path / "cloud.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
            "COUNT 1 1 3\nWIDTH 1\nHEIGHT 1\nPOINTS 1\nDATA ascii\n1 2 3\n")
        with pytest.raises(ParseError):
            read_pcd(path)

    def test_compressed_mode_rejected(self, tmp_path):
        path = tmp_path / "cloud.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
            "COUNT 1 1 1\nWIDTH 1\nHEIGHT 1\nPOINTS 1\n"
            "DATA binary_compressed\n")
        with pytest.raises(ParseError) as info:
            read_pcd(path)
        assert "binary_compressed" in str(info.value)

    def test_ascii_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "cloud.pcd"
        header = ("VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
                  "COUNT 1 1 1\nWIDTH 2\nHEIGHT 1\nPOINTS 2\nDATA ascii\n")
        path.write_text(header + "1 2 3\n1 oops 3\n")
        with pytest.raises(ParseError) as info:
            read_pcd(path)
        assert info.value.line == 11  # 9 header lines + second data row

    def test_extra_fields_ignored(self, tmp_path):
        # intensity channel interleaved with xyz
        header = ("VERSION 0.7\nFIELDS x y z intensity\nSIZE 4 4 4 4\n"
                  "TYPE F F F F\nCOUNT 1 1 1 1\nWIDTH 2\nHEIGHT 1\n"
                  "POINTS 2\nDATA binary\n")
        body = np.array([[1, 2, 3, 9], [4, 5, 6, 9]], dtype="<f4").tobytes()
        path = tmp_path / "cloud.pcd"
        path.write_bytes(header.encode() + body)
        cloud = read_pcd(path)
        assert np.allclose(cloud.points, [[1, 2, 3], [4, 5, 6]])
        assert cloud.normals is None

    @pytest.mark.parametrize("entry, value", [
        ("SIZE", "4 4 four"), ("COUNT", "1 one 1"), ("POINTS", "two"),
        ("POINTS", "-2"), ("WIDTH", ""), ("HEIGHT", "1.5"),
    ])
    def test_non_integer_header_value(self, tmp_path, entry, value):
        header = {"FIELDS": "x y z", "SIZE": "4 4 4", "TYPE": "F F F",
                  "COUNT": "1 1 1", "WIDTH": "2", "HEIGHT": "1"}
        header[entry] = value
        path = tmp_path / "cloud.pcd"
        path.write_text("".join(f"{k} {v}\n" for k, v in header.items())
                        + "DATA ascii\n0 0 0\n1 1 1\n")
        with pytest.raises(ParseError, match=f"PCD {entry} must be"):
            read_pcd(path)

    def test_points_from_width_height(self, tmp_path):
        path = tmp_path / "cloud.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
            "COUNT 1 1 1\nWIDTH 2\nHEIGHT 2\nDATA ascii\n"
            "0 0 0\n1 0 0\n0 1 0\n1 1 0\n")
        assert len(read_pcd(path)) == 4


class TestPly:
    CUBE = "\n".join([
        "ply", "format ascii 1.0", "comment unit cube",
        "element vertex 8",
        "property float x", "property float y", "property float z",
        "end_header",
        "0 0 0", "1 0 0", "0 1 0", "1 1 0",
        "0 0 1", "1 0 1", "0 1 1", "1 1 1", ""])

    def test_cube(self, tmp_path):
        path = tmp_path / "cube.ply"
        path.write_text(self.CUBE)
        cloud = read_ply(path)
        assert len(cloud) == 8
        assert np.allclose(cloud.points.min(axis=0), 0)
        assert np.allclose(cloud.points.max(axis=0), 1)
        assert np.allclose(cloud.points.mean(axis=0), [0.5, 0.5, 0.5])

    def test_extra_properties(self, tmp_path):
        text = "\n".join([
            "ply", "format ascii 1.0", "element vertex 2",
            "property uchar red", "property float x", "property float y",
            "property float z", "end_header",
            "255 1 2 3", "0 4 5 6", ""])
        path = tmp_path / "c.ply"
        path.write_text(text)
        cloud = read_ply(path)
        assert np.allclose(cloud.points, [[1, 2, 3], [4, 5, 6]])

    def test_binary_rejected(self, tmp_path):
        text = self.CUBE.replace("format ascii 1.0",
                                 "format binary_little_endian 1.0")
        path = tmp_path / "c.ply"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_ply(path)

    def test_not_ply(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("off\n8 0 0\n")
        with pytest.raises(ParseError) as info:
            read_ply(path)
        assert info.value.line == 1

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("\n".join(self.CUBE.splitlines()[:-2]) + "\n")
        with pytest.raises(ParseError):
            read_ply(path)

    def test_missing_xyz(self, tmp_path):
        text = "\n".join([
            "ply", "format ascii 1.0", "element vertex 1",
            "property float x", "property float y", "end_header", "1 2", ""])
        path = tmp_path / "c.ply"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_ply(path)

    @pytest.mark.parametrize("line", ["element vertex many", "element vertex",
                                      "element", "format"])
    def test_malformed_header_line(self, tmp_path, line):
        path = tmp_path / "bad.ply"
        path.write_text(self.CUBE.replace("element vertex 8", line, 1)
                        if line.startswith("element")
                        else self.CUBE.replace("format ascii 1.0", line))
        with pytest.raises(ParseError):
            read_ply(path)

    def test_nonfinite_points_dropped(self, tmp_path):
        text = self.CUBE.replace("1 0 0\n", "nan 0 0\n").replace(
            "0 1 1\n", "0 inf 1\n")
        path = tmp_path / "c.ply"
        path.write_text(text)
        cloud = read_ply(path)
        assert len(cloud) == 6
        assert np.all(np.isfinite(cloud.points))


class TestImuCsv:
    def test_round_trip(self, tmp_path, rng):
        samples = [ImuSample(0.005 * k, rng.normal(size=3), rng.normal(size=3))
                   for k in range(20)]
        path = tmp_path / "imu.csv"
        write_imu_csv(path, samples)
        back = read_imu_csv(path)
        assert len(back) == 20
        for a, b in zip(back, samples):
            assert a.timestamp == pytest.approx(b.timestamp, abs=1e-9)
            assert np.allclose(a.angular_velocity, b.angular_velocity,
                               rtol=1e-8)
            assert np.allclose(a.specific_force, b.specific_force, rtol=1e-8)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("time,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,9.81\n")
        with pytest.raises(ParseError) as info:
            read_imu_csv(path)
        assert info.value.line == 1

    def test_bad_row_width(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0\n")
        with pytest.raises(ParseError) as info:
            read_imu_csv(path)
        assert info.value.line == 2

    def test_bad_value(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,wx,wy,wz,ax,ay,az\n0,0,0,x,0,0,9.81\n")
        with pytest.raises(ParseError) as info:
            read_imu_csv(path)
        assert info.value.line == 2

    def test_undecodable_bytes_name_their_offset(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_bytes(b"t,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,9.81\xff\n")
        with pytest.raises(ParseError) as info:
            read_imu_csv(path)
        assert info.value.path == path and info.value.offset == 36

    def test_empty(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,wx,wy,wz,ax,ay,az\n")
        with pytest.raises(ParseError):
            read_imu_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [0, 1, 4])  # timestamp, wx, ax
    def test_non_finite_value_names_line(self, tmp_path, value, field):
        tokens = "0.02,0,0,0,0,0,9.81".split(",")
        tokens[field] = value
        path = tmp_path / "imu.csv"
        path.write_text("t,wx,wy,wz,ax,ay,az\n0.0,0,0,0,0,0,9.81\n"
                        "0.01,0,0,0,0,0,9.81\n" + ",".join(tokens) + "\n")
        with pytest.raises(ParseError) as info:
            read_imu_csv(path)
        assert info.value.line == 4
        assert "non-finite" in str(info.value)

    @pytest.mark.parametrize("times, line", [
        ([0.0, 0.01, 0.01, 0.02], 4),   # a duplicated line
        ([0.0, 0.02, 0.01, 0.03], 4),   # a swapped pair
    ])
    def test_non_increasing_timestamp_names_line(self, tmp_path, times, line):
        path = tmp_path / "imu.csv"
        path.write_text("t,wx,wy,wz,ax,ay,az\n"
                        + "".join(f"{t},0,0,0,0,0,9.81\n" for t in times))
        with pytest.raises(ParseError) as info:
            read_imu_csv(path)
        assert info.value.line == line
        assert f"{times[line - 2]:.9f}" in str(info.value)


@pytest.mark.parametrize("reader, name, text", [
    (read_tum, "odometry.tum", "1.0 0 0 0 0 0 0 1\n2.0 0 0 0 0 0 1\n"),
    (read_imu_csv, "imu.csv", "t,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0\n"),
    (read_pcd, "map.pcd", "FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
                          "POINTS 2\nDATA ascii\n1 2 3\n"),
    (read_ply, "map.ply", "ply\nformat ascii 1.0\nelement vertex 2\n"
                          "property float x\nproperty float y\n"
                          "property float z\nend_header\n1 2\n"),
], ids=["tum", "imu", "pcd", "ply"])
def test_parse_error_names_its_file(tmp_path, reader, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        reader(path)
    assert info.value.path == path
    assert str(info.value).startswith(f"{path}: ")
    assert str(info.value).endswith(f"(line {info.value.line})")


_PCD_HEADER = ("VERSION 0.7\nFIELDS x y z normal_x normal_y normal_z\n"
               "SIZE 4 4 4 4 4 4\nTYPE F F F F F F\nCOUNT 1 1 1 1 1 1\n"
               "WIDTH {n}\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS {n}\n"
               "DATA {mode}\n")
_PLY_HEADER = ("ply\nformat ascii 1.0\ncomment c\nelement vertex {n}\n"
               "property float x\nproperty float y\nproperty float z\n"
               "property uchar red\nelement face 0\n"
               "property list uchar int vertex_indices\nend_header\n")
_ROWS = np.array([[1, 2, 3, 0, 0, 1], [4, 5, 6, 0, 1, 0]], dtype="<f4")

# one small valid file per reader and format; the empty clouds are valid too
FUZZ_SEEDS = {
    "tum": (read_tum, "traj.tum", b"# t x y z qx qy qz qw\n"
            b"1.0 0 0 0 0 0 0 1\n\n2.5 1 2 3 0 0 0.6 0.8\n"),
    "imu": (read_imu_csv, "imu.csv", b"t,wx,wy,wz,ax,ay,az\n"
            b"0.0,0,0,0,0,0,9.81\n0.005,0.1,0,-2e-3,0,0.2,9.8\n"),
    "pcd-ascii": (read_pcd, "a.pcd", _PCD_HEADER.format(n=2, mode="ascii")
                  .encode() + b"1 2 3 0 0 1\n4 5 6 0 1 0\n"),
    "pcd-binary": (read_pcd, "b.pcd", _PCD_HEADER.format(n=2, mode="binary")
                   .encode() + _ROWS.tobytes()),
    "ply": (read_ply, "c.ply", _PLY_HEADER.format(n=2).encode()
            + b"1 2 3 255\n4 5 6 0\n"),
    "config": (load_config, "cfg.json",
               b'{"voxel_size": 0.2, "degeneracy": {"s_thres": 4.0}}'),
    "pcd-ascii-empty": (read_pcd, "e.pcd",
                        _PCD_HEADER.format(n=0, mode="ascii").encode()),
    "pcd-binary-empty": (read_pcd, "f.pcd",
                         _PCD_HEADER.format(n=0, mode="binary").encode()),
    "ply-empty": (read_ply, "g.ply", _PLY_HEADER.format(n=0).encode()),
}

_EDITS = st.lists(st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, 1 << 16),
    st.one_of(st.sampled_from(b"0 1-.e#,\n\xffnai"), st.integers(0, 255))),
    max_size=4)


def _mutate(data, edits):
    data = bytearray(data)
    for op, at, byte in edits:
        if op == "insert":
            data.insert(at % (len(data) + 1), byte)
        elif data and op == "replace":
            data[at % len(data)] = byte
        elif data:
            del data[at % len(data)]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=1000, deadline=None)
@example(kind="pcd-ascii-empty", edits=[])
@example(kind="ply-empty", edits=[])
@given(kind=st.sampled_from(sorted(FUZZ_SEEDS)), edits=_EDITS)
def test_readers_fail_only_with_data_errors(fuzz_dir, kind, edits):
    """Mutated bytes either read, or raise a DataError (exit 2)."""
    reader, name, seed = FUZZ_SEEDS[kind]
    path = fuzz_dir / name
    path.write_bytes(_mutate(seed, edits))
    try:
        reader(path)
    except DataError:
        pass


@pytest.mark.parametrize("kind", ["pcd-ascii-empty", "pcd-binary-empty",
                                  "ply-empty"])
def test_empty_cloud_reads_as_empty(tmp_path, kind):
    reader, name, data = FUZZ_SEEDS[kind]
    path = tmp_path / name
    path.write_bytes(data)
    assert reader(path).points.shape == (0, 3)


@pytest.mark.parametrize("kind", ["tum", "imu", "pcd-ascii", "pcd-binary",
                                  "ply", "config"])
def test_fuzz_seeds_are_valid(tmp_path, kind):
    reader, name, data = FUZZ_SEEDS[kind]
    path = tmp_path / name
    path.write_bytes(data)
    expected = len(DEFAULT_CONFIG) if kind == "config" else 2
    assert len(reader(path)) == expected


class TestScanNames:
    def test_round_trip(self):
        for t in (0.0, 0.1, 12.5, 1234.567891234):
            name = scan_filename(t)
            assert name.endswith(".pcd")
            assert scan_timestamp(name) == pytest.approx(t, abs=1e-9)

    def test_lexicographic_order_matches_time(self):
        times = [0.05, 0.9, 1.0, 9.95, 10.0, 100.5, 1000.0]
        names = [scan_filename(t) for t in times]
        assert names == sorted(names)

    def test_bad_stem(self):
        with pytest.raises(ParseError):
            scan_timestamp("scan_0001.pcd")


class TestConfig:
    def test_defaults_validate(self):
        validate_config(default_config())

    def test_default_copy_is_isolated(self):
        cfg = default_config()
        cfg["degeneracy"]["s_thres"] = 99.0
        assert DEFAULT_CONFIG["degeneracy"]["s_thres"] == 3.0

    def test_load_none(self):
        assert load_config(None) == DEFAULT_CONFIG

    def test_load_merges_over_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"voxel_size": 0.25, "degeneracy": {"s_thres": 5.0}}))
        cfg = load_config(path)
        assert cfg["voxel_size"] == 0.25
        assert cfg["degeneracy"]["s_thres"] == 5.0
        # untouched keys keep defaults
        assert cfg["degeneracy"]["min_correspondences"] == 100
        assert cfg["registration"]["max_iterations"] == 30

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"voxel": 0.25}))
        with pytest.raises(ParseError) as info:
            load_config(path)
        assert "voxel" in str(info.value)

    def test_unknown_nested_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"degeneracy": {"sigma": 1.0}}))
        with pytest.raises(ParseError):
            load_config(path)

    def test_wrong_type(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"threads": "four"}))
        with pytest.raises(ParseError):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{\n  \"threads\": 1,\n}\n")
        with pytest.raises(ParseError) as info:
            load_config(path)
        assert info.value.line is not None

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: not UTF-8 text (byte offset 0)"

    def test_schema_violation_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"threads": "four"}))
        with pytest.raises(ParseError) as info:
            load_config(path)
        assert info.value.path == path
        assert str(info.value).startswith(
            f"{path}: config schema violation at threads")

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError):
            load_config(path)

    def test_overrides(self):
        cfg = apply_overrides(default_config(),
                              ["threads=8", "degeneracy.s_thres=4.5",
                               "verbose=true"])
        assert cfg["threads"] == 8
        assert cfg["degeneracy"]["s_thres"] == 4.5
        assert cfg["verbose"] is True

    def test_override_unknown_key(self):
        with pytest.raises(ParseError):
            apply_overrides(default_config(), ["degeneracy.nope=1"])
        with pytest.raises(ParseError):
            apply_overrides(default_config(), ["nope.s_thres=1"])

    def test_override_bad_type(self):
        with pytest.raises(ParseError):
            apply_overrides(default_config(), ["threads=lots"])

    def test_override_missing_equals(self):
        with pytest.raises(ParseError):
            apply_overrides(default_config(), ["threads"])

    def test_counts_are_bounded_above(self):
        """A count fits an int32, and threads, the kd-tree's worker count,
        stays at most 256; validation alone refuses a larger one."""
        validate_config(_set("threads", 256))
        validate_config(_set("registration.max_iterations", 2 ** 31 - 1))
        for key, value in [("threads", 257), ("threads", 10 ** 20),
                           ("registration.max_iterations", 2 ** 31)]:
            with pytest.raises(ParseError) as info:
                _set(key, value)
            assert f"at {key.replace('.', '/')}:" in str(info.value)

    def test_override_leaves_input_unchanged(self):
        cfg = default_config()
        apply_overrides(cfg, ["threads=8"])
        assert cfg["threads"] == 1


LEAF_KEYS = dict(leaf_keys(DEFAULT_CONFIG))


def _set(key, value):
    """The default config with one key set, as `--set` does it."""
    return apply_overrides(default_config(), [f"{key}={json.dumps(value)}"])


def _wrong_types(default):
    if isinstance(default, bool):
        return ["yes", 1]
    if isinstance(default, int):
        return ["1", True, 2.5, 2.0]
    return ["1.0", True, None]


def _past_bounds(key, default):
    """The first values outside the key's range, below and above."""
    if isinstance(default, bool):
        return []
    if key == "window":
        return [-1, 2 ** 31]
    if key == "threads":
        return [0, 257]
    if key == "degeneracy.s_thres":
        return [1.0, 1e101]
    if isinstance(default, int):
        return [0, 2 ** 31]
    return [0.0, 1e-101, 1e101]


@pytest.mark.parametrize("key", sorted(LEAF_KEYS))
class TestConfigSchema:
    """The config schema is built from DEFAULT_CONFIG: each key takes its
    default's type, and numbers and counts are bounded."""

    def test_default_validates(self, key):
        validate_config(_set(key, LEAF_KEYS[key]))

    def test_wrong_type_fails_naming_the_key(self, key):
        for value in _wrong_types(LEAF_KEYS[key]):
            with pytest.raises(ParseError) as info:
                _set(key, value)
            assert f"at {key.replace('.', '/')}:" in str(info.value), value

    def test_first_value_past_the_bound_fails(self, key):
        for value in _past_bounds(key, LEAF_KEYS[key]):
            with pytest.raises(ParseError) as info:
                _set(key, value)
            assert f"at {key.replace('.', '/')}:" in str(info.value), value


@pytest.mark.parametrize(
    "key", sorted(k for k, v in LEAF_KEYS.items() if isinstance(v, float)))
def test_non_finite_number_fails_naming_the_key(key):
    """validate_config, which pipeline.run calls on a config from the
    Python API, refuses NaN and infinities. NaN would pass every bound, as
    each comparison with it is false."""
    *sections, leaf = key.split(".")
    for value in (math.nan, math.inf, -math.inf):
        cfg = default_config()
        node = cfg
        for section in sections:
            node = node[section]
        node[leaf] = value
        with pytest.raises(ParseError) as info:
            validate_config(cfg)
        assert f"at {key.replace('.', '/')}:" in str(info.value), value


def test_config_bounds_name_real_keys():
    """Every entry of the config and scene-spec bounds tables names a key
    that exists, so none is a silent no-op."""
    assert set(_CONFIG_BOUNDS) <= set(LEAF_KEYS)
    spec_keys = set(dict(leaf_keys(_SPEC_DEFAULTS))) | {
        f"trajectory.{key}" for key in _WAYPOINT_DEFAULTS}
    assert set(_SPEC_BOUNDS) <= spec_keys



def readme_config_table():
    """{dotted key: default} as README's Configuration table lists them,
    each default read as the JSON number or boolean its cell starts with."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Configuration\n")[1].split("\n## ")[0]
    table = {}
    for name, keys in re.findall(r"^\| (.+) \| (.+) \|$", section,
                                 re.MULTILINE):
        if name in ("Section", "---"):
            continue
        prefix = "" if name == "top level" else name.strip("`") + "."
        for key, default in re.findall(r"`(\w+)` \(([^)]+)\)", keys):
            table[prefix + key] = json.loads(default.split()[0])
    return table


def test_readme_config_table_matches_defaults():
    """README lists every config key with its default, and no other key."""
    assert readme_config_table() == LEAF_KEYS

def sample_report():
    return {
        "config": default_config(),
        "num_states": 2,
        "gravity": [0.0, 0.0, -1.0],
        "metrics": None,
        "frames": [
            {"index": 0, "timestamp": 0.0, "residual_rms": 0.012,
             "correspondences": 240, "map_factor_added": True, "mask": [],
             "zupt": False, "iterations": 4, "converged": True,
             "degeneracy": {"d_e": 0.8, "axis_counts": [40, 90, 110],
                            "ratios": [2.25, 1.22, None],
                            "degenerate_axes": [], "stage1_reject": False,
                            "num_correspondences": 240}},
            {"index": 1, "timestamp": 0.1, "residual_rms": None,
             "correspondences": 0, "map_factor_added": False, "mask": [0],
             "zupt": True, "degeneracy": None},
        ],
    }


class TestJsonReports:
    def test_sample_report_validates(self):
        validate_report(sample_report())

    def test_extra_key_rejected(self):
        report = sample_report()
        report["runtime_sec"] = 1.5
        with pytest.raises(ParseError):
            validate_report(report)

    def test_missing_frame_field_rejected(self):
        report = sample_report()
        del report["frames"][0]["zupt"]
        with pytest.raises(ParseError):
            validate_report(report)

    def test_bad_mask_axis_rejected(self):
        report = sample_report()
        report["frames"][1]["mask"] = [3]
        with pytest.raises(ParseError):
            validate_report(report)

    def test_write_json_sorted_and_stable(self, tmp_path):
        payload = {"zeta": 1, "alpha": {"b": 2, "a": 3}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, payload)
        write_json(p2, {"alpha": {"a": 3, "b": 2}, "zeta": 1})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().index("alpha") < p1.read_text().index("zeta")

    def test_nonfinite_to_null(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"a": float("inf"), "b": [float("nan"), 1.0]})
        back = json.loads(path.read_text())
        assert back["a"] is None
        assert back["b"] == [None, 1.0]

    def test_numpy_types_converted(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"f": np.float64(2.5), "i": np.int32(7),
                          "arr": np.arange(3.0)})
        back = json.loads(path.read_text())
        assert back == {"arr": [0.0, 1.0, 2.0], "f": 2.5, "i": 7}

    def test_sanitize_nested_numpy_nan(self):
        out = sanitize_json({"m": np.array([np.nan, 2.0])})
        assert out["m"] == [None, 2.0]


class TestCsvReports:
    def test_frames_csv(self, tmp_path):
        frames = [
            {"timestamp": 1.5, "residual_rms": 0.001, "mask": [0],
             "degeneracy": {"d_e": 0.25, "axis_counts": [10, 20, 30]}},
            {"timestamp": 2.5, "residual_rms": None, "mask": [],
             "degeneracy": None},
        ]
        path = tmp_path / "frames.csv"
        write_frames_csv(path, frames)
        lines = path.read_text().splitlines()
        assert lines[0] == FRAMES_CSV_HEADER
        assert lines[1] == "1.500000000,0.25,10,20,30,1,0,0,0.001"
        assert lines[2] == "2.500000000,,,,,0,0,0,"

    def test_frames_csv_infinite_d_e(self, tmp_path):
        frames = [{"timestamp": 0.0, "residual_rms": 0.5, "mask": [1, 2],
                   "degeneracy": {"d_e": float("inf"),
                                  "axis_counts": [5, 0, 0]}}]
        path = tmp_path / "frames.csv"
        write_frames_csv(path, frames)
        assert path.read_text().splitlines()[1] == \
            "0.000000000,,5,0,0,0,1,1,0.5"

    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, {"ate_rmse_cm": 1.25, "rpe_rmse_cm": 0.5,
                                 "rpe_per_meter_cm": None, "map_acc_cm": 2.0,
                                 "map_com_percent": 98.5,
                                 "matched_pairs": 400})
        lines = path.read_text().splitlines()
        assert lines[1] == "1.25,0.5,,2,98.5,400"
