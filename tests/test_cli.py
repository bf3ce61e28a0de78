"""CLI tests: subcommand wiring, exit codes, and output sanity.

Everything runs main() in-process except one subprocess check of the
`python -m maploc` entry point.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maploc
from maploc.cli import main
from maploc.io import read_cloud, read_tum, write_json

SPEC = {
    "kind": "cube-room", "seed": 21, "size": [5.0, 5.0, 3.0],
    "density": 80.0,
    "sensor": {"n_azimuth": 60, "n_elevation": 6, "max_range": 12.0,
               "min_range": 0.3},
    "trajectory": [{"pos": [1.5, 1.5, 1.5], "speed": 1.0},
                   {"pos": [3.5, 1.5, 1.5], "speed": 1.0},
                   {"pos": [3.5, 3.5, 1.5]}],
}

# perfbench/workloads.py _SMOKE_SPEC: a small room with IMU and a dwell
SMOKE_SPEC = {
    "kind": "cube-room", "seed": 91, "size": [5.0, 5.0, 3.0],
    "density": 200, "scan_rate": 5, "imu_rate": 200,
    "sensor": {"n_azimuth": 60, "n_elevation": 6, "max_range": 10.0,
               "min_range": 0.3, "fov_up": 30.0, "fov_down": -30.0},
    "trajectory": [{"pos": [1.5, 1.5, 1.5]},
                   {"pos": [2.5, 1.5, 1.5], "dwell": 2.0},
                   {"pos": [2.5, 2.5, 1.5]}],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synth scene plus one completed localize run."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    write_json(spec_path, SPEC)
    rc = main(["synth", "--spec", str(spec_path), "--out",
               str(root / "scene")])
    assert rc == 0
    rc = main(["localize",
               "--map", str(root / "scene" / "map.pcd"),
               "--scans", str(root / "scene" / "scans"),
               "--odom", str(root / "scene" / "odometry.tum"),
               "--imu", str(root / "scene" / "imu.csv"),
               "--out", str(root / "run"),
               "--groundtruth", str(root / "scene" / "groundtruth.tum"),
               "--set", "degeneracy.min_correspondences=50"])
    assert rc == 0
    return root


class TestLocalize:
    def test_outputs_exist(self, workspace):
        out = workspace / "run"
        for name in ("trajectory.tum", "map.pcd", "report.json",
                     "frames.csv", "metrics.csv"):
            assert (out / name).exists(), name

    def test_trajectory_tracks_groundtruth(self, workspace):
        est = read_tum(workspace / "run" / "trajectory.tum")
        ref = read_tum(workspace / "scene" / "groundtruth.tum")
        assert len(est.poses) == len(ref.poses)
        err = [np.linalg.norm(a.translation - b.translation)
               for a, b in zip(est.poses, ref.poses)]
        assert max(err) < 0.01

    def test_report_carries_metrics(self, workspace):
        report = json.loads((workspace / "run" / "report.json").read_text())
        assert report["metrics"]["ate_rmse_cm"] < 1.0

    def test_max_iterations_caps_every_solve(self, workspace, tmp_path):
        rc = main(["localize",
                   "--map", str(workspace / "scene" / "map.pcd"),
                   "--scans", str(workspace / "scene" / "scans"),
                   "--odom", str(workspace / "scene" / "odometry.tum"),
                   "--imu", str(workspace / "scene" / "imu.csv"),
                   "--out", str(tmp_path / "capped"),
                   "--set", "degeneracy.min_correspondences=50",
                   "--set", "optimizer.max_iterations=1"])
        assert rc == 0
        report = json.loads((tmp_path / "capped" / "report.json").read_text())
        assert max(f["iterations"] for f in report["frames"]) <= 1

    def test_verbose_set_flag_writes_trace(self, workspace, tmp_path):
        rc = main(["localize",
                   "--map", str(workspace / "scene" / "map.pcd"),
                   "--scans", str(workspace / "scene" / "scans"),
                   "--odom", str(workspace / "scene" / "odometry.tum"),
                   "--out", str(tmp_path / "v"),
                   "--set", "degeneracy.min_correspondences=50",
                   "--set", "verbose=true"])
        assert rc == 0
        assert (tmp_path / "v" / "optimizer.csv").exists()


class TestEvalTraj:
    def test_self_comparison_is_zero(self, workspace, capsys):
        gt = str(workspace / "scene" / "groundtruth.tum")
        assert main(["eval-traj", "--est", gt, "--ref", gt]) == 0
        lines = dict(l.split(": ") for l in
                     capsys.readouterr().out.strip().splitlines())
        assert float(lines["ate_rmse_cm"]) < 1e-9
        assert float(lines["rpe_rmse_cm"]) == 0.0
        assert int(lines["matched_pairs"]) == 41

    def test_est_vs_gt(self, workspace, capsys):
        rc = main(["eval-traj",
                   "--est", str(workspace / "run" / "trajectory.tum"),
                   "--ref", str(workspace / "scene" / "groundtruth.tum"),
                   "--delta", "2"])
        assert rc == 0
        lines = dict(l.split(": ") for l in
                     capsys.readouterr().out.strip().splitlines())
        assert float(lines["ate_rmse_cm"]) < 1.0
        assert float(lines["rpe_rmse_cm"]) < 1.0


class TestEvalMap:
    def test_run_map_against_prior(self, workspace, capsys):
        rc = main(["eval-map",
                   "--est", str(workspace / "run" / "map.pcd"),
                   "--ref", str(workspace / "scene" / "map.pcd")])
        assert rc == 0
        lines = dict(l.split(": ") for l in
                     capsys.readouterr().out.strip().splitlines())
        assert float(lines["map_acc_cm"]) < 5.0
        assert 0.0 <= float(lines["map_com_percent"]) <= 100.0

    def test_non_finite_ply_vertex_is_dropped(self, workspace, tmp_path,
                                              capsys):
        points = read_cloud(workspace / "run" / "map.pcd").points
        rows = [" ".join(f"{v:.6f}" for v in p) for p in points]
        rows.insert(len(rows) // 2, "nan 0 0")
        est = tmp_path / "est.ply"
        est.write_text("\n".join([
            "ply", "format ascii 1.0", f"element vertex {len(rows)}",
            "property float x", "property float y", "property float z",
            "end_header", *rows, ""]))
        rc = main(["eval-map", "--est", str(est),
                   "--ref", str(workspace / "scene" / "map.pcd")])
        assert rc == 0
        lines = dict(l.split(": ") for l in
                     capsys.readouterr().out.strip().splitlines())
        assert float(lines["map_acc_cm"]) < 5.0


class TestDegeneracyReport:
    def test_json_output(self, workspace, capsys):
        scan = sorted((workspace / "scene" / "scans").iterdir())[0]
        rc = main(["degeneracy-report",
                   "--map", str(workspace / "scene" / "map.pcd"),
                   "--scan", str(scan),
                   "--pose", "1.5", "1.5", "1.5", "0", "0", "0", "1",
                   "--set", "degeneracy.min_correspondences=50"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degenerate_axes"] == []
        assert report["stage1_reject"] is False
        assert report["residual_rms"] < 0.02
        assert len(report["axis_counts"]) == 3


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["localize", "--map", "x.pcd"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["localize", "--help"]) == 0

    def test_malformed_input_exits_two(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.tum"
        bad.write_text("definitely not a trajectory\n")
        rc = main(["eval-traj", "--est", str(bad),
                   "--ref", str(workspace / "scene" / "groundtruth.tum")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_duplicate_imu_line_exits_two_naming_it(self, workspace, tmp_path,
                                                    capsys):
        lines = (workspace / "scene" / "imu.csv").read_text().splitlines(True)
        bad = tmp_path / "imu.csv"
        bad.write_text("".join(lines[:50] + lines[49:]))
        rc = main(["localize",
                   "--map", str(workspace / "scene" / "map.pcd"),
                   "--scans", str(workspace / "scene" / "scans"),
                   "--odom", str(workspace / "scene" / "odometry.tum"),
                   "--imu", str(bad),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "(line 51)" in capsys.readouterr().err

    def test_repeated_scan_timestamp_exits_two_naming_both(self, workspace,
                                                           tmp_path, capsys):
        scans = tmp_path / "scans"
        shutil.copytree(workspace / "scene" / "scans", scans)
        first = sorted(scans.glob("*.pcd"))[4]
        second = first.with_name(first.stem + "0.pcd")  # the same timestamp
        shutil.copy(first, second)
        rc = main(["localize",
                   "--map", str(workspace / "scene" / "map.pcd"),
                   "--scans", str(scans),
                   "--odom", str(workspace / "scene" / "odometry.tum"),
                   "--imu", str(workspace / "scene" / "imu.csv"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"scan {second.name} at t=" in err
        assert f"after scan {first.name} at t=" in err

    @pytest.mark.parametrize("name, line, column, sep", [
        ("imu.csv", 51, 4, ","),        # ax
        ("imu.csv", 51, 0, ","),        # timestamp
        ("odometry.tum", 4, 1, " "),    # x
        ("odometry.tum", 4, 0, " "),    # timestamp
    ])
    def test_non_finite_value_exits_two_naming_line(self, workspace, tmp_path,
                                                    capsys, name, line,
                                                    column, sep):
        inputs = {"imu.csv": workspace / "scene" / "imu.csv",
                  "odometry.tum": workspace / "scene" / "odometry.tum"}
        lines = inputs[name].read_text().splitlines(True)
        tokens = lines[line - 1].split(sep)
        tokens[column] = "nan"
        lines[line - 1] = sep.join(tokens).rstrip("\n") + "\n"
        inputs[name] = tmp_path / name
        inputs[name].write_text("".join(lines))
        rc = main(["localize",
                   "--map", str(workspace / "scene" / "map.pcd"),
                   "--scans", str(workspace / "scene" / "scans"),
                   "--odom", str(inputs["odometry.tum"]),
                   "--imu", str(inputs["imu.csv"]),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"(line {line})" in err and "non-finite" in err

    def test_malformed_line_names_file_and_line(self, workspace, tmp_path,
                                                capsys):
        ref = workspace / "scene" / "groundtruth.tum"
        lines = ref.read_text().splitlines(True)
        lines[3] = " ".join(lines[3].split()[:7]) + "\n"
        bad = tmp_path / "bad.tum"
        bad.write_text("".join(lines))
        rc = main(["eval-traj", "--est", str(bad), "--ref", str(ref)])
        assert rc == 2
        assert (f"error: {bad}: expected 8 fields, got 7 (line 4)"
                in capsys.readouterr().err)

    def test_missing_file_exits_two(self, workspace, tmp_path, capsys):
        rc = main(["eval-traj", "--est", str(tmp_path / "nope.tum"),
                   "--ref", str(workspace / "scene" / "groundtruth.tum")])
        assert rc == 2

    def test_bad_override_exits_two(self, workspace, tmp_path, capsys):
        rc = main(["localize",
                   "--map", str(workspace / "scene" / "map.pcd"),
                   "--scans", str(workspace / "scene" / "scans"),
                   "--odom", str(workspace / "scene" / "odometry.tum"),
                   "--out", str(tmp_path / "x"),
                   "--set", "registration.no_such_key=1"])
        assert rc == 2

    @pytest.mark.parametrize("name, data", [
        ("est.pcd", b"FIELDS x y z\nSIZE 4 4 four\nTYPE F F F\nPOINTS 1\n"
                    b"DATA ascii\n0 0 0\n"),
        ("est.ply", b"ply\nformat ascii 1.0\nelement vertex many\n"
                    b"property float x\nproperty float y\nproperty float z\n"
                    b"end_header\n0 0 0\n"),
        ("est.tum", b"\xff\xfe0.0 0 0 0 0 0 0 1\n"),
        ("cfg.json", b"\xff\xfe{}"),
    ], ids=["pcd-size", "ply-vertex-count", "tum-bytes", "config-bytes"])
    def test_malformed_header_or_text_exits_two(self, workspace, tmp_path,
                                                capsys, name, data):
        scene = workspace / "scene"
        bad = tmp_path / name
        bad.write_bytes(data)
        argv = {
            ".pcd": ["eval-map", "--est", str(bad),
                     "--ref", str(scene / "map.pcd")],
            ".ply": ["eval-map", "--est", str(bad),
                     "--ref", str(scene / "map.pcd")],
            ".tum": ["eval-traj", "--est", str(bad),
                     "--ref", str(scene / "groundtruth.tum")],
            ".json": ["localize", "--config", str(bad),
                      "--map", str(scene / "map.pcd"),
                      "--scans", str(scene / "scans"),
                      "--odom", str(scene / "odometry.tum"),
                      "--out", str(tmp_path / "x")],
        }[bad.suffix]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_numerical_failure_exits_three(self, workspace, capsys):
        scan = sorted((workspace / "scene" / "scans").iterdir())[0]
        rc = main(["degeneracy-report",
                   "--map", str(workspace / "scene" / "map.pcd"),
                   "--scan", str(scan),
                   "--pose", "90", "90", "90", "0", "0", "0", "1"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err


class TestFlagErrors:
    @pytest.mark.parametrize("pose, message", [
        ("1 1 1 0 0 0 0", "zero-norm quaternion"),
        ("1 nan 1 0 0 0 1", "non-finite value"),
    ])
    def test_invalid_pose_exits_two(self, workspace, capsys, pose, message):
        scan = sorted((workspace / "scene" / "scans").iterdir())[0]
        rc = main(["degeneracy-report",
                   "--map", str(workspace / "scene" / "map.pcd"),
                   "--scan", str(scan), "--pose", *pose.split()])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: --pose: {message}\n"

    def test_delta_below_one_is_usage_error(self, workspace, capsys):
        gt = str(workspace / "scene" / "groundtruth.tum")
        rc = main(["eval-traj", "--est", gt, "--ref", gt, "--delta", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "argument --delta: must be an integer >= 1, got '0'" in err

    @pytest.mark.parametrize("data, message", [
        (b"\xff\xfe" + json.dumps(SPEC).encode(),
         "not UTF-8 text (byte offset 0)"),
        (b'{"kind": "cube-room",\n "seed": 1,}',
         "scene spec is not valid JSON: Expecting property name enclosed in "
         "double quotes (line 2)"),
    ], ids=["bytes", "json"])
    def test_malformed_spec_exits_two_naming_it(self, tmp_path, capsys, data,
                                                message):
        spec = tmp_path / "spec.json"
        spec.write_bytes(data)
        rc = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: {spec}: {message}\n"


def test_degeneracy_report_matches_localize_frame(tmp_path, capsys):
    """degeneracy-report on scan 0, from the odometry pose localize
    associates with it, reports what localize put in frame 0."""
    write_json(tmp_path / "spec.json", SMOKE_SPEC)
    scene = tmp_path / "scene"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(scene)]) == 0
    assert main(["localize", "--map", str(scene / "map.pcd"),
                 "--scans", str(scene / "scans"),
                 "--odom", str(scene / "odometry.tum"),
                 "--imu", str(scene / "imu.csv"),
                 "--out", str(tmp_path / "run")]) == 0
    frame = json.loads((tmp_path / "run" / "report.json").read_text())[
        "frames"][0]
    scan = sorted((scene / "scans").glob("*.pcd"))[0]
    lines = [line.split() for line in
             (scene / "odometry.tum").read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    # nearest in time, the later line on a tie
    tokens = min(reversed(lines),
                 key=lambda tok: abs(float(tok[0]) - float(scan.stem)))
    capsys.readouterr()
    assert main(["degeneracy-report", "--map", str(scene / "map.pcd"),
                 "--scan", str(scan), "--pose", *tokens[1:]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert frame["degeneracy"] == {key: report[key]
                                   for key in frame["degeneracy"]}
    assert frame["residual_rms"] == report["residual_rms"]
    assert frame["correspondences"] == report["num_correspondences"]


def test_module_entry_point():
    # the subprocess must import the maploc this test imported, whether or
    # not it is installed
    src = str(Path(maploc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "maploc", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "localize" in proc.stdout
