"""CLI tests: subcommand wiring, exit codes, and output sanity.

Everything runs main() in-process except two subprocess checks: the
`python -m maploc` entry point and the modules `import maploc.cli` loads.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maploc
from maploc.cli import main
from maploc.errors import SingularSystem
from maploc.geometry import PointCloud
from maploc.graph import FactorGraph
from maploc.io import read_cloud, read_tum, write_json, write_pcd

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


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The SMOKE_SPEC scene: 21 scans with one odometry pose each."""
    root = tmp_path_factory.mktemp("smoke")
    write_json(root / "spec.json", SMOKE_SPEC)
    assert main(["synth", "--spec", str(root / "spec.json"),
                 "--out", str(root / "scene")]) == 0
    return root / "scene"


def _tum_rows(path):
    return [line for line in Path(path).read_text().splitlines(True)
            if line.strip() and not line.startswith("#")]


class TestLocalize:
    def test_outputs_exist(self, workspace):
        out = workspace / "run"
        for name in ("trajectory.tum", "map.pcd", "report.json",
                     "frames.csv", "metrics.csv"):
            assert (out / name).exists(), name

    def test_trajectory_tracks_groundtruth(self, workspace):
        est = read_tum(workspace / "run" / "trajectory.tum")
        ref = read_tum(workspace / "scene" / "groundtruth.tum")
        assert len(est) == len(ref)
        err = np.linalg.norm(est.translations - ref.translations, axis=1)
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
                   "--out", str(tmp_path / "capped"), "--verbose",
                   "--set", "degeneracy.min_correspondences=50",
                   "--set", "optimizer.max_iterations=2"])
        assert rc == 0
        report = json.loads((tmp_path / "capped" / "report.json").read_text())
        rows = (tmp_path / "capped" / "optimizer.csv").read_text().split()[1:]
        stages = [row.split(",")[0] for row in rows]
        # each keyframe's window solve is one LM iteration, whatever the
        # cap; the cap bounds the final solve
        assert stages[:-stages.count("final")] == [
            str(f["index"]) for f in report["frames"]]
        assert 1 <= stages.count("final") <= 2
        assert "iterations" not in report["frames"][0]

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

    def test_map_with_nan_normals_localizes(self, smoke, tmp_path):
        # load_map re-estimates the file normals left NaN for x < 2.5 m
        cloud = read_cloud(smoke / "map.pcd")
        normals = cloud.normals.copy()
        normals[cloud.points[:, 0] < 2.5] = np.nan
        write_pcd(tmp_path / "map.pcd", PointCloud(cloud.points, normals))
        assert main(["localize", "--map", str(tmp_path / "map.pcd"),
                     "--scans", str(smoke / "scans"),
                     "--odom", str(smoke / "odometry.tum"),
                     "--imu", str(smoke / "imu.csv"),
                     "--groundtruth", str(smoke / "groundtruth.tum"),
                     "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["metrics"]["ate_rmse_cm"] < 0.2

    def test_gapped_odometry_reports_skipped_scans(self, smoke, tmp_path):
        lines = _tum_rows(smoke / "odometry.tum")
        cut = [2, 7, 12, 17]
        odom = tmp_path / "odometry.tum"
        odom.write_text("".join(line for i, line in enumerate(lines)
                                if i not in cut))
        assert main(["localize", "--map", str(smoke / "map.pcd"),
                     "--scans", str(smoke / "scans"), "--odom", str(odom),
                     "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        scans = sorted((smoke / "scans").glob("*.pcd"))
        assert report["num_states"] == len(scans) - len(cut)
        assert report["skipped_scans"] == [
            {"scan": scans[i].name, "timestamp": float(scans[i].stem)}
            for i in cut]

    def test_full_odometry_skips_no_scan(self, workspace):
        report = json.loads((workspace / "run" / "report.json").read_text())
        assert report["skipped_scans"] == []


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

    @pytest.mark.parametrize("case", ["config-nan", "set-infinity",
                                      "map-beyond-int64-keys"])
    def test_non_finite_config_or_far_map_exits_two_naming_it(
            self, workspace, tmp_path, capsys, case):
        scene = workspace / "scene"
        config = tmp_path / "cfg.json"
        config.write_text('{"voxel_size": NaN}\n')
        far_map = tmp_path / "far.pcd"
        far_map.write_text("FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
                           "POINTS 2\nDATA ascii\n0 0 0\n1e19 0 0\n")
        extra, named = {
            "config-nan": (["--config", str(config)], f"error: {config}: "),
            "set-infinity": (["--set", "voxel_size=Infinity"],
                             "error: config key 'voxel_size': "),
            "map-beyond-int64-keys": (["--map", str(far_map)],
                                      f"error: map file {far_map}: "),
        }[case]
        rc = main(["localize", "--map", str(scene / "map.pcd"),
                   "--scans", str(scene / "scans"),
                   "--odom", str(scene / "odometry.tum"),
                   "--out", str(tmp_path / "x")] + extra)
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and named in err

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

    @pytest.mark.parametrize("case", ["set-null", "config-auto-scale",
                                      "set-gravity-magnitude-weight",
                                      "config-gravity-magnitude-weight",
                                      "set-imu-weight", "config-imu-weight"])
    def test_retired_threshold_settings_exit_two_naming_key(
            self, workspace, tmp_path, capsys, case):
        """d_e_threshold is a number only, and auto_threshold_scale,
        gravity_magnitude_weight and imu_weight are no longer keys: a config
        that still uses any of them is refused."""
        scene = workspace / "scene"
        config = tmp_path / "cfg.json"
        write_json(config, {
            "config-auto-scale": {"degeneracy": {"auto_threshold_scale": 10.0}},
            "config-gravity-magnitude-weight": {
                "factors": {"gravity_magnitude_weight": 1e6}},
            "config-imu-weight": {"factors": {"imu_weight": 2.0}},
        }.get(case, {}))
        extra, key = {
            "set-null": (["--set", "degeneracy.d_e_threshold=null"],
                         "d_e_threshold"),
            "config-auto-scale": (["--config", str(config)],
                                  "auto_threshold_scale"),
            "set-gravity-magnitude-weight": (
                ["--set", "factors.gravity_magnitude_weight=1e6"],
                "gravity_magnitude_weight"),
            "config-gravity-magnitude-weight": (["--config", str(config)],
                                                "gravity_magnitude_weight"),
            "set-imu-weight": (["--set", "factors.imu_weight=2.0"],
                               "imu_weight"),
            "config-imu-weight": (["--config", str(config)], "imu_weight"),
        }[case]
        rc = main(["localize", "--map", str(scene / "map.pcd"),
                   "--scans", str(scene / "scans"),
                   "--odom", str(scene / "odometry.tum"),
                   "--out", str(tmp_path / "x")] + extra)
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and key in err

    @pytest.mark.parametrize("case, code", [("one-pose-odometry", 3),
                                            ("shifted-groundtruth", 2)])
    def test_failed_groundtruth_metrics_name_step_and_file(
            self, smoke, tmp_path, capsys, case, code):
        odom, groundtruth = smoke / "odometry.tum", smoke / "groundtruth.tum"
        if case == "one-pose-odometry":
            odom = tmp_path / "odometry.tum"
            odom.write_text(_tum_rows(smoke / "odometry.tum")[0])
        else:
            groundtruth = tmp_path / "groundtruth.tum"
            groundtruth.write_text("".join(
                f"{float(t) + 1000.0:.9f} {rest}" for t, rest in
                (row.split(maxsplit=1) for row in
                 _tum_rows(smoke / "groundtruth.tum"))))
        rc = main(["localize", "--map", str(smoke / "map.pcd"),
                   "--scans", str(smoke / "scans"), "--odom", str(odom),
                   "--groundtruth", str(groundtruth),
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == code
        assert (f"error: ground-truth metrics against {groundtruth} failed: "
                in err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("case, code", [("two-rows", 3),
                                            ("shifted", 2),
                                            ("delta-too-large", 2),
                                            ("far-map", 3)])
    def test_failed_metrics_name_both_files(self, workspace, tmp_path,
                                            capsys, case, code):
        """An ATE or RPE failure of eval-traj, or a map without inliers in
        eval-map, names the files it compared and keeps its exit code."""
        scene = workspace / "scene"
        ref = scene / "groundtruth.tum"
        est = tmp_path / "est.tum"
        rows = _tum_rows(ref)
        extra = []
        if case == "two-rows":
            est.write_text("".join(rows[:2]))
        elif case == "shifted":
            est.write_text("".join(
                f"{float(t) + 1000.0:.9f} {rest}" for t, rest in
                (row.split(maxsplit=1) for row in rows)))
        elif case == "delta-too-large":
            est.write_text("".join(rows))
            extra = ["--delta", str(len(rows))]
        command = "eval-traj"
        if case == "far-map":
            ref, est, command = scene / "map.pcd", tmp_path / "est.pcd", \
                "eval-map"
            write_pcd(est, PointCloud(read_cloud(ref).points + 100.0))
        rc = main([command, "--est", str(est), "--ref", str(ref)] + extra)
        err = capsys.readouterr().err
        assert rc == code
        assert f"error: metrics of {est} against {ref} failed: " in err

    def test_failed_initial_registration_names_scan(self, smoke, tmp_path,
                                                    capsys):
        scans = tmp_path / "scans"
        shutil.copytree(smoke / "scans", scans)
        first = sorted(scans.glob("*.pcd"))[0]
        first.write_text("FIELDS x y z\nSIZE 4 4 4\nTYPE F F F\n"
                         "POINTS 0\nDATA ascii\n")
        rc = main(["localize", "--map", str(smoke / "map.pcd"),
                   "--scans", str(scans),
                   "--odom", str(smoke / "odometry.tum"),
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 3
        assert (f"error: initial registration of scan {first.name} at "
                f"t={float(first.stem):.9f} failed: " in err)

    @pytest.mark.parametrize("position, stride", [(0, 1), (5, 1), (5, 2)],
                             ids=["first", "mid-run", "off-stride"])
    def test_truncated_scan_stops_run_exiting_two_naming_it(
            self, smoke, tmp_path, capsys, caplog, monkeypatch, position,
            stride):
        """A scan file that cannot be parsed stops the run at its keyframe,
        first or mid-run, on the map-factor stride or off it, as malformed
        input: exit 2 naming the file, no skipped registration, and no
        later keyframe solved."""
        scans = tmp_path / "scans"
        shutil.copytree(smoke / "scans", scans)
        bad = sorted(scans.glob("*.pcd"))[position]
        bad.write_bytes(bad.read_bytes()[:-7])
        calls = []
        solve = FactorGraph.solve_incremental

        def counting(graph, *args, **kwargs):
            calls.append(None)
            return solve(graph, *args, **kwargs)

        monkeypatch.setattr(FactorGraph, "solve_incremental", counting)
        rc = main(["localize", "--map", str(smoke / "map.pcd"),
                   "--scans", str(scans),
                   "--odom", str(smoke / "odometry.tum"),
                   "--out", str(tmp_path / "run"),
                   "--set", f"map_factor_stride={stride}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {bad}: PCD body truncated: "), err
        assert "registration skipped" not in caplog.text
        assert len(calls) == position
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("assignment, code", [
        ("factors.prior_rot_sigma=1e200", 2),   # was an OverflowError
        ("factors.odom_trans_sigma=1e-200", 2),  # was a ZeroDivisionError
        ("imu.sigma_accel=1e200", 2),           # was an OverflowError
        ("factors.map_weight=1e308", 2),        # was a failed solve, exit 3
        # inside the bounds; its LM trials overflow and are rejected
        ("factors.odom_trans_sigma=1e-100", 0),
    ])
    def test_extreme_magnitudes_exit_cleanly(self, smoke, tmp_path, capsys,
                                             assignment, code):
        rc = main(["localize", "--map", str(smoke / "map.pcd"),
                   "--scans", str(smoke / "scans"),
                   "--odom", str(smoke / "odometry.tum"),
                   "--imu", str(smoke / "imu.csv"),
                   "--out", str(tmp_path / "run"), "--set", assignment])
        err = capsys.readouterr().err
        assert rc == code
        assert "Traceback" not in err
        if code:
            key = assignment.split("=")[0].replace(".", "/")
            assert f"error: config schema violation at {key}: " in err

    def test_diverged_estimate_exits_three_naming_keyframe(self, smoke,
                                                          tmp_path, capsys):
        """A gravity of 1e30 m/s^2 is valid config that throws the estimate
        ~1e10 m off; the map assembly names the first keyframe whose scan
        no longer fits the voxel grid's keys, instead of a malformed map."""
        rc = main(["localize", "--map", str(smoke / "map.pcd"),
                   "--scans", str(smoke / "scans"),
                   "--odom", str(smoke / "odometry.tum"),
                   "--imu", str(smoke / "imu.csv"),
                   "--out", str(tmp_path / "run"),
                   "--set", "imu.gravity_magnitude=1e30"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "Traceback" not in err
        assert re.search(r"error: estimate diverged at keyframe \d+ \(scan "
                         r"\S+\.pcd at t=", err), err[-500:]

    @pytest.mark.parametrize("fail_on_call, state_index, solve, keyframe", [
        (4, 1, "window", 1),    # the solve that adds keyframe 3
        (22, 5, "final", 5),    # after the 21 window solves
    ])
    def test_failed_solve_exits_three_naming_keyframe(
            self, smoke, tmp_path, capsys, monkeypatch, fail_on_call,
            state_index, solve, keyframe):
        calls = []
        optimize = FactorGraph.optimize

        def failing(graph, *args, **kwargs):
            calls.append(None)
            if len(calls) == fail_on_call:
                raise SingularSystem("linear solve failed at all damping "
                                     "levels", state_index=state_index)
            return optimize(graph, *args, **kwargs)

        monkeypatch.setattr(FactorGraph, "optimize", failing)
        rc = main(["localize", "--map", str(smoke / "map.pcd"),
                   "--scans", str(smoke / "scans"),
                   "--odom", str(smoke / "odometry.tum"),
                   "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        scan = sorted((smoke / "scans").glob("*.pcd"))[keyframe]
        assert rc == 3
        assert err == (f"error: {solve} solve at keyframe {keyframe} (scan "
                       f"{scan.name} at t={float(scan.stem):.9f}) failed: "
                       "linear solve failed at all damping levels\n")

    def test_huge_thread_count_exits_two_naming_it(self, tmp_path, capsys):
        # the map does not exist: a count that got past the schema would
        # end at the map, never in a localize run with that many workers
        rc = main(["localize", "--map", str(tmp_path / "unread.pcd"),
                   "--scans", str(tmp_path), "--odom", str(tmp_path / "o.tum"),
                   "--out", str(tmp_path / "run"),
                   "--set", "threads=100000000000000000000"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: config schema violation at threads: " in err


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

    @pytest.mark.parametrize("threshold", ["-1", "0", "nan", "inf", "abc"])
    def test_threshold_not_finite_positive_is_usage_error(
            self, workspace, capsys, threshold):
        scene_map = str(workspace / "scene" / "map.pcd")
        rc = main(["eval-map", "--est", scene_map, "--ref", scene_map,
                   "--threshold", threshold])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("argument --threshold: must be a finite number > 0, "
                f"got '{threshold}'") in err

    @pytest.mark.parametrize("data, message", [
        (b"\xff\xfe" + json.dumps(SPEC).encode(),
         "not UTF-8 text (byte offset 0)"),
        (b'{"kind": "cube-room",\n "seed": 1,}',
         "scene spec is not valid JSON: Expecting property name enclosed in "
         "double quotes (line 2)"),
        *[(json.dumps(dict(SPEC, sensor=dict(SPEC["sensor"], **{key: value})))
           .encode(), f"scene spec schema violation at sensor/{key}: {error}")
          for key, value, error in [
              ("fov_up", "a", "'a' is not of type 'number'"),
              ("max_range", None, "None is not of type 'number'"),
              ("n_azimuth", True, "True is not of type 'integer'"),
              # json.dumps writes the token Infinity
              ("fov_up", math.inf, "inf is not of type 'number'")]],
    ], ids=["bytes", "json", "fov-string", "range-null", "count-bool",
            "fov-infinity"])
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


def _python(*args):
    """Runs a fresh interpreter on the maploc this test imported, whether or
    not it is installed."""
    src = str(Path(maploc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_module_entry_point():
    proc = _python("-m", "maploc", "--help")
    assert proc.returncode == 0
    assert "localize" in proc.stdout


def test_cli_import_leaves_synth_unloaded():
    """Only `maploc synth` needs synth and its scipy.interpolate, so the
    other commands do not pay for importing them."""
    proc = _python("-c", "import sys, maploc.cli; print(sorted(m for m in "
                   "sys.modules if m == 'maploc.synth' "
                   "or m.startswith('scipy.interpolate')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
