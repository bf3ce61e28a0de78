import json
import math

import numpy as np
import pytest

from maploc.errors import (
    DataError,
    DegenerateGeometry,
    NoInliers,
    NoMatches,
    NonMonotonicTimestamps,
)
from maploc.evaluate import (
    AteResult,
    MetricsReport,
    Trajectory,
    align_se3,
    associate,
    ate,
    compute_metrics,
    map_accuracy,
    map_completeness,
    rpe,
    rpe_per_meter,
)
from maploc import evaluate as evaluate_module
from maploc.geometry import (PointCloud, Pose, between, build_index, compose,
                             exp_map)

from conftest import random_pose, random_twist, trajectory
from oracles import (
    alignment_cost,
    brute_accuracy_cm,
    brute_ate_cm,
    brute_completeness_percent,
    brute_rpe_per_meter_cm,
    greedy_pairs,
    horn_align,
    logm_twist,
)


def line_trajectory(n, step=0.1, start=0.0):
    ts = start + np.arange(n) * 0.1
    poses = (Pose(np.eye(3), np.array([k * step, 0.0, 0.0]))
             for k in range(n))
    return trajectory(ts, poses)


def random_trajectory(rng, n, dt=0.1):
    ts = np.arange(n) * dt
    poses = [Pose.identity()]
    for _ in range(n - 1):
        poses.append(compose(poses[-1],
                             exp_map(random_twist(rng, 0.1, 0.3))))
    return trajectory(ts, poses)


class TestTrajectory:
    def test_monotonic_required(self):
        with pytest.raises(NonMonotonicTimestamps):
            trajectory(np.array([0.0, 0.2, 0.1]), (Pose.identity(),) * 3)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            trajectory(np.array([0.0, 0.1]), (Pose.identity(),))

    def test_positions(self):
        traj = line_trajectory(4)
        assert traj.translations.shape == (4, 3)
        assert traj.rotations.shape == (4, 3, 3)
        assert np.allclose(traj.translations[:, 0], [0.0, 0.1, 0.2, 0.3])

    def test_rows_read_as_poses(self, rng):
        poses = [random_pose(rng) for _ in range(5)]
        traj = trajectory(np.arange(5.0), poses)
        assert len(traj) == 5
        for got, want in zip(traj, poses, strict=True):
            assert np.array_equal(got.matrix(), want.matrix())
        assert np.array_equal(traj[-1].matrix(), poses[-1].matrix())

    def test_arrays_are_read_only_copies(self):
        times = np.array([0.0, 0.1])
        translations = np.zeros((2, 3))
        traj = Trajectory(times, np.broadcast_to(np.eye(3), (2, 3, 3)),
                          translations)
        translations[0, 0] = 1.0
        assert traj.translations[0, 0] == 0.0
        for array in (traj.timestamps, traj.rotations, traj.translations):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("times, row", [([0.0, np.nan, 2.0], 1),
                                            ([0.0, np.inf], 1),
                                            ([-np.inf, 0.0], 0)])
    def test_non_finite_timestamp_names_row(self, times, row):
        with pytest.raises(NonMonotonicTimestamps,
                           match=rf"timestamp {row} \(t=-?(nan|inf)\) is not "
                                 "finite"):
            trajectory(np.array(times), [Pose.identity()] * len(times))

    def test_non_monotonic_names_row(self):
        with pytest.raises(NonMonotonicTimestamps,
                           match=r"timestamp 2 \(t=0.100000000\) .* does "
                                 "not increase"):
            trajectory(np.array([0.0, 0.2, 0.1]), (Pose.identity(),) * 3)

    @pytest.mark.parametrize("field", ["rotations", "translations"])
    def test_non_finite_pose_names_row(self, field):
        arrays = {"rotations": np.tile(np.eye(3), (3, 1, 1)),
                  "translations": np.zeros((3, 3))}
        arrays[field][2].flat[1] = np.nan
        with pytest.raises(DataError, match="pose 2 is not finite"):
            Trajectory(np.arange(3.0), **arrays)


class TestAssociate:
    def test_identical_timestamps_all_paired(self):
        traj = line_trajectory(20)
        pairs = associate(traj, traj)
        assert pairs.dtype.kind == "i"
        assert np.array_equal(pairs, np.repeat(np.arange(20)[:, None], 2, 1))

    def test_shift_beyond_gate_raises(self):
        ref = line_trajectory(10)  # 0.1 s spacing
        est = trajectory(ref.timestamps + 0.04, ref)  # 2x a 0.02 gate
        with pytest.raises(NoMatches):
            associate(est, ref, max_dt=0.02)

    def test_jitter_matches_brute_force(self):
        # jitter below half the spacing: nearest matching is unambiguous
        rng = np.random.default_rng(0)
        ref = line_trajectory(50)
        jitter = rng.uniform(-0.025, 0.025, size=50)
        est = trajectory(ref.timestamps + jitter, ref)
        pairs = associate(est, ref, max_dt=0.05)
        brute = [(i, int(np.argmin(np.abs(ref.timestamps - t))))
                 for i, t in enumerate(est.timestamps)
                 if np.abs(ref.timestamps - t).min() <= 0.05]
        assert pairs.tolist() == [list(pair) for pair in brute]

    @pytest.mark.parametrize("seed", range(4))
    def test_crowded_and_tied_times_match_greedy_scan(self, seed):
        """Estimated times denser than the reference contend for the same
        entries; on a grid of 1/8 s, distances tie exactly."""
        rng = np.random.default_rng(seed)
        ref_t = np.unique(rng.integers(0, 80, 30)) / 8.0
        est_t = np.unique(rng.integers(0, 80, 60)) / 8.0
        ref = trajectory(ref_t, [Pose.identity()] * len(ref_t))
        est = trajectory(est_t, [Pose.identity()] * len(est_t))
        for max_dt in (0.125, 0.25, 0.5):
            assert associate(est, ref, max_dt).tolist() == \
                greedy_pairs(est_t, ref_t, max_dt)

    def test_each_reference_used_once(self):
        ref = trajectory(np.array([0.0, 1.0]), (Pose.identity(),) * 2)
        est = trajectory(np.array([0.0, 0.001]), (Pose.identity(),) * 2)
        pairs = associate(est, ref, max_dt=0.05)
        assert pairs.tolist() == [[0, 0]]


class TestAlignSe3:
    def test_identity(self, rng):
        pts = rng.normal(size=(20, 3))
        q = align_se3(pts, pts)
        assert np.allclose(q.matrix(), np.eye(4), atol=1e-12)

    def test_exact_recovery(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(15, 3))
            truth = random_pose(rng, rot_scale=2.0, trans_scale=3.0)
            q = align_se3(pts, truth.transform(pts))
            assert np.allclose(q.matrix(), truth.matrix(), atol=1e-9)

    def test_noisy_matches_horn_oracle(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(40, 3))
            truth = random_pose(rng, rot_scale=1.5, trans_scale=2.0)
            target = truth.transform(pts) + rng.normal(scale=0.01,
                                                       size=(40, 3))
            q = align_se3(pts, target)
            rot, trans = horn_align(pts, target)
            assert np.allclose(q.rotation, rot, atol=1e-9)
            assert np.allclose(q.translation, trans, atol=1e-9)

    def test_result_is_local_optimum(self, rng):
        pts = rng.normal(size=(30, 3))
        target = random_pose(rng).transform(pts) + rng.normal(
            scale=0.05, size=(30, 3))
        q = align_se3(pts, target)
        best = alignment_cost(q.rotation, q.translation, pts, target)
        for _ in range(200):
            nudged = compose(exp_map(1e-3 * rng.normal(size=6)), q)
            cost = alignment_cost(nudged.rotation, nudged.translation,
                                  pts, target)
            assert cost >= best - 1e-12

    def test_rotation_is_proper_over_seeds(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(10, 3))
            pts[:, 2] = 0.0  # planar sources tempt a reflection
            target = -pts + rng.normal(scale=0.01, size=(10, 3))
            q = align_se3(pts, target)
            assert np.linalg.det(q.rotation) > 0.99

    def test_collinear_raises(self):
        pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 0.5])
        with pytest.raises(DegenerateGeometry):
            align_se3(pts, pts + 0.1)

    def test_too_few_points(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        with pytest.raises(DegenerateGeometry):
            align_se3(pts, pts)


class TestAte:
    def test_identity_zero(self, rng):
        traj = random_trajectory(rng, 30)
        assert ate(traj, traj).rmse_cm < 1e-10

    def test_constant_offset_absorbed(self, rng):
        ref = random_trajectory(rng, 30)
        est = ref.transformed(random_pose(rng, rot_scale=2.0, trans_scale=5.0))
        assert ate(est, ref).rmse_cm < 1e-7

    def test_displaced_middle_pose_closed_form(self):
        # straight line, N poses, middle pose lifted by d: after optimal
        # alignment (identity rotation by symmetry, centroid shift d/N)
        # RMSE = d * sqrt(N-1) / N
        n = 101
        d = 0.10
        ref = line_trajectory(n)
        poses = list(ref)
        mid = n // 2
        poses[mid] = Pose(np.eye(3),
                          poses[mid].translation + np.array([0, 0, d]))
        est = trajectory(ref.timestamps, poses)
        result = ate(est, ref)
        exact = d * math.sqrt(n - 1) / n * 100.0
        assert abs(result.rmse_cm - exact) < 1e-9
        nominal = d / math.sqrt(n) * 100.0  # ignores the centroid shift
        assert abs(result.rmse_cm - nominal) / nominal < 0.01

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(10):
            ref = random_trajectory(rng, 200)
            noisy = (compose(exp_map(random_twist(rng, 0.02, 0.05)), p)
                     for p in ref)
            est = trajectory(ref.timestamps, noisy)
            mine = ate(est, ref).rmse_cm
            brute = brute_ate_cm(est.translations, ref.translations)
            assert abs(mine - brute) < 1e-9

    def test_invariant_under_rigid_transform_of_either(self, rng):
        ref = random_trajectory(rng, 50)
        noisy = (compose(exp_map(random_twist(rng, 0.01, 0.02)), p)
                 for p in ref)
        est = trajectory(ref.timestamps, noisy)
        base = ate(est, ref).rmse_cm
        q = random_pose(rng, rot_scale=2.0, trans_scale=10.0)
        assert abs(ate(est.transformed(q), ref).rmse_cm - base) < 1e-9
        assert abs(ate(est, ref.transformed(q)).rmse_cm - base) < 1e-9

    def test_result_carries_alignment(self, rng):
        ref = random_trajectory(rng, 20)
        q = random_pose(rng)
        est = ref.transformed(q)
        result = ate(est, ref)
        assert isinstance(result, AteResult)
        # alignment must undo q
        assert np.allclose(result.alignment.matrix(),
                           np.linalg.inv(q.matrix()), atol=1e-8)
        assert result.pairs == 20


class TestRpe:
    def test_identity_zero(self, rng):
        traj = random_trajectory(rng, 30)
        assert rpe(traj, traj).rmse_cm < 1e-10

    def test_independent_global_transforms_zero(self, rng):
        ref = random_trajectory(rng, 30)
        est = ref.transformed(random_pose(rng, rot_scale=2.0, trans_scale=4.0))
        result = rpe(est, ref, delta=1)
        assert result.rmse_cm < 1e-7
        assert result.rot_rmse_rad < 1e-9

    def test_single_bad_step_closed_form(self):
        n = 11
        ref = line_trajectory(n)
        poses = list(ref)
        for k in range(5, n):  # inflate the 4->5 step by 2 cm
            poses[k] = Pose(np.eye(3),
                            poses[k].translation + np.array([0.02, 0, 0]))
        est = trajectory(ref.timestamps, poses)
        result = rpe(est, ref, delta=1)
        assert result.windows == n - 1
        expected = 0.02 / math.sqrt(n - 1) * 100.0
        assert abs(result.rmse_cm - expected) < 1e-9

    def test_matches_logm_oracle(self, rng):
        ref = random_trajectory(rng, 25)
        noisy = (compose(exp_map(random_twist(rng, 0.05, 0.1)), p)
                 for p in ref)
        est = trajectory(ref.timestamps, noisy)
        for delta in (1, 3):
            mine = rpe(est, ref, delta=delta)
            sq = []
            for k in range(25 - delta):
                rel_est = np.linalg.inv(est[k].matrix()) \
                    @ est[k + delta].matrix()
                rel_ref = np.linalg.inv(ref[k].matrix()) \
                    @ ref[k + delta].matrix()
                err = logm_twist(np.linalg.inv(rel_ref) @ rel_est)
                sq.append(err[3:] @ err[3:])
            brute = math.sqrt(np.mean(sq)) * 100.0
            assert abs(mine.rmse_cm - brute) < 1e-9

    def test_needs_enough_pairs(self):
        traj = line_trajectory(3)
        with pytest.raises(NoMatches):
            rpe(traj, traj, delta=5)


class TestRpePerMeter:
    def test_exact_trajectory_zero(self):
        traj = line_trajectory(30)
        assert rpe_per_meter(traj, traj) < 1e-10

    def test_short_path_returns_none(self):
        traj = line_trajectory(5)  # 0.4 m total
        assert rpe_per_meter(traj, traj, distance=1.0) is None

    def test_constant_drift_rate(self):
        n = 41
        ref = line_trajectory(n)  # 0.1 m steps
        poses = [Pose(np.eye(3),
                      p.translation + np.array([0, 0, 0.001 * k]))
                 for k, p in enumerate(ref)]
        est = trajectory(ref.timestamps, poses)
        # every 1 m window drifts 1 cm
        value = rpe_per_meter(est, ref, distance=1.0)
        assert abs(value - 1.0) < 1e-6

    @staticmethod
    def jittered_pair(rng, n):
        """A reference with jittered timestamps and uneven step lengths,
        and a noisy estimate stamped up to 10 ms off it, as lists of 4x4
        matrices and as trajectories."""
        times = np.cumsum(rng.uniform(0.05, 0.15, n))
        ref = [Pose.identity()]
        for _ in range(n - 1):
            step = random_twist(rng, 0.1, rng.uniform(0.0, 0.3))
            ref.append(compose(ref[-1], exp_map(step)))
        est = [compose(exp_map(random_twist(rng, 0.02, 0.05)), p)
               for p in ref]
        return ([p.matrix() for p in est], [p.matrix() for p in ref],
                trajectory(times + rng.uniform(-0.01, 0.01, n), est),
                trajectory(times, ref))

    @pytest.mark.parametrize("distance", [0.5, 1.0, 3.0])
    def test_matches_linear_walk_oracle(self, distance):
        rng = np.random.default_rng(int(10 * distance))
        for _ in range(3):
            est_m, ref_m, est, ref = self.jittered_pair(rng, 60)
            want = brute_rpe_per_meter_cm(est_m, ref_m, distance)
            assert want is not None
            assert abs(rpe_per_meter(est, ref, distance=distance)
                       - want) < 1e-9

    def test_too_short_path_matches_oracle(self, rng):
        est_m, ref_m, est, ref = self.jittered_pair(rng, 20)
        path = sum(np.linalg.norm(b[:3, 3] - a[:3, 3])
                   for a, b in zip(ref_m, ref_m[1:]))
        assert brute_rpe_per_meter_cm(est_m, ref_m, path + 0.1) is None
        assert rpe_per_meter(est, ref, distance=path + 0.1) is None


def plane_cloud(n_side=40, spacing=0.02, z=0.0):
    xs = np.arange(n_side) * spacing
    xx, yy = np.meshgrid(xs, xs)
    pts = np.column_stack([xx.ravel(), yy.ravel(),
                           np.full(xx.size, float(z))])
    return PointCloud(pts)


class TestMapMetrics:
    def test_identity_cloud(self, rng):
        cloud = PointCloud(rng.normal(size=(300, 3)))
        assert map_accuracy(cloud, cloud) == 0.0
        assert map_completeness(cloud, cloud) == 100.0

    def test_plane_offset(self):
        gt = plane_cloud()
        est = plane_cloud(z=0.05)
        assert abs(map_accuracy(est, gt) - 5.0) < 1e-9
        assert map_completeness(est, gt) == 100.0

    def test_no_inliers(self):
        gt = plane_cloud()
        est = PointCloud(gt.points + np.array([0.0, 0.0, 1.0]))
        with pytest.raises(NoInliers):
            map_accuracy(est, gt, threshold=0.2)

    def test_half_split_completeness(self, rng):
        near = rng.uniform(0, 1, size=(200, 3))
        far = near + np.array([10.0, 0, 0])
        gt = PointCloud(np.vstack([near, far]))
        est = PointCloud(near)
        assert abs(map_completeness(est, gt) - 50.0) < 1e-9

    def test_empty_overlap_zero_completeness(self, rng):
        gt = PointCloud(rng.uniform(0, 1, size=(100, 3)))
        est = PointCloud(gt.points + 5.0)
        assert map_completeness(est, gt) == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            est = PointCloud(rng.uniform(0, 1, size=(400, 3)))
            gt = PointCloud(rng.uniform(0, 1, size=(500, 3)))
            acc = map_accuracy(est, gt, threshold=0.2)
            com = map_completeness(est, gt, threshold=0.2)
            assert abs(acc - brute_accuracy_cm(est.points, gt.points, 0.2)) < 1e-9
            assert abs(com - brute_completeness_percent(
                est.points, gt.points, 0.2)) < 1e-9

    @pytest.mark.parametrize("gaps", [(0.2, 0.2, 0.1),
                                      (0.2 + 1e-12, 0.2, 0.05),
                                      (0.2 + 1e-12, 0.3, 5.0)],
                             ids=["at-threshold", "just-beyond",
                                  "all-beyond"])
    def test_threshold_boundary_matches_brute_force(self, gaps):
        # each estimated point lies one of the gaps along x from its own GT
        # point, which sits at x = 0, so its distance is the gap exactly: a
        # point at the threshold is an inlier, one 1e-12 m past it is not,
        # though the bounded search, run just past the threshold, finds it
        yz = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)),
                      axis=-1).reshape(-1, 2)
        gt = np.column_stack([np.zeros(len(yz)), yz])
        est = gt + np.outer(np.resize(gaps, len(gt)), [1.0, 0.0, 0.0])
        acc = brute_accuracy_cm(est, gt, 0.2)
        if acc is None:
            with pytest.raises(NoInliers):
                map_accuracy(PointCloud(est), PointCloud(gt), threshold=0.2)
        else:
            assert map_accuracy(PointCloud(est), PointCloud(gt),
                                threshold=0.2) == acc
        assert map_completeness(PointCloud(est), PointCloud(gt),
                                threshold=0.2) == \
            brute_completeness_percent(est, gt, 0.2)

    def test_accuracy_searches_a_given_gt_index(self, rng, monkeypatch):
        # compute_metrics hands map_accuracy the GT map's index, so only
        # completeness builds one; the metrics are those of a fresh index
        ref = random_trajectory(rng, 20)
        est_map = PointCloud(rng.uniform(0, 2, size=(300, 3)))
        gt_map = PointCloud(rng.uniform(0, 2, size=(400, 3)))
        want = compute_metrics(ref, ref, est_map=est_map, gt_map=gt_map)
        gt_index = build_index(gt_map, 0.1)
        built = []
        monkeypatch.setattr(evaluate_module, "build_index",
                            lambda cloud: built.append(cloud) or
                            build_index(cloud))
        got = compute_metrics(ref, ref, est_map=est_map, gt_map=gt_map,
                              gt_index=gt_index)
        assert built == [est_map]
        assert (got.map_acc_cm, got.map_com_percent) == \
            (want.map_acc_cm, want.map_com_percent)
        assert map_accuracy(est_map, gt_map, gt_index=gt_index) == \
            want.map_acc_cm


class TestComputeMetrics:
    def test_full_report(self, rng):
        ref = random_trajectory(rng, 40)
        noisy = (compose(exp_map(random_twist(rng, 0.01, 0.02)), p)
                 for p in ref)
        est = trajectory(ref.timestamps, noisy)
        cloud = PointCloud(rng.uniform(0, 2, size=(200, 3)))
        report = compute_metrics(est, ref, delta=1,
                                 est_map=cloud, gt_map=cloud)
        assert isinstance(report, MetricsReport)
        assert report.ate_rmse_cm >= 0
        assert report.rpe_rmse_cm >= 0
        assert report.map_acc_cm == 0.0
        assert report.map_com_percent == 100.0
        assert report.matched_pairs == 40
        payload = json.dumps(report.as_dict())
        assert "ate_rmse_cm" in payload

    def test_without_maps(self, rng):
        ref = random_trajectory(rng, 20)
        report = compute_metrics(ref, ref)
        assert report.map_acc_cm is None
        assert report.map_com_percent is None
        assert report.ate_rmse_cm < 1e-10

    @pytest.mark.parametrize("delta", [1, 3])
    def test_one_association_feeds_every_trajectory_metric(
            self, rng, monkeypatch, delta):
        """compute_metrics pairs the trajectories once, and its ATE, RPE
        and per-meter RPE equal the standalone functions', bit for bit."""
        ref = random_trajectory(rng, 40)
        noisy = (compose(exp_map(random_twist(rng, 0.01, 0.02)), p)
                 for p in ref)
        est = trajectory(ref.timestamps + 0.01 * rng.uniform(-1, 1, 40),
                         noisy)
        ate_result = ate(est, ref)
        rpe_result = rpe(est, ref, delta)
        per_meter = rpe_per_meter(est, ref)
        calls = []
        real_associate = evaluate_module.associate
        monkeypatch.setattr(evaluate_module, "associate", lambda *a:
                            calls.append(a) or real_associate(*a))
        report = compute_metrics(est, ref, delta=delta)
        assert len(calls) == 1
        assert report.ate_rmse_cm == ate_result.rmse_cm
        assert report.matched_pairs == ate_result.pairs
        assert report.rpe_rmse_cm == rpe_result.rmse_cm
        assert report.rpe_rot_rmse_rad == rpe_result.rot_rmse_rad
        assert report.rpe_per_meter_cm == per_meter
