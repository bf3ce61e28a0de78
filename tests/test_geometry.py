import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maploc.errors import EmptyCloud
from maploc.geometry import (
    PointCloud,
    Pose,
    SpatialIndex,
    between,
    build_index,
    compose,
    estimate_normals,
    exp_map,
    inverse,
    log_map,
    JL_INV_TAYLOR_ANGLE,
    PI_ANGLE_MARGIN,
    SE3_TAYLOR_ANGLE,
    SMALL_ANGLE,
    se3_exp,
    se3_left_jacobian_inv,
    se3_log,
    skew,
    so3_exp,
    so3_left_jacobian,
    so3_left_jacobian_inv,
    so3_log,
)

from maploc.io import default_config
from maploc.pipeline import PriorMap, SequenceInput, run
from maploc.synth import generate, parse_scene_spec

from conftest import random_pose, random_twist
from oracles import (
    se3_left_jacobian_inv_matrix,
    se3_left_jacobian_series,
    skew_matrix,
    so3_exp_matrix,
    so3_left_jacobian_inv_matrix,
    so3_left_jacobian_matrix,
    so3_log_matrix,
    so3_log_scalar,
)


def brute_force_knn(points, query, k):
    """Oracle: exhaustive scan, ties by lowest index."""
    d = np.linalg.norm(points - query, axis=1)
    order = np.lexsort((np.arange(len(points)), d))
    return d[order[:k]], order[:k]


class TestSE3:
    def test_exp_quarter_turn(self):
        pose = exp_map([0.0, 0.0, np.pi / 2, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(pose.transform([[1.0, 0.0, 0.0]]),
                                   [[0.0, 1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(pose.translation, 0.0, atol=1e-15)

    def test_log_pure_translation(self):
        pose = Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(log_map(pose), [0, 0, 0, 1, 2, 3], atol=1e-15)

    def test_log_pi_rotation_about_z(self):
        pose = Pose(so3_exp([0.0, 0.0, np.pi]), np.zeros(3))
        np.testing.assert_allclose(log_map(pose)[:3], [0.0, 0.0, np.pi], atol=1e-9)

    def test_log_pi_rotation_sign_convention(self):
        # axis with a negative leading component flips to positive
        axis = np.array([1.0, -1.0, 0.5])
        axis /= np.linalg.norm(axis)
        rotvec = so3_log(so3_exp(axis * np.pi))
        recovered_axis = rotvec / np.linalg.norm(rotvec)
        lead = recovered_axis[np.nonzero(np.abs(recovered_axis) > 1e-12)[0][0]]
        assert lead > 0
        np.testing.assert_allclose(so3_exp(rotvec), so3_exp(axis * np.pi), atol=1e-9)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            xi = random_twist(rng, rot_scale=3.0, trans_scale=5.0)
            pose = exp_map(xi)
            np.testing.assert_allclose(log_map(pose), xi, atol=1e-9)

    def test_log_exp_round_trip_near_pi(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = np.pi - 10.0 ** rng.uniform(-12, -7)
            pose = Pose(so3_exp(axis * angle), rng.normal(size=3))
            back = exp_map(log_map(pose))
            np.testing.assert_allclose(back.rotation, pose.rotation, atol=1e-6)
            np.testing.assert_allclose(back.translation, pose.translation, atol=1e-6)

    def test_log_near_pi_keeps_a_negative_leading_axis(self):
        # Short of a half turn the axis's sign is vee's, so exp(log R) is R
        # also where the leading component is negative.
        rng = np.random.default_rng(20)
        axes = np.vstack([rng.normal(size=(400, 3)), [[-0.6, 0.8, 0.0]]])
        axes[:, 0] = -np.abs(axes[:, 0])
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.pi - np.concatenate([10.0 ** rng.uniform(-12, -6, 398),
                                         [1e-6, 1e-12, 5e-7]])
        rotations = so3_exp(axes * angles[:, None])
        back = so3_exp(so3_log(rotations))
        # |A - B|_F = 2 sqrt(2) sin(angle / 2) for the angle between them
        error = np.linalg.norm(back - rotations, axis=(1, 2)) / np.sqrt(2.0)
        assert error.max() <= 1e-9

    def test_tiny_angle_no_nan(self):
        xi = np.array([1e-12, -2e-13, 3e-13, 0.1, 0.2, 0.3])
        pose = exp_map(xi)
        assert np.all(np.isfinite(pose.rotation))
        np.testing.assert_allclose(log_map(pose), xi, atol=1e-15)

    def test_group_operations(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = random_pose(rng)
            b = random_pose(rng)
            c = random_pose(rng)
            ident = compose(a, inverse(a))
            np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(ident.translation, 0.0, atol=1e-12)
            np.testing.assert_allclose(compose(a, between(a, b)).matrix(),
                                       b.matrix(), atol=1e-12)
            np.testing.assert_allclose(compose(compose(a, b), c).matrix(),
                                       compose(a, compose(b, c)).matrix(), atol=1e-12)

    def test_matrix_transform_consistency(self, rng):
        pose = random_pose(rng)
        pts = rng.normal(size=(10, 3))
        hom = np.hstack([pts, np.ones((10, 1))])
        np.testing.assert_allclose(pose.transform(pts),
                                   (pose.matrix() @ hom.T).T[:, :3], atol=1e-12)

    def test_se3_left_jacobian_fd_identity(self):
        # log(exp(eps * delta) * exp(xi)) ~ xi + eps * Jl_inv(xi) @ delta
        rng = np.random.default_rng(5)
        eps = 1e-7
        for _ in range(20):
            xi = random_twist(rng, rot_scale=2.0, trans_scale=2.0)
            pose = exp_map(xi)
            jl_inv = se3_left_jacobian_inv(xi)
            for col in range(6):
                delta = np.zeros(6)
                delta[col] = 1.0
                plus = log_map(compose(exp_map(eps * delta), pose))
                minus = log_map(compose(exp_map(-eps * delta), pose))
                fd = (plus - minus) / (2.0 * eps)
                np.testing.assert_allclose(fd, jl_inv @ delta, atol=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(angle=st.floats(0.0, np.pi - 1e-3),
           axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           rho=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    @example(angle=0.0, axis=(0.3, -0.5, 0.8), rho=(1.0, -2.0, 3.0))
    @example(angle=1e-9, axis=(0.3, -0.5, 0.8), rho=(1.0, -2.0, 3.0))
    @example(angle=SE3_TAYLOR_ANGLE * (1 - 1e-9), axis=(0.0, 0.6, -0.8),
             rho=(-3.0, 3.0, 3.0))
    @example(angle=SE3_TAYLOR_ANGLE * (1 + 1e-9), axis=(0.0, 0.6, -0.8),
             rho=(-3.0, 3.0, 3.0))
    @example(angle=np.pi - 1e-3, axis=(1.0, 1.0, 1.0), rho=(3.0, -3.0, 3.0))
    def test_se3_left_jacobian_inv_matches_series_and_fd(self, angle, axis,
                                                         rho):
        axis = np.asarray(axis)
        assume(np.linalg.norm(axis) > 0.1)
        xi = np.concatenate([angle * axis / np.linalg.norm(axis), rho])
        jl_inv = se3_left_jacobian_inv(xi)
        np.testing.assert_allclose(
            jl_inv, np.linalg.inv(se3_left_jacobian_series(xi)), atol=1e-10)
        # log(exp(eps * delta) * exp(xi)) ~ xi + eps * Jl_inv(xi) @ delta
        eps = 1e-4
        pose = exp_map(xi)
        for col in range(6):
            delta = np.zeros(6)
            delta[col] = eps
            fd = (log_map(compose(exp_map(delta), pose))
                  - log_map(compose(exp_map(-delta), pose))) / (2.0 * eps)
            np.testing.assert_allclose(fd, jl_inv[:, col], atol=1e-8)

    def test_run_keeps_rotations_orthonormal(self):
        """Retraction composes exact SO(3) exponentials and no rotation is
        re-projected: after a run with IMU, a dwell and turns, every state
        rotation is orthonormal to 1e-12."""
        result = generate(parse_scene_spec({
            "kind": "cube-room", "seed": 7, "size": [5.0, 5.0, 3.0],
            "density": 200.0, "scan_rate": 5.0,
            "sensor": {"n_azimuth": 60, "n_elevation": 6, "max_range": 10.0},
            "trajectory": [{"pos": [1.5, 1.5, 1.5]},
                           {"pos": [2.5, 1.5, 1.5], "yaw": 0.8, "dwell": 1.0},
                           {"pos": [2.5, 2.5, 1.5], "yaw": 2.0}]}))
        prior = PriorMap(result.gt_map, build_index(result.gt_map), 0.1)
        cfg = default_config()
        cfg["degeneracy"]["min_correspondences"] = 50
        out = run(prior, SequenceInput.from_synth(result), cfg)
        errors = [np.abs(s.pose.rotation.T @ s.pose.rotation - np.eye(3)).max()
                  for s in out.graph.states]
        assert len(errors) > 10 and max(errors) <= 1e-12


# Each kernel's branch switches, approached from both sides
SWITCH_ANGLES = [angle * (1.0 + side)
                 for angle in (SMALL_ANGLE, JL_INV_TAYLOR_ANGLE, SE3_TAYLOR_ANGLE,
                               np.pi - PI_ANGLE_MARGIN)
                 for side in (-1e-9, 1e-9)]


def oracle_twists():
    """Twists at 0, at every switch angle and uniform in [0, pi], about
    random axes, with translations in [-3, 3]^3."""
    rng = np.random.default_rng(14)
    angles = np.concatenate([np.repeat([0.0] + SWITCH_ANGLES, 50),
                             rng.uniform(0.0, np.pi, 3000)])
    axes = rng.normal(size=(len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return np.hstack([axes * angles[:, None],
                      rng.uniform(-3.0, 3.0, (len(angles), 3))])


def assert_kernel_matches(kernel, oracle, inputs):
    np.testing.assert_allclose([kernel(x) for x in inputs],
                               [oracle(x) for x in inputs],
                               rtol=0.0, atol=1e-12)


class TestKernelOracles:
    """The scalar SO(3)/SE(3) kernels against their matrix forms."""

    @pytest.mark.parametrize("kernel, oracle", [
        (skew, skew_matrix),
        (so3_exp, so3_exp_matrix),
        (so3_left_jacobian, so3_left_jacobian_matrix),
        (so3_left_jacobian_inv, so3_left_jacobian_inv_matrix),
    ], ids=lambda f: getattr(f, "__name__", ""))
    def test_so3_kernel_matches_matrix_form(self, kernel, oracle):
        assert_kernel_matches(kernel, oracle, oracle_twists()[:, :3])

    def test_se3_left_jacobian_inv_matches_matrix_form(self):
        assert_kernel_matches(se3_left_jacobian_inv,
                              se3_left_jacobian_inv_matrix, oracle_twists())

    def test_so3_log_matches_matrix_form_below_the_pi_branch(self):
        rotvecs = [w for w in oracle_twists()[:, :3]
                   if np.linalg.norm(w) < np.pi - PI_ANGLE_MARGIN]
        assert len(rotvecs) > 3000
        assert_kernel_matches(so3_log, so3_log_matrix,
                              [so3_exp_matrix(w) for w in rotvecs])


def pi_rotations():
    """Rotations by pi about random axes and about each coordinate axis
    and diagonal, where the log takes its axis-extraction branch."""
    rng = np.random.default_rng(15)
    axes = np.vstack([rng.normal(size=(200, 3)), np.eye(3), -np.eye(3),
                      [[1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 1.0, 1.0]]])
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return np.array([so3_exp(np.pi * axis) for axis in axes])


class TestBatchedKernels:
    """The kernels on a stack of inputs against their matrix forms, or the
    scalar log, row by row over the oracle twists: zero, both sides of
    every switch angle and uniform in [0, pi]. Each row of a stack is the
    kernel's unbatched result."""

    @pytest.mark.parametrize("kernel, oracle", [
        (skew, skew_matrix),
        (so3_exp, so3_exp_matrix),
        (so3_left_jacobian, so3_left_jacobian_matrix),
        (so3_left_jacobian_inv, so3_left_jacobian_inv_matrix),
    ], ids=lambda f: getattr(f, "__name__", ""))
    def test_so3_kernel_stack_matches_matrix_form(self, kernel, oracle):
        rotvecs = oracle_twists()[:, :3]
        stacked = kernel(rotvecs)
        np.testing.assert_allclose(stacked, [oracle(w) for w in rotvecs],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(
            kernel(rotvecs.reshape(-1, 2, 3)).reshape(stacked.shape), stacked)
        np.testing.assert_allclose([kernel(w) for w in rotvecs[::50]],
                                   stacked[::50], rtol=0.0, atol=1e-15)

    def test_se3_left_jacobian_inv_stack_matches_matrix_form(self):
        twists = oracle_twists()
        stacked = se3_left_jacobian_inv(twists)
        np.testing.assert_allclose(
            stacked, [se3_left_jacobian_inv_matrix(x) for x in twists],
            rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            [se3_left_jacobian_inv(x) for x in twists[::50]], stacked[::50],
            rtol=0.0, atol=1e-15)

    def test_so3_log_stack_matches_scalar_on_both_sides_of_pi_branch(self):
        rotations = np.vstack([[so3_exp_matrix(w)
                                for w in oracle_twists()[:, :3]],
                               pi_rotations()])
        expected = [so3_log_scalar(r) for r in rotations]
        angles = np.linalg.norm(expected, axis=1)
        assert (angles > np.pi - PI_ANGLE_MARGIN).sum() > 250
        assert (np.abs(angles - (np.pi - PI_ANGLE_MARGIN)) < 1e-8).sum() >= 100
        stacked = so3_log(rotations)
        np.testing.assert_allclose(stacked, expected, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose([so3_log(r) for r in rotations[::50]],
                                   stacked[::50], rtol=0.0, atol=1e-15)

    def test_se3_exp_and_log_stack_match_matrix_forms(self):
        """The SE(3) exp and log that the retraction and the pose factors
        use: exp(w, p) = (exp(w), Jl(w) p) and log(R, t) = (log(R),
        Jl^-1(log R) t)."""
        twists = oracle_twists()
        rotations, translations = se3_exp(twists)
        np.testing.assert_allclose(
            rotations, [so3_exp_matrix(x[:3]) for x in twists],
            rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            translations, [so3_left_jacobian_matrix(x[:3]) @ x[3:]
                           for x in twists], rtol=0.0, atol=1e-12)
        rotations = np.array([so3_exp_matrix(x[:3]) for x in twists])
        expected = []
        for rotation, x in zip(rotations, twists):
            w = so3_log_scalar(rotation)
            expected.append(np.concatenate(
                [w, so3_left_jacobian_inv_matrix(w) @ x[3:]]))
        np.testing.assert_allclose(se3_log(rotations, twists[:, 3:]),
                                   expected, rtol=0.0, atol=1e-12)


class TestSpatialIndex:
    def test_knn_matches_brute_force_100_clouds(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(20, 200))
            points = rng.uniform(-5, 5, (n, 3))
            index = build_index(PointCloud(points))
            queries = rng.uniform(-5, 5, (10, 3))
            k = int(rng.integers(1, min(8, n) + 1))
            dist, idx = index.knn(queries, k)
            for qi, q in enumerate(queries):
                bf_d, bf_i = brute_force_knn(points, q, k)
                np.testing.assert_array_equal(idx[qi], bf_i)
                np.testing.assert_allclose(dist[qi], bf_d, atol=1e-12)

    def test_knn_10k_cloud(self):
        rng = np.random.default_rng(99)
        points = rng.uniform(0, 10, (10000, 3))
        index = build_index(PointCloud(points))
        queries = rng.uniform(0, 10, (100, 3))
        _, idx = index.knn(queries, 5)
        for qi, q in enumerate(queries):
            _, bf_i = brute_force_knn(points, q, 5)
            np.testing.assert_array_equal(idx[qi], bf_i)

    def test_duplicate_points_tie_by_lowest_index(self):
        points = np.array([[1.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])
        index = build_index(PointCloud(points))
        _, idx = index.knn(np.array([[1.0, 0, 0]]), 2)
        np.testing.assert_array_equal(idx[0], [0, 2])

    def test_single_point_cloud(self):
        index = build_index(PointCloud(np.array([[1.0, 2.0, 3.0]])))
        dist, idx = index.knn(np.array([[1.0, 2.0, 3.0]]), 1)
        assert idx[0, 0] == 0
        assert dist[0, 0] == 0.0

    def test_radius_zero_exact_coincidence(self):
        points = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])
        index = build_index(PointCloud(points))
        np.testing.assert_array_equal(index.radius([0.0, 0, 0], 0.0), [0, 2])
        np.testing.assert_array_equal(index.radius([0.5, 0, 0], 0.0), [])

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyCloud):
            build_index(PointCloud(np.zeros((0, 3))))

    def test_knn_workers_identical(self, rng):
        points = rng.uniform(0, 1, (500, 3))
        index = build_index(PointCloud(points))
        queries = rng.uniform(0, 1, (50, 3))
        d1, i1 = index.knn(queries, 4, workers=1)
        d8, i8 = index.knn(queries, 4, workers=8)
        np.testing.assert_array_equal(i1, i8)
        np.testing.assert_array_equal(d1, d8)


class TestNormals:
    def test_plane_z0(self, rng):
        pts = np.column_stack([rng.uniform(0, 10, 200),
                               rng.uniform(0, 10, 200),
                               np.zeros(200)])
        cloud = estimate_normals(PointCloud(pts), k=10)
        np.testing.assert_allclose(cloud.normals, np.tile([0.0, 0.0, 1.0], (200, 1)),
                                   atol=1e-9)

    def test_plane_x5(self, rng):
        pts = np.column_stack([np.full(200, 5.0),
                               rng.uniform(0, 10, 200),
                               rng.uniform(0, 10, 200)])
        cloud = estimate_normals(PointCloud(pts), k=10)
        np.testing.assert_allclose(cloud.normals, np.tile([1.0, 0.0, 0.0], (200, 1)),
                                   atol=1e-9)

    def test_collinear_neighborhood_null_normal(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        cloud = estimate_normals(PointCloud(pts), k=3)
        assert np.all(np.isnan(cloud.normals))

    def test_valid_normals_unit_norm(self, rng):
        # two slightly noisy planes
        a = np.column_stack([rng.uniform(0, 5, 300), rng.uniform(0, 5, 300),
                             rng.normal(scale=1e-4, size=300)])
        b = np.column_stack([5.0 + rng.normal(scale=1e-4, size=300),
                             rng.uniform(0, 5, 300), rng.uniform(0, 5, 300)])
        cloud = estimate_normals(PointCloud(np.vstack([a, b])), k=10)
        valid = ~np.isnan(cloud.normals[:, 0])
        assert valid.sum() > 500
        norms = np.linalg.norm(cloud.normals[valid], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_sign_convention(self, rng):
        pts = np.column_stack([rng.uniform(0, 10, 100), rng.uniform(0, 10, 100),
                               np.zeros(100)])
        cloud = estimate_normals(PointCloud(pts), k=8)
        lead = np.take_along_axis(cloud.normals,
                                  np.abs(cloud.normals).argmax(axis=1)[:, None],
                                  axis=1)
        assert np.all(lead > 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            estimate_normals(PointCloud(np.zeros((5, 3))), k=2)
        with pytest.raises(ValueError):
            estimate_normals(PointCloud(np.random.default_rng(0).normal(size=(4, 3))), k=10)
