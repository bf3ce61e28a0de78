import warnings

import numpy as np
import pytest

from maploc import synth
from maploc.errors import DataError, NoCorrespondences
from maploc.geometry import (
    PointCloud,
    Pose,
    build_index,
    compose,
    exp_map,
    inverse,
    log_map,
)
from maploc.registration import (
    AlignResult,
    Correspondences,
    RegistrationParams,
    _NearestMemo,
    align,
    assemble_system,
    find_correspondences,
    reference_hessian,
)
from maploc.pipeline import voxel_downsample

from conftest import lattice_scene, random_pose
from oracles import align_reference, brute_force_knn, unit_hessian

# the benchmark's smoke scene (perfbench/workloads.py). In scans 0 and 20 two
# points lie within ~1e-8 m of equidistant from two map points, so their
# nearest neighbours swap back and forth as the pose moves by micrometres
SMOKE_SPEC = {
    "kind": "cube-room",
    "seed": 91,
    "size": [5.0, 5.0, 3.0],
    "density": 200,
    "scan_rate": 5,
    "imu_rate": 200,
    "sensor": {"n_azimuth": 60, "n_elevation": 6, "max_range": 10.0,
               "min_range": 0.3, "fov_up": 30.0, "fov_down": -30.0},
    "trajectory": [
        {"pos": [1.5, 1.5, 1.5]},
        {"pos": [2.5, 1.5, 1.5], "dwell": 2.0},
        {"pos": [2.5, 2.5, 1.5]},
    ],
}


def box_map(rng, n_per_face=400, size=4.0):
    """Three orthogonal planes with exact normals: full 6-DOF constraints."""
    u = rng.uniform(0, size, (n_per_face, 2))
    floor = np.column_stack([u[:, 0], u[:, 1], np.zeros(n_per_face)])
    u = rng.uniform(0, size, (n_per_face, 2))
    wall_x = np.column_stack([np.zeros(n_per_face), u[:, 0], u[:, 1]])
    u = rng.uniform(0, size, (n_per_face, 2))
    wall_y = np.column_stack([u[:, 0], np.zeros(n_per_face), u[:, 1]])
    points = np.vstack([floor, wall_x, wall_y])
    normals = np.vstack([np.tile([0.0, 0, 1], (n_per_face, 1)),
                         np.tile([1.0, 0, 0], (n_per_face, 1)),
                         np.tile([0.0, 1, 0], (n_per_face, 1))])
    return PointCloud(points, normals=normals)


def random_normal_cloud(rng, n=120):
    points = rng.uniform(-2, 2, (n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points, normals=normals)


def pose_error(a: Pose, b: Pose):
    xi = log_map(compose(inverse(a), b))
    return np.linalg.norm(xi[:3]), np.linalg.norm(xi[3:])


def test_self_match_zero_residuals(rng):
    cloud = box_map(rng)
    index = build_index(cloud)
    corrs = find_correspondences(cloud.points, index, Pose.identity(), 1.0)
    assert len(corrs) == len(cloud)
    np.testing.assert_allclose(corrs.residuals, 0.0, atol=1e-12)


def test_no_correspondences_raises(rng):
    cloud = box_map(rng)
    index = build_index(cloud)
    far = cloud.points + 100.0
    with pytest.raises(NoCorrespondences):
        find_correspondences(far, index, Pose.identity(), 1.0)


def test_plane_offset_residuals(rng):
    n = 300
    pts = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 10, n), np.zeros(n)])
    cloud = PointCloud(pts, normals=np.tile([0.0, 0.0, 1.0], (n, 1)))
    index = build_index(cloud)
    scan = pts + np.array([0.0, 0.0, 0.05])
    corrs = find_correspondences(scan, index, Pose.identity(), 1.0)
    np.testing.assert_allclose(corrs.residuals, 0.05, atol=1e-12)


def test_single_correspondence_jacobian_row():
    corrs = Correspondences(np.array([[0.0, 0, 0]]), np.array([[0.0, 0, 0]]),
                            np.array([[0.0, 0, 1]]), np.array([0.0]))
    hessian, gradient, cost = assemble_system(corrs, Pose.identity(), 0.1)
    assert cost == 0.0
    np.testing.assert_allclose(gradient, 0.0)
    expected_row = np.array([0.0, 0, 0, 0, 0, 1])
    np.testing.assert_allclose(hessian, np.outer(expected_row, expected_row), atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    eps = 1e-6
    for _ in range(20):
        cloud = random_normal_cloud(rng)
        index = build_index(cloud)
        pose = random_pose(rng, rot_scale=0.3, trans_scale=0.2)
        scan = rng.uniform(-2, 2, (80, 3))
        try:
            corrs = find_correspondences(scan, index, pose, 2.0)
        except NoCorrespondences:
            continue
        _, gradient, _ = assemble_system(corrs, pose, 0.1)
        fd = np.zeros(6)
        for col in range(6):
            delta = np.zeros(6)
            delta[col] = eps
            _, _, cost_plus = assemble_system(corrs, compose(exp_map(delta), pose), 0.1)
            _, _, cost_minus = assemble_system(corrs, compose(exp_map(-delta), pose), 0.1)
            fd[col] = (cost_plus - cost_minus) / (2 * eps)
        scale = max(np.abs(fd).max(), 1e-9)
        np.testing.assert_allclose(gradient, fd, atol=1e-5 * scale)


def test_hessian_matches_fd_of_gradient(rng):
    # self-registered scene: residuals are exactly zero, so the Gauss-Newton
    # Hessian equals the true cost Hessian
    cloud = random_normal_cloud(rng, n=150)
    index = build_index(cloud)
    corrs = find_correspondences(cloud.points, index, Pose.identity(), 0.5)
    hessian, _, _ = assemble_system(corrs, Pose.identity(), 0.1)
    eps = 1e-6
    fd = np.zeros((6, 6))
    for col in range(6):
        delta = np.zeros(6)
        delta[col] = eps
        _, g_plus, _ = assemble_system(corrs, exp_map(delta), 0.1)
        _, g_minus, _ = assemble_system(corrs, exp_map(-delta), 0.1)
        fd[:, col] = (g_plus - g_minus) / (2 * eps)
    rel = np.linalg.norm(hessian - fd) / np.linalg.norm(hessian)
    assert rel < 1e-4


def test_align_recovers_known_transform(rng):
    cloud = box_map(rng, n_per_face=600)
    index = build_index(cloud)
    true_pose = exp_map([0.01, -0.02, 0.03, 0.05, -0.04, 0.06])
    scan = inverse(true_pose).transform(cloud.points)
    init = exp_map([0.0, 0.0, 0.035, 0.1, 0.0, 0.0])  # ~2 deg, 0.1 m off
    result = align(scan, index, init)
    assert result.converged
    rot_err, trans_err = pose_error(result.pose, true_pose)
    assert rot_err < 1e-6
    assert trans_err < 1e-6


def test_align_plane_pair_known_offset(rng):
    n = 500
    pts = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 10, n), np.zeros(n)])
    cloud = PointCloud(pts, normals=np.tile([0.0, 0.0, 1.0], (n, 1)))
    index = build_index(cloud)
    scan = pts + np.array([0.0, 0.0, 0.05])
    result = align(scan, index, Pose.identity())
    # only z is observable on a single plane
    assert abs(result.pose.translation[2] + 0.05) < 1e-6
    assert result.residual_rms < 1e-9


def test_align_self_converges_fast(rng):
    cloud = box_map(rng)
    index = build_index(cloud)
    result = align(cloud.points, index, Pose.identity())
    assert result.converged
    assert result.iterations <= 2
    rot_err, trans_err = pose_error(result.pose, Pose.identity())
    assert rot_err < 1e-12 and trans_err < 1e-12


def test_align_with_outliers(rng):
    cloud = box_map(rng, n_per_face=500)
    index = build_index(cloud)
    true_pose = exp_map([0.005, -0.01, 0.02, 0.03, -0.02, 0.04])
    inliers = inverse(true_pose).transform(cloud.points)
    n_out = int(0.2 * len(inliers) / 0.8)
    outliers = rng.uniform(-2, 6, (n_out, 3))
    scan = np.vstack([inliers, outliers])
    params = RegistrationParams(max_correspondence_distance=0.5)
    result = align(scan, index, Pose.identity(), params)
    _, trans_err = pose_error(result.pose, true_pose)
    assert trans_err < 5e-3


def test_align_equivariance(rng):
    cloud = box_map(rng, n_per_face=500)
    index = build_index(cloud)
    true_pose = exp_map([0.01, 0.0, -0.02, 0.04, 0.02, -0.03])
    scan = inverse(true_pose).transform(cloud.points)
    init = exp_map([0.0, 0.01, 0.0, -0.05, 0.02, 0.0])
    base = align(scan, index, init)

    q = exp_map([0.2, -0.1, 0.3, 1.0, -2.0, 0.5])
    moved = PointCloud(q.transform(cloud.points),
                       normals=cloud.normals @ q.rotation.T)
    moved_index = build_index(moved)
    moved_result = align(scan, moved_index, compose(q, init))
    rot_err, trans_err = pose_error(moved_result.pose, compose(q, base.pose))
    assert rot_err < 1e-6 and trans_err < 1e-6


def test_align_deterministic_and_worker_independent(rng):
    cloud = box_map(rng)
    index = build_index(cloud)
    true_pose = exp_map([0.01, -0.02, 0.0, 0.05, 0.0, -0.03])
    scan = inverse(true_pose).transform(cloud.points)
    init = Pose.identity()
    a = align(scan, index, init, workers=1)
    b = align(scan, index, init, workers=1)
    c = align(scan, index, init, workers=8)
    np.testing.assert_array_equal(a.pose.matrix(), b.pose.matrix())
    np.testing.assert_array_equal(a.pose.matrix(), c.pose.matrix())
    np.testing.assert_array_equal(a.hessian, c.hessian)


def test_cost_non_increasing_on_accepted_steps(rng):
    cloud = box_map(rng)
    index = build_index(cloud)
    scan = inverse(exp_map([0.02, 0.01, -0.03, 0.1, -0.1, 0.05])).transform(cloud.points)
    result = align(scan, index, Pose.identity())
    assert len(result.cost_trace) >= 1
    for before, after in result.cost_trace:
        assert after < before


def test_final_hessian_unit_weights(rng):
    cloud = box_map(rng)
    index = build_index(cloud)
    result = align(cloud.points, index, Pose.identity())
    direct = unit_hessian(result.correspondences, result.pose)
    np.testing.assert_array_equal(result.hessian, direct)
    # unit weights: PSD and symmetric
    np.testing.assert_allclose(result.hessian, result.hessian.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(result.hessian) > -1e-9)


def test_reference_hessian_matches_self_registration(rng):
    cloud = box_map(rng)
    index = build_index(cloud)
    corrs = find_correspondences(cloud.points, index, Pose.identity(), 1.0)
    ref = reference_hessian(corrs)
    # with a self-matched scan at identity, target and transformed source agree
    np.testing.assert_allclose(ref, unit_hessian(corrs, Pose.identity()), atol=1e-9)


def test_nan_normals_excluded(rng):
    pts = rng.uniform(0, 5, (100, 3))
    normals = np.tile([0.0, 0.0, 1.0], (100, 1))
    normals[::2] = np.nan
    cloud = PointCloud(pts, normals=normals)
    index = build_index(cloud)
    corrs = find_correspondences(pts, index, Pose.identity(), 1.0)
    assert len(corrs) == 50
    assert np.all(np.isfinite(corrs.target_normals))


@pytest.fixture(scope="module")
def smoke_scene():
    scene = synth.generate(synth.parse_scene_spec(SMOKE_SPEC))
    points, normals = voxel_downsample(scene.gt_map.points, 0.1,
                                       scene.gt_map.normals)
    return scene, build_index(PointCloud(points, normals))


@pytest.mark.parametrize("k", [0, 20])
def test_align_ends_association_cycle(smoke_scene, k):
    # from its second step on, this registration hops between the optima of
    # two association sets; it must stop when it is back where it stood
    # rather than run to max_iterations
    scene, index = smoke_scene
    params = RegistrationParams()
    result = align(scene.scans[k].cloud.points, index,
                   scene.odometry[k], params)
    assert result.converged
    assert result.iterations < params.max_iterations


def test_align_from_perturbed_starts_reaches_truth(smoke_scene):
    # guards the stopping rule against ending a registration early: every
    # start within 0.4 m / 0.06 rad (one sigma) must still reach the truth
    scene, index = smoke_scene
    rng = np.random.default_rng(0)
    errors = []
    for trial in range(40):
        k = trial % len(scene.scans)
        truth = scene.gt_trajectory[k]
        offset = np.concatenate([rng.normal(size=3) * 0.06,
                                 rng.normal(size=3) * 0.4])
        result = align(scene.scans[k].cloud.points, index,
                       compose(exp_map(offset), truth))
        errors.append(np.linalg.norm(result.pose.translation
                                     - truth.translation))
    assert max(errors) < 2e-3


def assert_same_correspondences(a, b):
    for name in ("source_points", "target_points", "target_normals",
                 "residuals"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def brute_force_correspondences(scan, cloud, pose, max_distance):
    """find_correspondences by an exhaustive lowest-index nearest search."""
    world = pose.transform(scan)
    nearest = [brute_force_knn(cloud.points, q, 1) for q in world]
    dist = np.array([d[0] for d, _ in nearest])
    idx = np.array([i[0] for _, i in nearest])
    valid = (dist <= max_distance) & np.isfinite(cloud.normals[idx, 0])
    target = cloud.points[idx[valid]]
    normal = cloud.normals[idx[valid]]
    return Correspondences(scan[valid], target, normal, np.einsum(
        "ij,ij->i", normal, world[valid] - target))


def test_memo_matches_fresh_and_brute_force_associations(rng):
    assert_memo_walk_exact(rng, None)


@pytest.mark.parametrize("spacing", [0.1, 0.01])
def test_memo_on_a_spaced_index_matches_fresh_and_brute_force(rng, spacing):
    # 0.01, a fiftieth of the lattice step, sends most rows to the second
    # search
    assert_memo_walk_exact(rng, spacing)


def assert_memo_walk_exact(rng, spacing):
    """The reuse rule is exact: along a walk of small and large moves, the
    associations of a memo over an index with this spacing equal a
    memo-less call's on an index without one and an exhaustive search's,
    bit for bit, ties and duplicate points included."""
    cloud, scan = lattice_scene(rng)
    index = build_index(cloud, spacing)
    plain = build_index(cloud)
    queried = []
    knn = index.knn

    def counting_knn(queries, k, **options):
        queried.append(len(queries))
        return knn(queries, k, **options)
    index.knn = counting_knn
    lifted = compose(exp_map([0.01, -0.02, 0.015, 0.0, 0.0, 0.6]),
                     exp_map([0.0, 0.0, 0.0, 0.05, 0.03, 0.0]))
    poses = [Pose.identity(), Pose(np.eye(3), np.array([0.5, 0.25, 0.0]))]
    for step in range(24):
        scale = 0.3 if step % 6 == 5 else 1e-3  # mostly small steps
        poses.append(compose(random_pose(rng, scale, scale), poses[-1]))
    # no scan point is nearest to a doubled point once lifted off the
    # floor, so the repeated pose re-queries nothing
    poses[12:12] = [lifted, lifted]
    poses.append(Pose.identity())
    memo = _NearestMemo(scan, poses[0])
    for step, pose in enumerate(poses):
        corrs = find_correspondences(scan, index, pose, 1.0, memo=memo)
        assert_same_correspondences(
            corrs, find_correspondences(scan, plain, pose, 1.0))
        assert_same_correspondences(
            corrs, brute_force_correspondences(scan, cloud, pose, 1.0))
        assert 5 <= len(scan) - len(corrs) < len(scan)
    assert queried[0] == queried[1] == queried[-1] == len(scan)
    assert queried[13] == 0
    assert 0 < min(queried[2:12])


def test_memo_requeries_non_finite_points(rng):
    cloud = box_map(rng)
    index = build_index(cloud)
    memo = _NearestMemo(cloud.points[:50], Pose.identity())
    world = cloud.points[:50] + 0.1
    memo.nearest(world, index, 1)
    assert not memo.stale(world).any()
    for bad in (np.nan, np.inf):
        moved = world.copy()
        moved[3, 1] = bad
        np.testing.assert_array_equal(np.flatnonzero(memo.stale(moved)), [3])


def test_memo_on_a_one_point_map_keeps_every_finite_row():
    # no second map point: the guard distance is inf, so no move can change
    # a row's nearest point and only a non-finite row is queried again
    normal = np.array([[0.0, 0.0, 1.0]])
    index = build_index(PointCloud(np.zeros((1, 3)), normals=normal))
    scan = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3]])
    memo = _NearestMemo(scan, Pose.identity())
    find_correspondences(scan, index, Pose.identity(), 10.0, memo=memo)
    np.testing.assert_array_equal(memo.d2, np.inf)
    far = Pose(np.eye(3), np.array([3.0, -2.0, 1.0]))
    assert not memo.stale(far.transform(scan)).any()
    assert_same_correspondences(
        find_correspondences(scan, index, far, 10.0, memo=memo),
        find_correspondences(scan, index, far, 10.0))
    moved = far.transform(scan)
    moved[1, 0] = np.inf
    np.testing.assert_array_equal(np.flatnonzero(memo.stale(moved)), [1])


@pytest.mark.parametrize("scan, message", [
    (np.zeros((4, 2)), r"shape \(N, 3\), not \(4, 2\)"),
    (np.zeros(3), r"shape \(N, 3\), not \(3,\)"),
    ([[0.0, 0.0, 0.0], [1.0, 2.0]], "not a numeric array"),
    ([[0.0, 0, 0], [1.0, np.nan, 0], [np.inf, 0, 0]],
     r"row 1 is not finite: \[1.0, nan, 0.0\]"),
    ([[0.0, 0, 0], [0.0, 0, 0], [-np.inf, 0, 0]],
     r"row 2 is not finite: \[-inf, 0.0, 0.0\]"),
    (np.r_[np.ones((6, 3)), [[2.0, 3.0, np.nan]]],
     r"row 6 is not finite: \[2.0, 3.0, nan\]"),
], ids=["two-columns", "one-row-1d", "ragged", "nan", "inf", "last-z"])
def test_malformed_scan_raises_data_error(rng, scan, message):
    index = build_index(box_map(rng))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=message):
            find_correspondences(scan, index, Pose.identity(), 1.0)
        with pytest.raises(DataError, match=message):
            align(scan, index, Pose.identity())


@pytest.mark.parametrize("rotation, translation, message", [
    (np.eye(3), [np.nan, 0.0, 0.0], r"\[\[1.0, 0.0, 0.0, nan\], \[0.0, 1.0"),
    (np.eye(3), [0.0, 0.0, -np.inf], r"\[0.0, 0.0, 1.0, -inf\]\]$"),
    (np.diag([1.0, 1.0, np.nan]), np.zeros(3), r"\[0.0, 0.0, nan, 0.0\]\]$"),
], ids=["nan", "inf", "nan-rotation"])
def test_non_finite_pose_raises_data_error(rng, monkeypatch, rotation,
                                           translation, message):
    """A non-finite pose is named before any transform or k-d query."""
    index = build_index(box_map(rng))
    monkeypatch.setattr(index, "knn", lambda *args, **kw: pytest.fail(
        "k-d query with a non-finite pose"))
    scan = rng.uniform(-1.0, 1.0, size=(20, 3))
    pose = Pose(rotation, np.array(translation))
    message = f"^pose is not finite: .*{message}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=message):
            find_correspondences(scan, index, pose, 1.0)
        with pytest.raises(DataError, match=message):
            align(scan, index, pose)


def test_align_correspondences_match_fresh_association(smoke_scene):
    # the pairs align returns were associated through its memo; they equal
    # a fresh association at the final pose, from the odometry start and
    # from a criterion-8-style perturbed start
    scene, index = smoke_scene
    rng = np.random.default_rng(1008)
    params = RegistrationParams()
    for k in range(0, len(scene.scans), 4):
        scan = scene.scans[k].cloud.points
        twist = np.concatenate([0.02 * rng.normal(size=3),
                                0.05 * rng.normal(size=3)])
        for init in (scene.odometry[k],
                     compose(exp_map(twist), scene.gt_trajectory[k])):
            result = align(scan, index, init, params)
            assert_same_correspondences(result.correspondences,
                                        find_correspondences(
                                            scan, index, result.pose,
                                            params.max_correspondence_distance))


def test_map_without_normals_raises_before_any_query(rng, monkeypatch):
    index = build_index(PointCloud(box_map(rng).points))
    monkeypatch.setattr(index, "knn", lambda *args, **kw: pytest.fail(
        "k-d query on a map without normals"))
    scan = rng.uniform(0.0, 4.0, size=(20, 3))
    for call in (lambda: find_correspondences(scan, index, Pose.identity(), 1.0),
                 lambda: align(scan, index, Pose.identity())):
        with pytest.raises(ValueError, match="map cloud carries no normals"):
            call()


class CountingTree:
    """A k-d tree that counts the points its queries return."""

    def __init__(self, tree):
        self.tree, self.candidates = tree, 0

    def query(self, queries, k, **options):
        dist, idx = self.tree.query(queries, k, **options)
        self.candidates += int(np.sum(idx < self.tree.n))
        return dist, idx

    def query_ball_point(self, point, r, **options):
        found = self.tree.query_ball_point(point, r, **options)
        self.candidates += len(found)
        return found


@pytest.mark.parametrize("translation", [[1e16, 0.0, 0.0],
                                         [1e16, -1e16, 3e15]])
def test_far_off_scan_meets_no_map_point(rng, translation):
    # at 1e16 m every map point lies at the same rounded distance; an
    # unbounded query ties every row and re-resolves it over the whole map
    # (60,100 candidates here), a query bounded at the gate finds none
    index = build_index(box_map(rng))
    tree = index._tree = CountingTree(index._tree)
    scan = index.cloud.points[:50]
    far = Pose(np.eye(3), np.array(translation))
    with pytest.raises(NoCorrespondences):
        find_correspondences(scan, index, far, 1.0)
    with pytest.raises(NoCorrespondences):
        align(scan, index, far)
    assert tree.candidates == 0


def test_correspondences_outlive_later_associations(rng):
    # a Correspondences owns its arrays: associating again on the same memo,
    # with every row matched or with some not, leaves it as it was
    cloud = box_map(rng)
    index = build_index(cloud)
    scan = np.vstack([cloud.points[::4] + rng.normal(0.0, 0.01, (300, 3)),
                      [[9.0, 9.0, 9.0]]])
    names = ("source_points", "target_points", "target_normals", "residuals",
             "world_points")
    for points, all_matched in ((scan[:-1], True), (scan, False)):
        memo = _NearestMemo(points, Pose.identity())
        corrs = find_correspondences(points, index, Pose.identity(), 1.0,
                                     memo=memo)
        assert (len(corrs) == len(points)) == all_matched
        before = {name: getattr(corrs, name).copy() for name in names}
        for _ in range(3):
            find_correspondences(points, index, random_pose(rng, 0.3, 0.3),
                                 1.0, memo=memo)
        for name in names:
            np.testing.assert_array_equal(getattr(corrs, name), before[name])
            for state in (memo.scan, memo.anchor, memo.target, memo.normal):
                assert not np.shares_memory(getattr(corrs, name), state)


def assert_same_alignment(result, reference):
    for a, b in ((result.pose.rotation, reference.pose.rotation),
                 (result.pose.translation, reference.pose.translation),
                 (result.hessian, reference.hessian)):
        np.testing.assert_array_equal(a, b)
    assert result.residual_rms == reference.residual_rms
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert result.cost_trace == reference.cost_trace
    assert_same_correspondences(result.correspondences,
                                reference.correspondences)


@pytest.mark.parametrize("case, spacing", [
    pytest.param(case, spacing,
                 id=case if spacing is None else f"{case}-spacing{spacing}")
    for spacing in (None, 0.1, 0.01)
    for case in ("normals-lost", "beyond-gate", "iteration-cap",
                 "one-point-map")])
def test_align_equals_reference_bit_for_bit(smoke_scene, case, spacing):
    # align keeps each row's association and the world points it computed
    # the residuals from; the result must be that of associating afresh and
    # transforming again at every use, to the last bit. align searches an
    # index with the map's voxel size as its spacing (0.1), or one at 0.01,
    # which sends most rows to the second search; the reference searches
    # one without a spacing
    scene, index = smoke_scene
    rng = np.random.default_rng(33)
    params = RegistrationParams()
    cloud = index.cloud
    if case == "normals-lost":
        normals = cloud.normals.copy()
        normals[::3] = np.nan
        cloud = PointCloud(cloud.points, normals)
    elif case == "beyond-gate":
        params = RegistrationParams(max_correspondence_distance=0.15)
    elif case == "iteration-cap":
        params = RegistrationParams(max_iterations=2)
    else:
        cloud = PointCloud(np.zeros((1, 3)), normals=[[0.0, 0.6, 0.8]])
    index = build_index(cloud)
    spaced = build_index(cloud, spacing)
    for k in (0, 10, 20):
        scan = scene.scans[k].cloud.points
        twist = np.concatenate([0.03 * rng.normal(size=3),
                                0.2 * rng.normal(size=3)])
        start = compose(exp_map(twist), scene.gt_trajectory[k])
        if case == "beyond-gate":  # and five rows far outside the room
            scan = np.vstack([scan, 10.0 * scan[:5]])
        elif case == "one-point-map":
            scan, start = scan[:40] * 0.1, Pose.identity()
        result = align(scan, spaced, start, params)
        assert_same_alignment(result, align_reference(scan, index, start,
                                                      params))
        # the scene shows what its name says
        gate = params.max_correspondence_distance
        (d0, i0), (d1, i1) = (
            [a[:, 0] for a in index.knn(pose.transform(scan), 1)]
            for pose in (start, result.pose))
        normal = np.isfinite(index.cloud.normals[:, 0])
        if case == "normals-lost":
            assert np.any(normal[i0] & ~normal[i1])
        elif case == "beyond-gate":
            assert np.any(d0 > gate) and len(result.correspondences) < len(scan)
        elif case == "iteration-cap":
            assert result.iterations == 2 and not result.converged
        else:
            assert len(result.correspondences) == len(scan)
