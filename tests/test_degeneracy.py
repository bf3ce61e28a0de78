import math

import numpy as np
import pytest

from maploc.degeneracy import (
    DegeneracyParams,
    Spectrum,
    classify_constraints,
    constraint_ratios,
    detect,
    spectrum,
    spectrum_metric,
)
from maploc.errors import NotSymmetric
from maploc.geometry import PointCloud, Pose, build_index, estimate_normals
from maploc.registration import (
    AlignResult,
    Correspondences,
    find_correspondences,
    reference_hessian,
)

from oracles import unit_hessian


def random_spectrum(rng, lam_range=(0.1, 10.0)):
    lam = np.sort(rng.uniform(*lam_range, 6))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    return spectrum(q @ np.diag(lam) @ q.T)


def make_corrs(normals, points=None):
    normals = np.asarray(normals, dtype=float)
    n = len(normals)
    if points is None:
        points = np.random.default_rng(0).uniform(-3, 3, (n, 3))
    return Correspondences(points, points, normals, np.zeros(n))


def corrs_align_result(corrs):
    hessian = unit_hessian(corrs, Pose.identity())
    return AlignResult(Pose.identity(), hessian, 0.0, corrs, 1, True)


class TestSpectrum:
    def test_identity_hessian(self):
        s = spectrum(np.eye(6))
        np.testing.assert_array_equal(s.eigenvalues, np.ones(6))
        np.testing.assert_array_equal(s.eigenvectors, np.eye(6))

    def test_diagonal_ascending(self):
        s = spectrum(np.diag([6.0, 5, 4, 3, 2, 1]))
        np.testing.assert_array_equal(s.eigenvalues, [1, 2, 3, 4, 5, 6])
        expected = np.eye(6)[:, ::-1]
        np.testing.assert_array_equal(s.eigenvectors, expected)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.normal(size=(6, 6))
            h = a @ a.T
            s = spectrum(h)
            assert np.all(np.diff(s.eigenvalues) >= 0)
            recon = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
            np.testing.assert_allclose(recon, h, atol=1e-9 * max(1.0, np.abs(h).max()))
            gram = s.eigenvectors.T @ s.eigenvectors
            np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_sign_convention(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            s = random_spectrum(rng)
            lead = np.take_along_axis(
                s.eigenvectors, np.abs(s.eigenvectors).argmax(axis=0)[None, :], axis=0)[0]
            assert np.all(lead > 0)

    def test_not_symmetric_raises(self):
        h = np.eye(6)
        h[0, 1] = 1e-6
        with pytest.raises(NotSymmetric):
            spectrum(h)


class TestSpectrumMetric:
    def test_self_metric_exactly_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = random_spectrum(rng)
            assert spectrum_metric(s, s) == 0.0

    def test_orthogonal_unit_case_exactly_six(self):
        eye = np.eye(6)
        measurement = Spectrum(np.ones(6), eye)
        shifted = np.roll(eye, 1, axis=1)
        reference = Spectrum(np.ones(6), shifted)
        assert spectrum_metric(measurement, reference) == 6.0

    def test_eigenvalue_scaling_law(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            meas = random_spectrum(rng)
            ref = random_spectrum(rng)
            c = rng.uniform(0.1, 10.0)
            base = spectrum_metric(meas, ref)
            scaled = Spectrum(meas.eigenvalues * c, meas.eigenvectors)
            got = spectrum_metric(scaled, ref)
            assert abs(got - base / c) <= 1e-9 * max(base / c, 1e-30)

    def test_nonpositive_eigenvalue_sentinel(self):
        eye = np.eye(6)
        meas = Spectrum(np.array([0.0, 1, 1, 1, 1, 1]), eye)
        ref = Spectrum(np.ones(6), eye)
        assert spectrum_metric(meas, ref) == math.inf
        meas = Spectrum(np.array([-1e-12, 1, 1, 1, 1, 1]), eye)
        assert spectrum_metric(meas, ref) == math.inf

    def test_permutation_invariance(self):
        rng = np.random.default_rng(33)
        meas = random_spectrum(rng)
        ref = random_spectrum(rng)
        base = spectrum_metric(meas, ref)
        perm = rng.permutation(6)
        meas_p = Spectrum(meas.eigenvalues[perm], meas.eigenvectors[:, perm])
        ref_p = Spectrum(ref.eigenvalues[perm], ref.eigenvectors[:, perm])
        assert abs(spectrum_metric(meas_p, ref_p) - base) < 1e-12 * max(base, 1.0)

    def test_plane_vs_room_exceeds_self_metric(self):
        rng = np.random.default_rng(34)

        def noisy_plane(n):
            pts = np.column_stack([rng.uniform(0, 8, n), rng.uniform(0, 8, n),
                                   rng.normal(scale=1e-3, size=n)])
            return estimate_normals(PointCloud(pts), k=10)

        def room(n):
            per = n // 3
            a = np.column_stack([rng.uniform(0, 8, per), rng.uniform(0, 8, per),
                                 rng.normal(scale=1e-3, size=per)])
            b = np.column_stack([rng.normal(scale=1e-3, size=per),
                                 rng.uniform(0, 8, per), rng.uniform(0, 3, per)])
            c = np.column_stack([rng.uniform(0, 8, per),
                                 rng.normal(scale=1e-3, size=per), rng.uniform(0, 3, per)])
            return estimate_normals(PointCloud(np.vstack([a, b, c])), k=10)

        def cloud_spectrum(cloud):
            valid = np.isfinite(cloud.normals[:, 0])
            corrs = Correspondences(cloud.points[valid], cloud.points[valid],
                                    cloud.normals[valid], np.zeros(valid.sum()))
            return spectrum(unit_hessian(corrs, Pose.identity()))

        reference = cloud_spectrum(room(900))
        room_self = spectrum_metric(cloud_spectrum(room(900)), reference)
        plane = spectrum_metric(cloud_spectrum(noisy_plane(900)), reference)
        assert plane >= 10.0 * room_self


class TestClassify:
    def test_dominant_axis_examples(self):
        corrs = make_corrs([[0.0, 0, 1], [0.6, 0.8, 0], [1.0, 0, 0]])
        assert classify_constraints(corrs) == (1, 1, 1)
        corrs = make_corrs([[0.0, 0, 1]])
        assert classify_constraints(corrs) == (0, 0, 1)
        corrs = make_corrs([[0.6, 0.8, 0.0]])
        assert classify_constraints(corrs) == (0, 1, 0)

    def test_tie_breaks_toward_x(self):
        r = math.sqrt(0.5)
        corrs = make_corrs([[r, r, 0.0]])
        assert classify_constraints(corrs) == (1, 0, 0)
        corrs = make_corrs([[0.0, r, r]])
        assert classify_constraints(corrs) == (0, 1, 0)

    def test_box_counts_exact(self):
        rng = np.random.default_rng(41)
        normals = np.vstack([np.tile([1.0, 0, 0], (120, 1)),
                             np.tile([0.0, 1, 0], (80, 1)),
                             np.tile([0.0, 0, 1], (200, 1))])
        corrs = make_corrs(normals, rng.uniform(0, 5, (400, 3)))
        assert classify_constraints(corrs) == (120, 80, 200)

    def test_ratios_min_is_one(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            counts = tuple(int(c) for c in rng.integers(1, 500, 3))
            ratios = constraint_ratios(counts)
            assert min(ratios) == 1.0

    def test_ratios_zero_count_axis(self):
        ratios = constraint_ratios((0, 50, 80))
        assert ratios[0] == 1.0
        assert ratios[1] == math.inf and ratios[2] == math.inf
        assert min(ratios) == 1.0


class TestDetect:
    def corridor_corrs(self, rng, n_side=400, n_floor=400, n_end=0):
        normals = [np.tile([0.0, 1, 0], (n_side, 1)),
                   np.tile([0.0, 0, 1], (n_floor, 1))]
        points = [np.column_stack([rng.uniform(0, 30, n_side),
                                   np.zeros(n_side), rng.uniform(0, 3, n_side)]),
                  np.column_stack([rng.uniform(0, 30, n_floor),
                                   rng.uniform(0, 2, n_floor), np.zeros(n_floor)])]
        if n_end:
            normals.append(np.tile([1.0, 0, 0], (n_end, 1)))
            points.append(np.column_stack([np.full(n_end, 30.0),
                                           rng.uniform(0, 2, n_end),
                                           rng.uniform(0, 3, n_end)]))
        return make_corrs(np.vstack(normals), np.vstack(points))

    def test_corridor_flags_x(self, rng):
        corrs = self.corridor_corrs(rng, n_end=20)
        result = corrs_align_result(corrs)
        reference = spectrum(reference_hessian(corrs))
        report = detect(result, reference, DegeneracyParams(d_e_threshold=1e12))
        assert report.degenerate_axes == (0,)
        assert not report.stage1_reject

    def test_corridor_without_end_walls_flags_x(self, rng):
        corrs = self.corridor_corrs(rng, n_end=0)
        result = corrs_align_result(corrs)
        reference = spectrum(reference_hessian(corrs))
        report = detect(result, reference, DegeneracyParams(d_e_threshold=1e12))
        assert report.degenerate_axes == (0,)
        assert report.ratios[0] == 1.0
        assert report.ratios[1] == math.inf and report.ratios[2] == math.inf

    def test_balanced_scene_no_flags(self, rng):
        normals = np.vstack([np.tile([1.0, 0, 0], (150, 1)),
                             np.tile([0.0, 1, 0], (130, 1)),
                             np.tile([0.0, 0, 1], (170, 1))])
        corrs = make_corrs(normals, rng.uniform(0, 6, (450, 3)))
        result = corrs_align_result(corrs)
        reference = spectrum(reference_hessian(corrs))
        report = detect(result, reference, DegeneracyParams(d_e_threshold=1e12))
        assert report.degenerate_axes == ()
        assert not report.stage1_reject

    def test_min_correspondence_gate(self, rng):
        normals = np.vstack([np.tile([1.0, 0, 0], (20, 1)),
                             np.tile([0.0, 1, 0], (20, 1)),
                             np.tile([0.0, 0, 1], (20, 1))])
        corrs = make_corrs(normals, rng.uniform(0, 6, (60, 3)))
        result = corrs_align_result(corrs)
        reference = spectrum(reference_hessian(corrs))
        report = detect(result, reference,
                        DegeneracyParams(d_e_threshold=1e12, min_correspondences=100))
        assert report.stage1_reject
        assert report.num_correspondences == 60

    def test_d_e_threshold_rejects(self, rng):
        corrs = self.corridor_corrs(rng, n_end=20)
        result = corrs_align_result(corrs)
        rotated = Spectrum(np.ones(6), np.roll(np.eye(6), 1, axis=1))
        report = detect(result, rotated, DegeneracyParams(d_e_threshold=1e-12))
        assert report.stage1_reject
        # stage-2 classification still present
        assert report.degenerate_axes == (0,)

    def test_rank_deficient_kept_only_when_masked(self, rng):
        # x translation unconstrained: a zero eigenvalue puts d_e at +inf
        singular = np.diag([1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        params = DegeneracyParams(d_e_threshold=1e12)
        corridor = self.corridor_corrs(rng, n_end=0)
        report = detect(AlignResult(Pose.identity(), singular, 0.0, corridor,
                                    1, True), random_spectrum(rng), params)
        assert report.d_e == math.inf
        assert report.degenerate_axes == (0,)
        assert not report.stage1_reject

        balanced = make_corrs(np.vstack([np.tile([1.0, 0, 0], (150, 1)),
                                         np.tile([0.0, 1, 0], (130, 1)),
                                         np.tile([0.0, 0, 1], (170, 1))]))
        report = detect(AlignResult(Pose.identity(), singular, 0.0, balanced,
                                    1, True), random_spectrum(rng), params)
        assert report.d_e == math.inf
        assert report.degenerate_axes == ()
        assert report.stage1_reject

    def test_constraint_removal_monotonicity(self, rng):
        with_ends = self.corridor_corrs(rng, n_end=30)
        counts_with = classify_constraints(with_ends)
        ratios_with = constraint_ratios(counts_with)
        without = self.corridor_corrs(rng, n_end=0)
        ratios_without = constraint_ratios(classify_constraints(without))
        assert ratios_without[1] > ratios_with[1]
        assert ratios_without[2] > ratios_with[2]

    def test_detect_via_real_registration(self, rng):
        # corridor built as an actual cloud + self registration
        n = 600
        side = np.column_stack([rng.uniform(0, 30, n), np.zeros(n),
                                rng.uniform(0, 3, n)])
        side2 = np.column_stack([rng.uniform(0, 30, n), np.full(n, 2.0),
                                 rng.uniform(0, 3, n)])
        floor = np.column_stack([rng.uniform(0, 30, n), rng.uniform(0, 2, n),
                                 np.zeros(n)])
        normals = np.vstack([np.tile([0.0, 1, 0], (n, 1)),
                             np.tile([0.0, 1, 0], (n, 1)),
                             np.tile([0.0, 0, 1], (n, 1))])
        cloud = PointCloud(np.vstack([side, side2, floor]), normals=normals)
        index = build_index(cloud)
        corrs = find_correspondences(cloud.points, index, Pose.identity(), 1.0)
        result = AlignResult(Pose.identity(), unit_hessian(corrs, Pose.identity()),
                             0.0, corrs, 1, True)
        reference = spectrum(reference_hessian(corrs))
        report = detect(result, reference, DegeneracyParams(d_e_threshold=1e12))
        assert report.degenerate_axes == (0,)
