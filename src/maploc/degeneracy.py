"""Two-stage degeneracy detection for scan-to-map registration.

Stage 1 scores the disagreement between the measured registration
spectrum and a reference spectrum of the local map geometry; a score above
a fixed threshold rejects the frame outright, unless the spectrum is
rank-deficient and stage 2 masks an axis. Stage 2 counts the translational
constraints each correspondence contributes per world axis and flags the
starved axis when the count imbalance crosses a ratio threshold, so the
map factor's weight can be zeroed along that axis instead of dropping the
whole factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric
from .registration import AlignResult, Correspondences

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class DegeneracyParams:
    d_e_threshold: float = 1e-6  # stage-1 reject above this
    s_thres: float = 3.0         # stage-2 count-ratio threshold
    min_correspondences: int = 100

    def validate(self):
        if not self.d_e_threshold > 0:
            raise ValueError("d_e_threshold must be positive")
        if not self.s_thres > 1:
            raise ValueError("s_thres must be > 1")
        if self.min_correspondences < 1:
            raise ValueError("min_correspondences must be >= 1")


@dataclass(frozen=True)
class Spectrum:
    """Eigen-decomposition of a 6x6 registration Hessian.

    Eigenvalues ascending; eigenvectors are the matching columns, each
    sign-fixed so its largest-magnitude component is positive.
    """

    eigenvalues: np.ndarray   # (6,)
    eigenvectors: np.ndarray  # (6, 6), column i pairs with eigenvalue i

    def __post_init__(self):
        vals = np.ascontiguousarray(self.eigenvalues, dtype=float)
        vecs = np.ascontiguousarray(self.eigenvectors, dtype=float)
        if vals.shape != (6,) or vecs.shape != (6, 6):
            raise ValueError("spectrum must hold 6 eigenpairs")
        vals.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)


@dataclass(frozen=True)
class DegeneracyReport:
    d_e: float
    axis_counts: tuple      # (N_x, N_y, N_z)
    ratios: tuple           # (s_x, s_y, s_z), min is 1 by construction
    degenerate_axes: tuple  # axis indices, ascending
    stage1_reject: bool     # the map factor is dropped
    num_correspondences: int

    def as_dict(self):
        return {
            "d_e": float(self.d_e),
            "axis_counts": [int(c) for c in self.axis_counts],
            "ratios": [float(r) for r in self.ratios],
            "degenerate_axes": [int(a) for a in self.degenerate_axes],
            "stage1_reject": bool(self.stage1_reject),
            "num_correspondences": int(self.num_correspondences),
        }


def spectrum(hessian) -> Spectrum:
    """Eigen-decomposition with deterministic ordering and sign convention."""
    hessian = np.asarray(hessian, dtype=float)
    if hessian.shape != (6, 6):
        raise ValueError("hessian must be 6x6")
    if np.abs(hessian - hessian.T).max() > SYMMETRY_TOL:
        raise NotSymmetric("hessian is not symmetric within 1e-9")
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (hessian + hessian.T))
    lead = np.take_along_axis(eigenvectors,
                              np.abs(eigenvectors).argmax(axis=0)[None, :], axis=0)[0]
    eigenvectors = eigenvectors * np.where(lead < 0.0, -1.0, 1.0)[None, :]
    return Spectrum(eigenvalues, eigenvectors)


def spectrum_metric(measurement: Spectrum, reference: Spectrum) -> float:
    """Eigenvalue-weighted misalignment between index-matched eigenpairs.

    d_e = sum_i (1 - |cos(e_i, v_i)|)^2 / lambda_i over the measurement
    eigenvalues lambda_i. Any non-positive measurement eigenvalue yields the
    +inf sentinel (stage-1 reject).
    """
    lam = measurement.eigenvalues
    if np.any(lam <= 0.0):
        return math.inf
    total = 0.0
    for i in range(6):
        e = measurement.eigenvectors[:, i]
        v = reference.eigenvectors[:, i]
        ee = float(e @ e)
        vv = float(v @ v)
        ev = float(e @ v)
        # cos via the squared form so identical vectors give exactly 1.0
        cos = math.sqrt(min((ev * ev) / (ee * vv), 1.0))
        total += (1.0 - cos) ** 2 / lam[i]
    return total


def classify_constraints(corrs: Correspondences):
    """Per-axis translational constraint counts.

    Each correspondence counts toward the axis where its target normal has
    the largest magnitude (the dominant row of its translational Jacobian);
    ties resolve x before y before z.
    """
    axes = np.abs(corrs.target_normals).argmax(axis=1)
    counts = np.bincount(axes, minlength=3)
    return tuple(int(c) for c in counts)


def constraint_ratios(axis_counts):
    """s_i = N_i / min(N); zero-count axes are their own minimum (ratio 1)."""
    counts = np.asarray(axis_counts, dtype=float)
    n_min = counts.min()
    if n_min == 0.0:
        return tuple(1.0 if c == 0.0 else math.inf for c in counts)
    return tuple(float(c / n_min) for c in counts)


def detect(align_result: AlignResult, reference: Spectrum,
           params: DegeneracyParams = DegeneracyParams()) -> DegeneracyReport:
    """Run both stages on a converged registration.

    Stage 1 rejects a frame with fewer than min_correspondences or a d_e
    above d_e_threshold. Stage 2 (counts, ratios, flagged axes) is always
    computed so reports can carry it; when stage1_reject is set the caller
    drops the map factor and the axis flags are advisory only. An exactly
    rank-deficient scan (a perfect corridor) puts a zero eigenvalue in the
    spectrum and d_e takes its +inf sentinel; when stage 2 flags an axis,
    the mask removes that null direction and the factor is kept on the
    constrained axes.
    """
    params.validate()
    corrs = align_result.correspondences
    measurement = spectrum(align_result.hessian)
    d_e = spectrum_metric(measurement, reference)
    counts = classify_constraints(corrs)
    ratios = constraint_ratios(counts)
    max_ratio = max(ratios)
    degenerate = ()
    if max_ratio >= params.s_thres:
        n_min = min(counts)
        degenerate = tuple(i for i in range(3) if counts[i] == n_min)
    stage1_reject = (len(corrs) < params.min_correspondences
                     or (d_e > params.d_e_threshold
                         and not (math.isinf(d_e) and degenerate)))
    return DegeneracyReport(d_e, counts, ratios, degenerate, stage1_reject,
                            len(corrs))
