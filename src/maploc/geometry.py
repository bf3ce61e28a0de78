"""SE(3) primitives, point clouds, spatial indexing and normal estimation.

Conventions used everywhere in this package:
  * poses are world_from_body rigid transforms (rotation matrix + translation),
  * twists are 6-vectors ordered [rotation; translation],
  * perturbations are applied on the left: pose <- exp_map(xi) @ pose.

The SO(3)/SE(3) kernels broadcast over leading axes, so the factor graph
evaluates a whole stack of factors with one call of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from .errors import EmptyCloud

# Below this rotation angle the Rodrigues coefficients switch to their
# Taylor series to avoid 0/0.
SMALL_ANGLE = 1e-8

# Below this rotation angle the SE(3) Jacobian's coupling block switches to
# its Taylor series; its closed form loses ~eps/angle^2 to cancellation.
SE3_TAYLOR_ANGLE = 1e-2

# Angles within this margin of pi take the log's axis from scipy's Rotation.
PI_ANGLE_MARGIN = 1e-6

# Below this rotation angle the inverse SO(3) Jacobian's coefficient takes
# its Taylor series; its closed form is 0/0 at zero.
JL_INV_TAYLOR_ANGLE = 1e-4

# The SO(3)/SE(3) kernels below take arrays with any leading axes, each row
# independent: a (3,) or (6,) input is the unbatched case of the same code.

# [v]x = v @ _SKEW_GENERATORS, reshaped to 3x3
_SKEW_GENERATORS = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0],
                             [0, 0, 1, 0, 0, 0, -1, 0, 0],
                             [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)
_EYE3 = np.eye(3)


def matvec(matrices, vectors):
    """matrices (..., m, n) times vectors (..., n), row by row."""
    return (matrices @ vectors[..., None])[..., 0]


def first_bad_timestamp(ts):
    """Index of the first non-finite or non-increasing timestamp, or None."""
    bad = np.flatnonzero(~(np.isfinite(ts) & np.r_[True, np.diff(ts) > 0]))
    return int(bad[0]) if bad.size else None


def skew(v):
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_GENERATORS).reshape(v.shape[:-1] + (3, 3))


def _so3_series(v, angle2, a, b):
    """I + a [v]x + b [v]x^2 of each row, through [v]x^2 = v v^T - |v|^2 I."""
    a, b = a[..., None, None], b[..., None, None]
    return (a * skew(v) + b * (v[..., :, None] * v[..., None, :])
            + (1.0 - b * angle2[..., None, None]) * _EYE3)


def _angles(v, below):
    """|v|^2, the rows whose |v| is under the switch angle `below`, and |v|
    and |v|^2 with those rows set to 1, safe to divide by."""
    angle2 = np.einsum("...i,...i->...", v, v)
    angle = np.sqrt(angle2)
    small = angle < below
    return (angle2, small, np.where(small, 1.0, angle),
            np.where(small, 1.0, angle2))


def so3_exp(rotvec):
    """Rodrigues formula, series fallback below SMALL_ANGLE."""
    v = np.asarray(rotvec, dtype=float)
    angle2, small, t, t2 = _angles(v, SMALL_ANGLE)
    return _so3_series(v, angle2,
                         np.where(small, 1.0 - angle2 / 6.0, np.sin(t) / t),
                         np.where(small, 0.5 - angle2 / 24.0,
                                  (1.0 - np.cos(t)) / t2))


def so3_left_jacobian(rotvec):
    v = np.asarray(rotvec, dtype=float)
    angle2, small, t, t2 = _angles(v, SMALL_ANGLE)
    return _so3_series(v, angle2,
                         np.where(small, 0.5 - angle2 / 24.0,
                                  (1.0 - np.cos(t)) / t2),
                         np.where(small, 1.0 / 6.0 - angle2 / 120.0,
                                  (t - np.sin(t)) / (t2 * t)))


def so3_left_jacobian_inv(rotvec):
    v = np.asarray(rotvec, dtype=float)
    angle2, small, t, t2 = _angles(v, JL_INV_TAYLOR_ANGLE)
    half = 0.5 * t
    c = np.where(small, 1.0 / 12.0 + angle2 / 720.0,
                 (1.0 - half * np.cos(half) / np.sin(half)) / t2)
    return _so3_series(v, angle2, np.full_like(c, -0.5), c)


def so3_log(rotation):
    """Rotation vector of a rotation matrix.

    vee = 2 sin(angle) axis and tr - 1 = 2 cos(angle): atan2 keeps the
    angle's full precision at every angle, where acos loses it near 0 and
    pi. Within PI_ANGLE_MARGIN of pi, vee is too short to carry the axis,
    and scipy's Rotation takes it from the symmetric part, with its sign
    from vee. A row whose |vee| is below 1e-12 is a half turn to within
    rounding, the sign of its axis is arbitrary, and its leading nonzero
    component is made positive.
    """
    rot = np.asarray(rotation, dtype=float)
    vee = (rot - np.swapaxes(rot, -1, -2)).reshape(rot.shape[:-2] + (9,))
    vee = vee[..., [7, 2, 3]]
    vee_norm = np.sqrt(np.einsum("...i,...i->...", vee, vee))
    trace = np.trace(rot, axis1=-2, axis2=-1)
    angle = np.arctan2(vee_norm, trace - 1.0)
    # vee_norm is zero only at angle 0 and pi, whose rows take a branch
    scale = np.where(angle < SMALL_ANGLE, 0.5,
                     angle / np.where(vee_norm > 0.0, vee_norm, 1.0))
    out = scale[..., None] * vee
    near = angle > math.pi - PI_ANGLE_MARGIN
    if near.any():
        rotvec = Rotation.from_matrix(rot[near]).as_rotvec()
        lead = np.take_along_axis(
            rotvec, (np.abs(rotvec) > 1e-12).argmax(axis=1)[:, None], axis=1)
        half_turn = (vee_norm[near] < 1e-12)[:, None]
        out[near] = np.where(half_turn & (lead < 0.0), -rotvec, rotvec)
    return out


def se3_exp(twist):
    """exp_map of each [rot; trans] twist, as (rotations, translations)."""
    twist = np.asarray(twist, dtype=float)
    return (so3_exp(twist[..., :3]),
            matvec(so3_left_jacobian(twist[..., :3]), twist[..., 3:]))


def se3_log(rotation, translation):
    """log_map of each pose given as rotations and translations."""
    rotvec = so3_log(rotation)
    return np.concatenate([rotvec, matvec(so3_left_jacobian_inv(rotvec),
                                          translation)], axis=-1)


def se3_adjoint(rotation, translation):
    """Adjoint of each pose in [rot; trans] twist ordering."""
    rotation = np.asarray(rotation, dtype=float)
    ad = np.zeros(rotation.shape[:-2] + (6, 6))
    ad[..., :3, :3] = ad[..., 3:, 3:] = rotation
    ad[..., 3:, :3] = skew(translation) @ rotation
    return ad


def se3_left_jacobian_inv(twist):
    """Inverse left Jacobian of SE(3), [[J^-1, 0], [-J^-1 Q J^-1, J^-1]].

    J is the SO(3) left Jacobian of the rotation part w and Q the coupling
    block of Barfoot & Furgale (2014); below SE3_TAYLOR_ANGLE Q's
    coefficients take their Taylor series, whose closed forms cancel.
    With s = w.p for the translation part p, the skew identities
    [w][p][w] = -s [w] and [w]^2 = w w^T - |w|^2 I reduce Q to
    (1/2 - c2 |w|^2) [p] + (2 c2 - c1) s [w] + c1 (p w^T + w p^T)
    - 2 c3 s w w^T + 2 s (c3 |w|^2 - c1) I.
    """
    twist = np.asarray(twist, dtype=float)
    w, p = twist[..., :3], twist[..., 3:]
    angle2, small, t, t2 = _angles(w, SE3_TAYLOR_ANGLE)
    sin, cos = np.sin(t), np.cos(t)
    c1 = np.where(small, 1 / 6 - angle2 / 120, (t - sin) / (t2 * t))
    c2 = np.where(small, 1 / 24 - angle2 / 720,
                  (t2 + 2.0 * cos - 2.0) / (2.0 * t2 * t2))
    c3 = np.where(small, 1 / 120 - angle2 / 2520,
                  (2.0 * t - 3.0 * sin + t * cos) / (2.0 * t2 * t2 * t))
    s = np.einsum("...i,...i->...", w, p)
    k = (2.0 * c2 - c1) * s
    q = skew((0.5 - c2 * angle2)[..., None] * p + k[..., None] * w)
    wp = w[..., :, None] * p[..., None, :]
    q += c1[..., None, None] * (wp + np.swapaxes(wp, -1, -2)) \
        - (2.0 * c3 * s)[..., None, None] * (w[..., :, None] * w[..., None, :]) \
        + (2.0 * s * (c3 * angle2 - c1))[..., None, None] * _EYE3
    j_inv = so3_left_jacobian_inv(w)
    out = np.zeros(twist.shape[:-1] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = j_inv
    out[..., 3:, :3] = -j_inv @ q @ j_inv
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (3,3) + translation (3,)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = np.ascontiguousarray(self.rotation, dtype=float)
        translation = np.ascontiguousarray(self.translation, dtype=float)
        if rotation.shape != (3, 3) or translation.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector translation")
        rotation.flags.writeable = False
        translation.flags.writeable = False
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @staticmethod
    def identity():
        return Pose(np.eye(3), np.zeros(3))

    def matrix(self):
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def transform(self, points):
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation


def compose(a: Pose, b: Pose) -> Pose:
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(a: Pose) -> Pose:
    rt = a.rotation.T
    return Pose(rt, -rt @ a.translation)


def between(a: Pose, b: Pose) -> Pose:
    return compose(inverse(a), b)


def exp_map(twist) -> Pose:
    """SE(3) exponential of a [rot; trans] twist."""
    return Pose(*se3_exp(twist))


def log_map(pose: Pose):
    """Inverse of exp_map; returns a 6-vector [rot; trans]."""
    return se3_log(pose.rotation, pose.translation)


@dataclass(frozen=True)
class PointCloud:
    """Points (N,3) with optional per-point unit normals.

    Normals may contain NaN rows for points whose neighborhood failed the
    flatness gate; consumers treat those as "no normal". Both are cast to
    float64 once, here, a signalling NaN to a quiet one.
    """

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        with np.errstate(invalid="ignore"):  # a signalling NaN casts quietly
            points = np.ascontiguousarray(self.points, dtype=float)
            normals = None if self.normals is None \
                else np.ascontiguousarray(self.normals, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must be (N, 3)")
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite point coordinates")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        if normals is not None:
            if normals.shape != points.shape:
                raise ValueError("normals must match points")
            normals.flags.writeable = False
            object.__setattr__(self, "normals", normals)

    def __len__(self):
        return self.points.shape[0]


class SpatialIndex:
    """k-NN / radius index over a fixed cloud.

    Backed by a balanced kd-tree; queries resolve exact distance ties by
    lowest point index so results match a brute-force linear scan. spacing,
    the resolution of the indexed map (its voxel size), bounds the first
    pass of a knn query; None leaves every query a single pass.
    """

    def __init__(self, cloud: PointCloud, spacing=None):
        if len(cloud) == 0:
            raise EmptyCloud("cannot index an empty cloud")
        if spacing is not None and not spacing > 0:
            raise ValueError("spacing must be > 0")
        self.cloud = cloud
        self.size = len(cloud)
        self.spacing = np.inf if spacing is None else float(spacing)
        self._tree = cKDTree(cloud.points, balanced_tree=True)

    def knn(self, queries, k, workers=1, guard=False, bound=np.inf):
        """Indices (and distances) of the k nearest points per query row.

        Returns (distances (M,k), indices (M,k)), rows sorted by
        (distance, index). k is clamped to the cloud size. With guard=True
        it also returns beyond (M,), a distance that every point not among
        a row's k reaches: its (k+1)-th smallest distance, at most the
        radius the row was last searched within (inf when the cloud has no
        more than k points). Only points nearer than bound are found; a row
        with fewer pads with distance inf and index size, and a padded entry
        is never re-resolved as a tie.

        The tree is first searched within min(bound, spacing); only the
        rows whose k-th point lies outside that are searched again within
        bound. The tree returns only points strictly inside its radius, so
        the answers are those of one search within bound.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        k = min(int(k), self.size)
        if k <= 0:
            raise ValueError("k must be >= 1")
        # query one extra neighbor to detect ties at the k-th boundary
        kq = min(k + 1, self.size)
        first = min(bound, self.spacing)
        dist, idx = self._tree.query(queries, k=kq, workers=workers,
                                     distance_upper_bound=first)
        dist = dist.reshape(len(queries), kq)
        idx = idx.reshape(len(queries), kq)
        # the radius each row was last searched within
        searched = np.full(len(queries), first)
        if first < bound:
            again = np.flatnonzero(idx[:, k - 1] == self.size)
            d, i = self._tree.query(queries[again], k=kq, workers=workers,
                                    distance_upper_bound=bound)
            dist[again] = d.reshape(len(again), kq)
            idx[again] = i.reshape(len(again), kq)
            searched[again] = bound
        # the tree sorts each row by distance; order equal distances by index
        tied = np.flatnonzero((dist[:, 1:] == dist[:, :-1]).any(axis=1))
        if tied.size:
            order = np.lexsort((idx[tied], dist[tied]), axis=1)
            dist[tied] = np.take_along_axis(dist[tied], order, axis=1)
            idx[tied] = np.take_along_axis(idx[tied], order, axis=1)
        beyond = np.full(len(queries), np.inf)
        if kq > k:
            beyond = np.minimum(dist[:, k], searched)
            boundary = (dist[:, k] <= dist[:, k - 1]) & (idx[:, k - 1] < self.size)
            for row in np.nonzero(boundary)[0]:
                # exact re-resolution: all candidates within the k-th distance
                cand = self._tree.query_ball_point(queries[row], dist[row, k - 1] * (1.0 + 1e-12))
                cand = np.asarray(sorted(cand), dtype=int)
                d = np.linalg.norm(self.cloud.points[cand] - queries[row], axis=1)
                sel = np.lexsort((cand, d))[:k]
                dist[row, :k] = d[sel]
                idx[row, :k] = cand[sel]
            dist = dist[:, :k]
            idx = idx[:, :k]
        return (dist, idx, beyond) if guard else (dist, idx)

    def nearest_distance(self, queries, within, workers=1):
        """Each query row's distance to its nearest point where that is at
        most within; elsewhere inf or a value past within. One search, run
        just past within since the tree keeps only points strictly inside,
        and no tie-break: equidistant points give one distance."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        return self._tree.query(queries, k=1, workers=workers,
                                distance_upper_bound=within * (1.0 + 1e-9))[0]

    def radius(self, point, r):
        """Indices within distance r of a single point, ascending index."""
        idx = self._tree.query_ball_point(np.asarray(point, dtype=float), float(r))
        return np.asarray(sorted(idx), dtype=int)


def build_index(cloud: PointCloud, spacing=None) -> SpatialIndex:
    return SpatialIndex(cloud, spacing)


# Neighborhoods flatter than this ratio of smallest to middle covariance
# eigenvalue count as planar; others get a null normal.
FLATNESS_RATIO = 0.1


def estimate_normals(cloud: PointCloud, k=10) -> PointCloud:
    """Per-point plane normals from k-NN covariance eigenvectors.

    The normal is the eigenvector of the smallest eigenvalue, sign-flipped so
    its largest-magnitude component is positive. Points whose neighborhood is
    degenerate (collinear) or fails the flatness gate
    (lambda_min / lambda_mid >= FLATNESS_RATIO) get NaN normals.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if len(cloud) < k:
        raise ValueError(f"cloud has {len(cloud)} points, need >= k = {k}")
    index = SpatialIndex(cloud)
    _, neighbors = index.knn(cloud.points, k)
    pts = cloud.points[neighbors]  # (N, k, 3)
    centered = pts - pts.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    normals = eigvecs[:, :, 0]
    # collinear neighborhoods: two near-zero eigenvalues relative to the largest
    scale = np.maximum(eigvals[:, 2], 1e-300)
    collinear = eigvals[:, 1] <= 1e-12 * scale
    flat = eigvals[:, 0] < FLATNESS_RATIO * np.maximum(eigvals[:, 1], 1e-300)
    valid = flat & ~collinear
    # sign convention: largest-magnitude component positive
    lead = np.take_along_axis(
        normals, np.abs(normals).argmax(axis=1)[:, None], axis=1)[:, 0]
    normals = normals * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    normals = np.where(valid[:, None], normals, np.nan)
    return PointCloud(cloud.points, normals=normals)
