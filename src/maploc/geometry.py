"""SE(3) primitives, point clouds, spatial indexing and normal estimation.

Conventions used everywhere in this package:
  * poses are world_from_body rigid transforms (rotation matrix + translation),
  * twists are 6-vectors ordered [rotation; translation],
  * perturbations are applied on the left: pose <- exp_map(xi) @ pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud

# Below this rotation angle the Rodrigues coefficients switch to their
# Taylor series to avoid 0/0.
SMALL_ANGLE = 1e-8

# Below this rotation angle the SE(3) Jacobian's coupling block switches to
# its Taylor series; its closed form loses ~eps/angle^2 to cancellation.
SE3_TAYLOR_ANGLE = 1e-2

# Angles within this margin of pi take the axis-extraction branch of the log.
PI_ANGLE_MARGIN = 1e-6


def skew(v):
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _so3_series(x, y, z, a, b):
    """I + a [v]x + b [v]x^2 of v = (x, y, z), elementwise through
    [v]x^2 = v v^T - |v|^2 I."""
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    ax, ay, az = a * x, a * y, a * z
    return np.array([[1.0 - b * (y * y + z * z), bxy - az, bxz + ay],
                     [bxy + az, 1.0 - b * (x * x + z * z), byz - ax],
                     [bxz - ay, byz + ax, 1.0 - b * (x * x + y * y)]])


def so3_exp(rotvec):
    """Rodrigues formula, series fallback below SMALL_ANGLE."""
    x, y, z = np.asarray(rotvec, dtype=float).tolist()
    angle2 = x * x + y * y + z * z
    angle = math.sqrt(angle2)
    if angle < SMALL_ANGLE:
        a = 1.0 - angle2 / 6.0
        b = 0.5 - angle2 / 24.0
    else:
        a = math.sin(angle) / angle
        b = (1.0 - math.cos(angle)) / angle2
    return _so3_series(x, y, z, a, b)


def so3_log(rotation):
    """Rotation vector of a rotation matrix.

    The angle-pi branch extracts the axis from the symmetric part; the sign
    is fixed so the leading nonzero axis component is positive.
    """
    rotation = np.asarray(rotation, dtype=float)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation.tolist()
    # vee = 2 sin(angle) axis and tr - 1 = 2 cos(angle): atan2 keeps the
    # angle's full precision at every angle, where acos loses it near 0 and pi
    vx, vy, vz = r21 - r12, r02 - r20, r10 - r01
    vee_norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    trace = r00 + r11 + r22
    angle = math.atan2(vee_norm, trace - 1.0)
    if angle < SMALL_ANGLE:
        return np.array([0.5 * vx, 0.5 * vy, 0.5 * vz])  # first order
    if angle > math.pi - PI_ANGLE_MARGIN:
        cos_angle = max(-1.0, min(1.0, (trace - 1.0) / 2.0))
        # R = I + 2 sin^2(.) [a]x^2 near pi: diagonal gives |axis| components
        diag = np.clip((np.diag(rotation) - cos_angle) / (1.0 - cos_angle), 0.0, None)
        axis = np.sqrt(diag)
        # fix relative signs from the off-diagonal products via the largest component
        k = int(np.argmax(axis))
        if axis[k] > 0.0:
            for i in range(3):
                if i != k and rotation[k, i] + rotation[i, k] < 0.0:
                    axis[i] = -axis[i]
        nonzero = np.nonzero(np.abs(axis) > 1e-12)[0]
        if nonzero.size and axis[nonzero[0]] < 0.0:
            axis = -axis
        norm = np.linalg.norm(axis)
        axis = axis / norm if norm > 0.0 else np.array([1.0, 0.0, 0.0])
        return axis * angle
    scale = angle / vee_norm
    return np.array([scale * vx, scale * vy, scale * vz])


def so3_left_jacobian(rotvec):
    x, y, z = np.asarray(rotvec, dtype=float).tolist()
    angle2 = x * x + y * y + z * z
    angle = math.sqrt(angle2)
    if angle < SMALL_ANGLE:
        b, c = 0.5 - angle2 / 24.0, 1.0 / 6.0 - angle2 / 120.0
    else:
        b = (1.0 - math.cos(angle)) / angle2
        c = (angle - math.sin(angle)) / (angle2 * angle)
    return _so3_series(x, y, z, b, c)


def so3_left_jacobian_inv(rotvec):
    x, y, z = np.asarray(rotvec, dtype=float).tolist()
    angle2 = x * x + y * y + z * z
    angle = math.sqrt(angle2)
    if angle < 1e-4:
        c = 1.0 / 12.0 + angle2 / 720.0
    else:
        # (1 - (angle/2) * cot(angle/2)) / angle^2, smooth on (0, pi]
        half = 0.5 * angle
        c = (1.0 - half * math.cos(half) / math.sin(half)) / angle2
    return _so3_series(x, y, z, -0.5, c)


def so3_right_jacobian(rotvec):
    return so3_left_jacobian(-np.asarray(rotvec, dtype=float))


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
    twist = np.asarray(twist, dtype=float)
    rotvec = twist[:3]
    rho = twist[3:]
    rotation = so3_exp(rotvec)
    v = so3_left_jacobian(rotvec)
    return Pose(rotation, v @ rho)


def log_map(pose: Pose):
    """Inverse of exp_map; returns a 6-vector [rot; trans]."""
    rotvec = so3_log(pose.rotation)
    rho = so3_left_jacobian_inv(rotvec) @ pose.translation
    return np.concatenate([rotvec, rho])


def se3_adjoint(pose: Pose):
    """Adjoint of a pose in [rot; trans] twist ordering."""
    ad = np.zeros((6, 6))
    ad[:3, :3] = pose.rotation
    ad[3:, :3] = skew(pose.translation) @ pose.rotation
    ad[3:, 3:] = pose.rotation
    return ad


def se3_left_jacobian_inv(twist):
    """Inverse left Jacobian of SE(3), [[J^-1, 0], [-J^-1 Q J^-1, J^-1]].

    J is the SO(3) left Jacobian of the rotation part w and Q the coupling
    block of Barfoot & Furgale (2014); below SE3_TAYLOR_ANGLE Q's
    coefficients take their Taylor series, whose closed forms cancel.
    With s = w.p for the translation part p, the skew identities
    [w][p][w] = -s [w] and [w]^2 = w w^T - |w|^2 I reduce Q to
    (1/2 - c2 |w|^2) [p] + (2 c2 - c1) s [w] + c1 (p w^T + w p^T)
    - 2 c3 s w w^T + 2 s (c3 |w|^2 - c1) I, built here elementwise.
    """
    x, y, z, u, v, w = np.asarray(twist, dtype=float).tolist()
    angle2 = x * x + y * y + z * z
    angle = math.sqrt(angle2)
    if angle < SE3_TAYLOR_ANGLE:
        c1 = 1 / 6 - angle2 / 120
        c2 = 1 / 24 - angle2 / 720
        c3 = 1 / 120 - angle2 / 2520
    else:
        sin, cos = math.sin(angle), math.cos(angle)
        angle4 = angle2 * angle2
        c1 = (angle - sin) / (angle2 * angle)
        c2 = (angle2 + 2.0 * cos - 2.0) / (2.0 * angle4)
        c3 = (2.0 * angle - 3.0 * sin + angle * cos) / (2.0 * angle4 * angle)
    s = x * u + y * v + z * w
    p, k = 0.5 - c2 * angle2, (2.0 * c2 - c1) * s
    m, d = -2.0 * c3 * s, 2.0 * s * (c3 * angle2 - c1)
    ax, ay, az = p * u + k * x, p * v + k * y, p * w + k * z
    qxy = c1 * (x * v + y * u) + m * x * y
    qxz = c1 * (x * w + z * u) + m * x * z
    qyz = c1 * (y * w + z * v) + m * y * z
    q = np.array([[2.0 * c1 * x * u + m * x * x + d, qxy - az, qxz + ay],
                  [qxy + az, 2.0 * c1 * y * v + m * y * y + d, qyz - ax],
                  [qxz - ay, qyz + ax, 2.0 * c1 * z * w + m * z * z + d]])
    j_inv = so3_left_jacobian_inv(twist[:3])
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = j_inv
    out[3:, :3] = -j_inv @ q @ j_inv
    return out


@dataclass(frozen=True)
class PointCloud:
    """Points (N,3) with optional per-point unit normals.

    Normals may contain NaN rows for points whose neighborhood failed the
    flatness gate; consumers treat those as "no normal".
    """

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must be (N, 3)")
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite point coordinates")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        if self.normals is not None:
            normals = np.ascontiguousarray(self.normals, dtype=float)
            if normals.shape != points.shape:
                raise ValueError("normals must match points")
            normals.flags.writeable = False
            object.__setattr__(self, "normals", normals)

    def __len__(self):
        return self.points.shape[0]


class SpatialIndex:
    """k-NN / radius index over a fixed cloud.

    Backed by a balanced kd-tree; queries resolve exact distance ties by
    lowest point index so results match a brute-force linear scan.
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self.cloud = cloud
        self.size = len(cloud)
        self._tree = cKDTree(cloud.points, balanced_tree=True)

    def knn(self, queries, k, workers=1):
        """Indices (and distances) of the k nearest points per query row.

        Returns (distances (M,k), indices (M,k)), rows sorted by
        (distance, index). k is clamped to the cloud size.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        k = min(int(k), self.size)
        if k <= 0:
            raise ValueError("k must be >= 1")
        # query one extra neighbor to detect ties at the k-th boundary
        kq = min(k + 1, self.size)
        dist, idx = self._tree.query(queries, k=kq, workers=workers)
        dist = dist.reshape(len(queries), kq)
        idx = idx.reshape(len(queries), kq)
        # lexsort each row by (distance, index) so equal distances order by index
        order = np.lexsort((idx, dist), axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        if kq > k:
            boundary = dist[:, k] <= dist[:, k - 1]
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
        return dist, idx

    def nearest(self, queries, workers=1):
        dist, idx = self.knn(queries, 1, workers=workers)
        return dist[:, 0], idx[:, 0]

    def radius(self, point, r):
        """Indices within distance r of a single point, ascending index."""
        idx = self._tree.query_ball_point(np.asarray(point, dtype=float), float(r))
        return np.asarray(sorted(idx), dtype=int)


def build_index(cloud: PointCloud) -> SpatialIndex:
    return SpatialIndex(cloud)


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
