import numpy as np
import pytest

from maploc.evaluate import Trajectory
from maploc.factors import imu_samples
from maploc.geometry import PointCloud, Pose, exp_map


def random_twist(rng, rot_scale=1.0, trans_scale=1.0):
    rot = rng.uniform(-1.0, 1.0, 3)
    norm = np.linalg.norm(rot)
    if norm > 0:
        angle = rng.uniform(0.0, min(rot_scale, 3.0))
        rot = rot / norm * angle
    trans = rng.uniform(-trans_scale, trans_scale, 3)
    return np.concatenate([rot, trans])


def random_pose(rng, rot_scale=1.0, trans_scale=1.0) -> Pose:
    return exp_map(random_twist(rng, rot_scale, trans_scale))


def trajectory(times, poses) -> Trajectory:
    """A Trajectory of a sequence of Poses at `times`."""
    poses = list(poses)
    return Trajectory(times,
                      np.reshape([p.rotation for p in poses], (-1, 3, 3)),
                      np.reshape([p.translation for p in poses], (-1, 3)))


def imu_stream(times, gyro, accel):
    """An IMU record array at `times`; gyro and accel are broadcast to one
    row per time, so a 3-vector holds constant."""
    shape = (len(times), 3)
    return imu_samples(times, np.broadcast_to(gyro, shape),
                       np.broadcast_to(accel, shape))


def lattice_scene(rng):
    """A 0.5 m lattice map whose floor (z = 0) is stored twice, every
    seventh normal NaN, and a scan that sits on lattice points, halfway
    between them (exact distance ties at exact poses), at random inside,
    and 5 m beyond the lattice."""
    axis = np.arange(8) * 0.5
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    points = np.vstack([lattice, lattice[lattice[:, 2] == 0.0]])
    normals = rng.normal(size=points.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals[::7] = np.nan
    scan = np.vstack([lattice[rng.choice(len(lattice), 12)],
                      lattice[rng.choice(64, 6)],  # on the doubled floor
                      lattice[rng.choice(len(lattice), 12)] + [0.25, 0, 0],
                      rng.uniform(0.5, 3.0, (40, 3)),
                      rng.uniform(0.5, 3.0, (5, 3)) + [8.5, 0, 0]])
    return PointCloud(points, normals=normals), scan


def leaf_keys(node, prefix=""):
    """(dotted key, default) for every leaf of a config or spec tree."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


@pytest.fixture
def rng():
    return np.random.default_rng(42)
