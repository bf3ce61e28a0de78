"""Release acceptance suite.

One test per release criterion. Each prints a single PASS/FAIL line with
the measured numbers (bypassing pytest capture), so a full run doubles as
the release checklist. Everything is seeded; runtime budgets are asserted
where a criterion sets one.
"""

import copy
import json
import math
import sys
import time

import numpy as np
import pytest

from maploc.cli import main as cli_main
from maploc.degeneracy import (
    DegeneracyParams,
    Spectrum,
    detect,
    spectrum,
    spectrum_metric,
)
from maploc.errors import NoCorrespondences
from maploc.evaluate import (
    ate,
    map_accuracy,
    map_completeness,
    rpe,
)
from maploc.factors import (
    BiasPriorFactor,
    BiasWalkFactor,
    GravityFactor,
    ImuFactor,
    MapFactor,
    OdometryFactor,
    PriorFactor,
    StateNode,
    States,
    ZeroVelocityFactor,
    ZuptParams,
    detect_zupt,
    preintegrate,
)
from maploc.geometry import Pose, build_index, compose, exp_map
from maploc.graph import FactorGraph
from maploc.io import DEFAULT_CONFIG
from maploc.pipeline import PointCloud, PriorMap, SequenceInput, run
from maploc.registration import (
    align,
    assemble_system,
    find_correspondences,
    reference_hessian,
)
from maploc.synth import generate, parse_scene_spec

from conftest import random_pose, trajectory
from oracles import (
    brute_accuracy_cm,
    brute_ate_cm,
    brute_completeness_percent,
    logm_twist,
)
from test_factors import DOWN, G_MAG, fd_blocks, random_state, random_window
from test_registration import random_normal_cloud


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_report(capfd):
    # report lines must reach the real terminal, not the capture buffer
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    return ok


def _cfg(**over):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg.update(over)
    return cfg


def _scene(spec_dict):
    result = generate(parse_scene_spec(spec_dict))
    prior = PriorMap(cloud=result.gt_map, index=build_index(result.gt_map),
                     voxel_size=0.1)
    return result, prior


# ---------------------------------------------------------------------------
# criterion 1: analytic Jacobians vs central finite differences

def _factor_case(name, rng):
    s0 = random_state(rng)
    s1 = random_state(rng, t=0.25)
    gravity = DOWN + 0.05 * rng.normal(size=3)
    if name == "prior":
        return PriorFactor(0, random_pose(rng), np.eye(6)), [s0], gravity
    if name == "odometry":
        return (OdometryFactor(0, 1, random_pose(rng), np.eye(6)),
                [s0, s1], gravity)
    if name == "no_motion":
        return (OdometryFactor(0, 1, Pose.identity(), np.eye(6)),
                [s0, s1], gravity)
    if name == "map":
        mask = tuple(np.flatnonzero(rng.random(3) < 0.3))
        return MapFactor(0, random_pose(rng), np.eye(6), mask=mask), [s0], gravity
    if name == "gravity":
        a_mean = rng.normal(size=3) + [0.0, 0.0, 9.5]
        return GravityFactor(0, a_mean, np.eye(3)), [s0], gravity
    if name == "zero_velocity":
        return ZeroVelocityFactor(0, np.eye(3)), [s0], gravity
    if name == "bias_walk":
        return BiasWalkFactor(0, 1, np.eye(6)), [s0, s1], gravity
    if name == "bias_prior":
        return (BiasPriorFactor(0, np.concatenate([0.1 * rng.normal(size=3),
                                                   0.01 * rng.normal(size=3)]),
                                np.eye(6)),
                [s0], gravity)
    pre = preintegrate(random_window(rng),
                       np.concatenate([0.05 * rng.normal(size=3),
                                       0.01 * rng.normal(size=3)]))
    rng.normal(size=3)  # keeps every later sampled case on its inputs
    return ImuFactor(0, 1, pre, np.eye(9), gravity_magnitude=G_MAG), [s0, s1], gravity


def _factor_rel_error(factor, states, gravity):
    states = States.of(states)
    r, blocks, g_block = factor.linearize(states, gravity)
    fd, fd_grav = fd_blocks(factor, states, gravity)
    worst = 0.0
    for idx in factor.indices:
        den = max(1.0, np.abs(blocks[idx]).max())
        worst = max(worst, np.abs(blocks[idx] - fd[idx]).max() / den)
    analytic = g_block if g_block is not None else np.zeros((len(r), 3))
    den = max(1.0, np.abs(analytic).max())
    return max(worst, np.abs(analytic - fd_grav).max() / den)


def _registration_rel_error(rng, eps=1e-6):
    cloud = random_normal_cloud(rng)
    index = build_index(cloud)
    pose = random_pose(rng, rot_scale=0.3, trans_scale=0.2)
    scan = rng.uniform(-2, 2, (80, 3))
    try:
        corrs = find_correspondences(scan, index, pose, 2.0)
    except NoCorrespondences:
        return None
    _, gradient, _ = assemble_system(corrs, pose, 0.1)
    fd = np.zeros(6)
    for col in range(6):
        delta = np.zeros(6)
        delta[col] = eps
        _, _, up = assemble_system(corrs, compose(exp_map(delta), pose), 0.1)
        _, _, down = assemble_system(corrs, compose(exp_map(-delta), pose), 0.1)
        fd[col] = (up - down) / (2 * eps)
    return np.abs(gradient - fd).max() / max(1.0, np.abs(gradient).max())


FACTOR_NAMES = ("prior", "odometry", "no_motion", "map", "gravity",
                "zero_velocity", "bias_walk", "bias_prior", "imu")


def test_criterion_01_jacobians():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for name in FACTOR_NAMES:
        for _ in range(100):
            worst = max(worst, _factor_rel_error(*_factor_case(name, rng)))
    done = 0
    while done < 100:
        err = _registration_rel_error(rng)
        if err is None:
            continue
        worst = max(worst, err)
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 30.0
    assert _report(1, ok,
                   f"max FD rel error {worst:.2e} over {len(FACTOR_NAMES)} "
                   f"factor types + registration, 100 points each "
                   f"({elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# criterion 2: degeneracy flags on corridor vs room

CORRIDOR_FLAG_SPEC = {
    "kind": "corridor",
    "seed": 31,
    "size": [40.0, 4.0, 3.0],
    "density": 200,
    "scan_rate": 5,
    "sensor": {"n_azimuth": 90, "n_elevation": 8, "max_range": 8.0,
               "min_range": 0.3, "fov_up": 25.0, "fov_down": -25.0},
    "trajectory": [
        {"pos": [10.0, 2.0, 1.5]},
        {"pos": [30.0, 2.0, 1.5]},
    ],
}

ROOM_FLAG_SPEC = {
    "kind": "cube-room",
    "seed": 32,
    "size": [8.0, 6.0, 3.0],
    "density": 200,
    "scan_rate": 5,
    "sensor": {"n_azimuth": 90, "n_elevation": 8, "max_range": 12.0,
               "min_range": 0.3, "fov_up": 30.0, "fov_down": -30.0},
    "trajectory": [
        {"pos": [2.0, 2.0, 1.5]},
        {"pos": [4.0, 2.0, 1.5]},
        {"pos": [4.0, 4.0, 1.5]},
    ],
}


def _frame_axes(spec_dict):
    result, prior = _scene(spec_dict)
    params = DegeneracyParams(d_e_threshold=math.inf, s_thres=3.0,
                              min_correspondences=100)
    axes = []
    for frame, pose in zip(result.scans, result.gt_trajectory):
        res = align(frame.cloud.points, prior.index, pose)
        reference = spectrum(reference_hessian(res.correspondences))
        axes.append(detect(res, reference, params).degenerate_axes)
    return result, axes


def test_criterion_02_degeneracy_oracle():
    start = time.perf_counter()
    corridor, corridor_axes = _frame_axes(CORRIDOR_FLAG_SPEC)
    # every trajectory sample keeps both end caps out of sensor range, so
    # all frames count as mid-corridor
    max_range = CORRIDOR_FLAG_SPEC["sensor"]["max_range"]
    length = CORRIDOR_FLAG_SPEC["size"][0]
    xs = corridor.gt_trajectory.translations[:, 0]
    assert xs.min() > max_range and (length - xs.max()) > max_range
    n_x = sum(1 for a in corridor_axes if a == (0,))
    rate = 100.0 * n_x / len(corridor_axes)

    _, room_axes = _frame_axes(ROOM_FLAG_SPEC)
    n_room = sum(1 for a in room_axes if a != ())
    elapsed = time.perf_counter() - start
    ok = rate >= 95.0 and n_room == 0 and elapsed < 60.0
    assert _report(2, ok,
                   f"corridor flags exactly x on {n_x}/{len(corridor_axes)} "
                   f"mid-corridor frames ({rate:.1f}% >= 95%), room flags "
                   f"{n_room}/{len(room_axes)} ({elapsed:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# criterion 3: spectrum misalignment metric properties

def _random_spectrum(rng):
    a = rng.normal(size=(6, 6))
    return spectrum(a @ a.T + 1e-6 * np.eye(6))


def test_criterion_03_spectrum_metric_properties():
    rng = np.random.default_rng(1003)
    worst_self = 0.0
    worst_scale = 0.0
    for _ in range(100):
        meas = _random_spectrum(rng)
        ref = _random_spectrum(rng)
        worst_self = max(worst_self, abs(spectrum_metric(meas, meas)))
        d = spectrum_metric(meas, ref)
        c = float(10.0 ** rng.uniform(-1, 1))
        scaled = Spectrum(c * meas.eigenvalues, meas.eigenvectors)
        d_scaled = spectrum_metric(scaled, ref)
        worst_scale = max(worst_scale,
                          abs(d_scaled - d / c) / max(1.0, abs(d / c)))
    # unit eigenvalues with index-matched eigenvectors orthogonal: every
    # term contributes exactly 1
    ortho = spectrum_metric(Spectrum(np.ones(6), np.eye(6)),
                            Spectrum(np.ones(6), np.roll(np.eye(6), 1, axis=1)))
    ok = worst_self == 0.0 and ortho == 6.0 and worst_scale < 1e-9
    assert _report(3, ok,
                   f"self-distance max {worst_self:.1e}, orthogonal unit "
                   f"case {ortho}, 1/c scaling max dev {worst_scale:.2e} "
                   f"over 100 spectra")


# ---------------------------------------------------------------------------
# criterion 4: drift elimination on the corridor

DRIFT_SPEC = {
    "kind": "corridor",
    "seed": 41,
    "size": [40.0, 4.0, 3.0],
    "density": 200,
    "scan_rate": 10,
    "sensor": {"n_azimuth": 90, "n_elevation": 8, "max_range": 8.0,
               "min_range": 0.3, "fov_up": 25.0, "fov_down": -25.0},
    "odometry": {"drift_per_frame": [0.0, 0.0, 0.0, 0.0, 0.0, 0.01]},
    "trajectory": [
        {"pos": [10.0, 1.6, 1.5]},
        {"pos": [16.6, 2.4, 1.5]},
        {"pos": [23.3, 1.6, 1.5]},
        {"pos": [30.0, 2.4, 1.5]},
    ],
}


def test_criterion_04_drift_elimination():
    start = time.perf_counter()
    result, prior = _scene(DRIFT_SPEC)
    seq = SequenceInput.from_synth(result)
    gt = result.gt_trajectory
    # dead reckoning: keep the anchor registration, drop every other map
    # factor so the estimate integrates raw odometry
    dead = run(prior, seq, _cfg(map_factor_stride=10 ** 9))
    opt = run(prior, seq, _cfg())
    ate_dead = ate(dead.trajectory, gt).rmse_cm
    ate_opt = ate(opt.trajectory, gt).rmse_cm
    z_err = opt.trajectory.translations[:, 2] - gt.translations[:, 2]
    z_rmse_cm = float(np.sqrt(np.mean(z_err ** 2))) * 100.0
    elapsed = time.perf_counter() - start
    ratio = ate_opt / ate_dead
    ok = ratio < 0.10 and z_rmse_cm < 2.0 and elapsed < 300.0
    assert _report(4, ok,
                   f"1 cm/frame z-drift over {len(gt)} frames: optimized ATE "
                   f"{ate_opt:.3f} cm = {100 * ratio:.1f}% of dead-reckoned "
                   f"{ate_dead:.3f} cm (< 10%), z-RMSE {z_rmse_cm:.3f} cm "
                   f"(< 2 cm) ({elapsed:.1f}s < 300s)")
    # the report never calls a frame rejected whose map factor was added
    assert not any(f["map_factor_added"] and f["degeneracy"]["stage1_reject"]
                   for f in opt.frames)


# ---------------------------------------------------------------------------
# criterion 5: gravity factor convergence from rough initializations

def test_criterion_05_gravity_convergence():
    rng = np.random.default_rng(1005)
    fac = DEFAULT_CONFIG["factors"]
    info = np.eye(3) / fac["gravity_direction_sigma"] ** 2
    worst_norm = 0.0
    worst_dir = 0.0
    for _ in range(50):
        pose = random_pose(rng)
        down = rng.normal(size=3)
        down /= np.linalg.norm(down)
        a_mean = pose.rotation.T @ (-9.81 * down) + 0.05 * rng.normal(size=3)
        init = rng.normal(size=3)
        init *= rng.uniform(0.5, 2.0) / np.linalg.norm(init)
        graph = FactorGraph(gravity=init)
        graph.add_state(StateNode.at(pose, 0.0))
        graph.add_factor(PriorFactor(0, pose, 1e8 * np.eye(6)))
        graph.add_factor(GravityFactor(0, a_mean, info))
        graph.optimize()
        target = pose.rotation @ a_mean
        target = -target / np.linalg.norm(target)
        g = graph.gravity
        worst_norm = max(worst_norm, abs(np.linalg.norm(g) - 1.0))
        cosang = float(np.clip(g @ target / np.linalg.norm(g), -1.0, 1.0))
        worst_dir = max(worst_dir, math.acos(cosang))
    ok = worst_norm < 1e-6 and worst_dir < 1e-6
    assert _report(5, ok,
                   f"50 inits with |g0| in [0.5, 2]: max norm error "
                   f"{worst_norm:.2e} (< 1e-6), max direction error "
                   f"{worst_dir:.2e} rad (< 1e-6)")


# ---------------------------------------------------------------------------
# criterion 6: zero-velocity detection and stationary pinning

ZUPT_WP = [4.0, 2.5, 1.8]
ZUPT_SPEC = {
    "kind": "cube-room",
    "seed": 61,
    "size": [8.0, 6.0, 3.0],
    "density": 200,
    "scan_rate": 5,
    "imu_rate": 200,
    "sensor": {"n_azimuth": 90, "n_elevation": 8, "max_range": 12.0,
               "min_range": 0.3, "fov_up": 30.0, "fov_down": -30.0},
    "imu": {"accel_noise_sigma": 0.01, "gyro_noise_sigma": 0.001},
    "odometry": {"trans_noise_sigma": 0.003, "rot_noise_sigma": 0.001},
    "trajectory": [
        {"pos": [2.0, 2.0, 1.2], "yaw": 0.0},
        {"pos": ZUPT_WP, "yaw": 0.8, "dwell": 10.0},
        {"pos": [6.0, 4.0, 1.2], "yaw": 0.0},
    ],
}


def test_criterion_06_zupt():
    result, prior = _scene(ZUPT_SPEC)
    waypoints = [np.asarray(w["pos"], dtype=float)
                 for w in ZUPT_SPEC["trajectory"]]
    # unit speed: the dwell starts when the first leg's path length is done
    dwell_start = float(np.linalg.norm(waypoints[1] - waypoints[0]))
    dwell_end = dwell_start + ZUPT_SPEC["trajectory"][1]["dwell"]

    samples = result.imu
    window, step = 102, 20  # 0.505 s windows sliding by 0.1 s at 200 Hz
    guard = 0.5  # windows near a boundary are neither inside nor outside
    inside = [0, 0]
    outside = [0, 0]
    for i in range(0, len(samples) - window + 1, step):
        win = samples[i:i + window]
        lo, hi = win[0].timestamp, win[-1].timestamp
        fired = detect_zupt(win, ZuptParams())
        if lo >= dwell_start and hi <= dwell_end:
            inside[0] += fired
            inside[1] += 1
        elif hi <= dwell_start - guard or lo >= dwell_end + guard:
            outside[0] += fired
            outside[1] += 1
    inside_rate = 100.0 * inside[0] / inside[1]

    out = run(prior, SequenceInput.from_synth(result), _cfg())
    at_dwell = np.linalg.norm(result.gt_trajectory.translations
                              - np.array(ZUPT_WP), axis=1) < 1e-9
    est = out.trajectory.translations[at_dwell]
    diameter_mm = 1000.0 * max(float(np.linalg.norm(a - b))
                               for a in est for b in est)
    zupt_frames = sum(1 for f in out.frames if f["zupt"])
    ok = (inside_rate >= 95.0 and outside[0] == 0 and diameter_mm < 1.0
          and zupt_frames > 0)
    assert _report(6, ok,
                   f"10 s dwell: detector fired {inside[0]}/{inside[1]} inside "
                   f"({inside_rate:.1f}% >= 95%), {outside[0]}/{outside[1]} "
                   f"outside (= 0), intra-segment motion {diameter_mm:.3f} mm "
                   f"(< 1 mm, {zupt_frames} stationary frames)")


# ---------------------------------------------------------------------------
# criterion 7: evaluation metrics vs brute-force oracles

def _random_trajectory(rng, n, base=None):
    poses = []
    for k in range(n):
        if base is None:
            poses.append(random_pose(rng, rot_scale=0.4, trans_scale=1.5))
        else:
            wobble = np.concatenate([0.05 * rng.normal(size=3),
                                     0.05 * rng.normal(size=3)])
            poses.append(compose(exp_map(wobble), base[k]))
    return trajectory(np.arange(n, dtype=float), poses)


def _matrix(pose):
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


def _positions(traj):
    return np.array([traj[k].translation for k in range(len(traj))])


def _brute_rpe(est, ref, delta):
    trans_sq = []
    rot_sq = []
    for k in range(len(est) - delta):
        rel_est = np.linalg.inv(_matrix(est[k])) @ _matrix(est[k + delta])
        rel_ref = np.linalg.inv(_matrix(ref[k])) @ _matrix(ref[k + delta])
        xi = logm_twist(np.linalg.inv(rel_ref) @ rel_est)
        rot_sq.append(xi[:3] @ xi[:3])
        trans_sq.append(xi[3:] @ xi[3:])
    return (float(np.sqrt(np.mean(trans_sq))) * 100.0,
            float(np.sqrt(np.mean(rot_sq))))


def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(3):
        ref = _random_trajectory(rng, 300)
        est = _random_trajectory(rng, 300, base=ref).transformed(
            random_pose(rng, rot_scale=0.3, trans_scale=1.0))
        worst = max(worst, abs(ate(est, ref).rmse_cm
                               - brute_ate_cm(_positions(est),
                                              _positions(ref))))
        for delta in (1, 3):
            got = rpe(est, ref, delta=delta)
            want_t, want_r = _brute_rpe(est, ref, delta)
            worst = max(worst, abs(got.rmse_cm - want_t),
                        abs(got.rot_rmse_rad - want_r))
        est_map = PointCloud(rng.uniform(0, 2, (400, 3)))
        gt_map = PointCloud(rng.uniform(0, 2, (350, 3)))
        worst = max(worst, abs(map_accuracy(est_map, gt_map)
                               - brute_accuracy_cm(est_map.points,
                                                   gt_map.points, 0.2)))
        worst = max(worst, abs(map_completeness(est_map, gt_map)
                               - brute_completeness_percent(est_map.points,
                                                            gt_map.points, 0.2)))

    traj = _random_trajectory(rng, 50)
    cloud = PointCloud(rng.uniform(0, 2, (200, 3)))
    id_ate = ate(traj, traj).rmse_cm
    id_rpe = rpe(traj, traj).rmse_cm
    id_acc = map_accuracy(cloud, cloud)
    id_com = map_completeness(cloud, cloud)
    identity_ok = (id_ate < 1e-9 and id_rpe < 1e-9 and id_acc < 1e-9
                   and id_com == 100.0)
    ok = worst < 1e-9 and identity_ok
    assert _report(7, ok,
                   f"ATE/RPE/ACC/COM vs brute force: max |diff| {worst:.2e} "
                   f"(< 1e-9), identity gives ({id_ate:.1e}, {id_rpe:.1e}, "
                   f"{id_acc:.1e} cm, {id_com:.0f}%)")


# ---------------------------------------------------------------------------
# criterion 8: per-frame registration + degeneracy runtime

BENCH_SPEC = {
    "kind": "cube-room",
    "seed": 81,
    "size": [10.0, 10.0, 3.0],
    "density": 3200,  # ~1.03M map points
    "scan_rate": 5,
    "sensor": {"n_azimuth": 100, "n_elevation": 100, "max_range": 20.0,
               "min_range": 0.3, "fov_up": 85.0, "fov_down": -85.0},
    "trajectory": [
        {"pos": [4.0, 5.0, 1.5]},
        {"pos": [6.0, 5.0, 1.5]},
    ],
}


def test_criterion_08_runtime_budget():
    result, prior = _scene(BENCH_SPEC)
    assert len(prior.cloud.points) >= 1_000_000
    rng = np.random.default_rng(1008)
    params = DegeneracyParams(d_e_threshold=math.inf, s_thres=3.0,
                              min_correspondences=100)
    per_frame = []
    for frame, pose in list(zip(result.scans, result.gt_trajectory))[:5]:
        assert len(frame.cloud.points) == 10_000
        twist = np.concatenate([0.02 * rng.normal(size=3),
                                0.05 * rng.normal(size=3)])
        init = compose(exp_map(twist), pose)
        start = time.perf_counter()
        res = align(frame.cloud.points, prior.index, init, workers=1)
        reference = spectrum(reference_hessian(res.correspondences))
        detect(res, reference, params)
        per_frame.append(time.perf_counter() - start)
    mean_ms = 1000.0 * float(np.mean(per_frame))
    max_ms = 1000.0 * float(np.max(per_frame))
    soft = "within" if max_ms <= 200.0 else "OVER"
    ok = mean_ms <= 200.0 and max_ms <= 400.0
    assert _report(8, ok,
                   f"10k-point scan vs {len(prior.cloud.points):,}-point map: "
                   f"mean {mean_ms:.1f} ms, max {max_ms:.1f} ms per frame "
                   f"({soft} soft budget 200 ms, hard limit 400 ms)")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical localization runs

CLI_SPEC = {
    "kind": "cube-room",
    "seed": 91,
    "size": [5.0, 5.0, 3.0],
    "density": 80,
    "scan_rate": 5,
    "imu_rate": 200,
    "sensor": {"n_azimuth": 60, "n_elevation": 6, "max_range": 10.0,
               "min_range": 0.3, "fov_up": 30.0, "fov_down": -30.0},
    "trajectory": [
        {"pos": [1.5, 1.5, 1.5]},
        {"pos": [3.5, 1.5, 1.5]},
        {"pos": [3.5, 3.5, 1.5]},
    ],
}


def test_criterion_09_determinism(tmp_path):
    spec_path = tmp_path / "scene.json"
    spec_path.write_text(json.dumps(CLI_SPEC))
    data = tmp_path / "data"
    assert cli_main(["synth", "--spec", str(spec_path),
                     "--out", str(data)]) == 0

    def localize(out, threads):
        code = cli_main([
            "localize",
            "--map", str(data / "map.pcd"),
            "--scans", str(data / "scans"),
            "--odom", str(data / "odometry.tum"),
            "--imu", str(data / "imu.csv"),
            "--out", str(out),
            "--set", f"threads={threads}",
            "--set", "degeneracy.min_correspondences=50",
        ])
        assert code == 0
        return ((out / "trajectory.tum").read_bytes(),
                (out / "report.json").read_bytes())

    identical = []
    for threads in (1, 8):
        a = localize(tmp_path / f"run_a_{threads}", threads)
        b = localize(tmp_path / f"run_b_{threads}", threads)
        identical.append(a == b)
    ok = all(identical)
    assert _report(9, ok,
                   f"repeated localize runs byte-identical (TUM + JSON): "
                   f"threads=1 {identical[0]}, threads=8 {identical[1]}")


# ---------------------------------------------------------------------------
# criterion 10: end-to-end accuracy, clean and noisy

ACCURACY_BASE = {
    "kind": "cube-room",
    "seed": 101,
    "size": [8.0, 6.0, 3.0],
    "density": 400,
    "scan_rate": 5,
    "sensor": {"n_azimuth": 90, "n_elevation": 8, "max_range": 12.0,
               "min_range": 0.3, "fov_up": 30.0, "fov_down": -30.0},
    "trajectory": [
        {"pos": [2.0, 2.0, 1.5]},
        {"pos": [4.0, 2.0, 1.5]},
        {"pos": [4.0, 4.0, 1.5]},
    ],
}


def test_criterion_10_end_to_end_accuracy():
    result, prior = _scene(ACCURACY_BASE)
    clean = run(prior, SequenceInput.from_synth(result), _cfg())
    ate_clean = ate(clean.trajectory, result.gt_trajectory).rmse_cm

    noisy_spec = copy.deepcopy(ACCURACY_BASE)
    noisy_spec["seed"] = 102
    noisy_spec["range_noise_sigma"] = 0.03
    noisy_spec["odometry"] = {"trans_noise_sigma": 0.005,
                              "rot_noise_sigma": 0.002}
    result_n, prior_n = _scene(noisy_spec)
    noisy = run(prior_n, SequenceInput.from_synth(result_n), _cfg())
    ate_noisy = ate(noisy.trajectory, result_n.gt_trajectory).rmse_cm
    acc_noisy = map_accuracy(noisy.map_cloud, result_n.gt_map)
    ok = ate_clean < 0.5 and ate_noisy < 3.0 and acc_noisy < 4.0
    assert _report(10, ok,
                   f"noiseless ATE {ate_clean:.3f} cm (< 0.5), noisy ATE "
                   f"{ate_noisy:.3f} cm (< 3), assembled map accuracy "
                   f"{acc_noisy:.2f} cm (< 4)")
