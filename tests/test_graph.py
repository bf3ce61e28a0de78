from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from maploc.errors import IndexOutOfRange, NotAnchored, SingularSystem
from maploc.factors import (
    STATE_DIM,
    BiasPriorFactor,
    BiasWalkFactor,
    GravityFactor,
    ImuFactor,
    MapFactor,
    OdometryFactor,
    PriorFactor,
    StateNode,
    ZeroVelocityFactor,
    preintegrate,
    retract_state,
)
from maploc.geometry import (
    Pose,
    between,
    compose,
    exp_map,
    inverse,
    log_map,
    so3_exp,
)
from maploc import graph as graph_module
from maploc.graph import (DAMPING_INIT, FactorGraph, gravity_basis,
                          retract_gravity)

from conftest import imu_stream, random_pose, random_twist

DOWN = np.array([0.0, 0.0, -1.0])
G_MAG = 9.81
G_WORLD = G_MAG * DOWN


def pose_error(a: Pose, b: Pose) -> float:
    return float(np.linalg.norm(log_map(between(a, b))))


def chain_poses(n, step=None):
    if step is None:
        step = exp_map(np.array([0.0, 0.0, 0.05, 0.5, 0.0, 0.0]))
    poses = [Pose.identity()]
    for _ in range(n - 1):
        poses.append(compose(poses[-1], step))
    return poses


def perturbed(pose, rng, rot=0.05, trans=0.1):
    return compose(exp_map(random_twist(rng, rot, trans)), pose)


def build_chain_graph(gt, measurements, init, prior_info=1e6,
                      odom_info=1e4):
    graph = FactorGraph()
    for k, pose in enumerate(init):
        graph.add_state(StateNode.at(pose, 0.1 * k))
    graph.add_factor(PriorFactor(0, gt[0], prior_info * np.eye(6)))
    for k, rel in enumerate(measurements):
        graph.add_factor(OdometryFactor(k, k + 1, rel, odom_info * np.eye(6)))
    return graph


def band_storage(a, u):
    """a in LAPACK's general band storage with u diagonals on each side,
    ab[u + i - j, j] = a[i, j], and zeros where no entry of a falls."""
    n = len(a)
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= u
    ab = np.zeros((2 * u + 1, n))
    ab[(u + i - j)[inside], j[inside]] = a[inside]
    return ab


def densify_band(ab):
    """The square matrix that band_storage stored in ab."""
    u, n = ab.shape[0] // 2, ab.shape[1]
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= u
    a = np.zeros((n, n))
    a[inside] = ab[(u + i - j)[inside], j[inside]]
    return a


def dense_normal_equations(graph, first, use_gravity):
    """H and b over the states from `first` on, and gravity's 2 columns
    when use_gravity, built densely factor by factor from the linearize
    blocks."""
    n_free = STATE_DIM * (len(graph.states) - first)
    n_cols = n_free + (2 if use_gravity else 0)
    h = np.zeros((n_cols, n_cols))
    b = np.zeros(n_cols)
    basis = gravity_basis(graph.gravity)
    for f in graph.factors:
        if max(f.indices) < first:
            continue
        r, blocks, g_block = f.linearize(graph.states, graph.gravity)
        jac = np.zeros((len(r), n_cols))
        for i, block in zip(f.indices, blocks):
            if i >= first:
                col = STATE_DIM * (i - first)
                jac[:, col:col + STATE_DIM] = block
        if use_gravity and g_block is not None:
            jac[:, n_free:] = g_block @ basis
        h += jac.T @ f.information @ jac
        b += jac.T @ f.information @ r
    return h, b


def counted_splu(monkeypatch):
    """Records the (args, kwargs) of each call to the graph's banded
    splu."""
    solves = []
    real_splu = graph_module.splu
    monkeypatch.setattr(graph_module, "splu", lambda *a, **kw:
                        solves.append((a, kw)) or real_splu(*a, **kw))
    return solves


def counted_methods(monkeypatch, classes, names=("residual", "linearize")):
    """A Counter of the calls to each class's methods, keyed by (kind,
    method name)."""
    calls = Counter()
    for cls in classes:
        for name in names:
            def counted(self, *args, _method=cls.__dict__[name],
                        _key=(cls.kind, name)):
                calls[_key] += 1
                return _method(self, *args)
            monkeypatch.setattr(cls, name, counted)
    return calls


class TestBatchSolve:
    def test_exact_chain_recovery(self, rng):
        gt = chain_poses(10)
        rels = [between(gt[k], gt[k + 1]) for k in range(9)]
        init = [perturbed(p, rng) for p in gt]
        graph = build_chain_graph(gt, rels, init)
        result = graph.optimize()
        assert result.converged
        assert result.final_cost < 1e-14
        for k, pose in enumerate(gt):
            assert pose_error(graph.states[k].pose, pose) < 1e-7

    def test_dead_reckoning_matches_odometry_composition(self, rng):
        gt = chain_poses(12)
        rels = [compose(exp_map(random_twist(rng, 0.02, 0.05)),
                        between(gt[k], gt[k + 1])) for k in range(11)]
        init = list(gt)
        graph = build_chain_graph(gt, rels, init)
        graph.optimize()
        # with only a prior and odometry the optimum is the measurement chain
        expected = gt[0]
        for k, rel in enumerate(rels):
            expected = compose(expected, rel)
            assert pose_error(graph.states[k + 1].pose, expected) < 1e-7

    def test_map_factors_reduce_error(self):
        gt = chain_poses(30)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rels = [compose(exp_map(random_twist(rng, 0.01, 0.03)),
                            between(gt[k], gt[k + 1])) for k in range(29)]
            init = [gt[0]]
            for rel in rels:
                init.append(compose(init[-1], rel))

            def rmse(graph):
                errs = [np.linalg.norm(graph.states[k].pose.translation
                                       - gt[k].translation)
                        for k in range(30)]
                return float(np.sqrt(np.mean(np.square(errs))))

            odom_only = build_chain_graph(gt, rels, init)
            odom_only.optimize()
            with_map = build_chain_graph(gt, rels, init)
            for k in range(0, 30, 5):
                with_map.add_factor(MapFactor(k, gt[k], 1e3 * np.eye(6)))
            with_map.optimize()
            assert rmse(with_map) < rmse(odom_only), f"seed {seed}"

    def test_gravity_convergence(self, rng):
        graph = FactorGraph(gravity=(0.3, -0.2, -0.93))
        info = 1e4 * np.eye(3)
        for k in range(3):
            pose = random_pose(rng, rot_scale=1.0)
            graph.add_state(StateNode.at(pose, 0.5 * k))
            graph.add_factor(PriorFactor(k, pose, 1e8 * np.eye(6)))
            a_mean = pose.rotation.T @ (-G_WORLD)
            graph.add_factor(GravityFactor(k, a_mean, info))
        result = graph.optimize()
        assert result.converged
        assert np.allclose(graph.gravity, DOWN, atol=1e-6)

    def test_gauge_consistency(self, rng):
        gt = chain_poses(8)
        rels = [compose(exp_map(random_twist(rng, 0.02, 0.05)),
                        between(gt[k], gt[k + 1])) for k in range(7)]
        init = [perturbed(p, rng, 0.02, 0.05) for p in gt]
        plain = build_chain_graph(gt, rels, init)
        for k in range(0, 8, 3):
            plain.add_factor(MapFactor(k, gt[k], 1e2 * np.eye(6)))
        plain.optimize()

        q = random_pose(rng, rot_scale=1.5, trans_scale=3.0)
        moved = build_chain_graph([compose(q, p) for p in gt], rels,
                                  [compose(q, p) for p in init])
        for k in range(0, 8, 3):
            moved.add_factor(MapFactor(k, compose(q, gt[k]), 1e2 * np.eye(6)))
        moved.optimize()
        for k in range(8):
            assert pose_error(moved.states[k].pose,
                              compose(q, plain.states[k].pose)) < 1e-6

    def test_zero_information_factor_is_noop(self, rng):
        gt = chain_poses(6)
        rels = [compose(exp_map(random_twist(rng, 0.02, 0.05)),
                        between(gt[k], gt[k + 1])) for k in range(5)]
        init = [perturbed(p, rng) for p in gt]
        base = build_chain_graph(gt, rels, init)
        base.optimize()
        padded = build_chain_graph(gt, rels, init)
        padded.add_factor(OdometryFactor(0, 3, random_pose(rng),
                                         np.zeros((6, 6))))
        padded.optimize()
        for k in range(6):
            assert pose_error(base.states[k].pose,
                              padded.states[k].pose) < 1e-10

    def test_cost_monotone_over_accepted_steps(self, rng):
        gt = chain_poses(10)
        rels = [compose(exp_map(random_twist(rng, 0.03, 0.08)),
                        between(gt[k], gt[k + 1])) for k in range(9)]
        init = [perturbed(p, rng, 0.1, 0.3) for p in gt]
        graph = build_chain_graph(gt, rels, init)
        result = graph.optimize()
        assert result.initial_cost >= result.final_cost
        costs = [rec.cost for rec in result.records if rec.accepted]
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_iteration_cap(self, rng):
        gt = chain_poses(5)
        rels = [between(gt[k], gt[k + 1]) for k in range(4)]
        init = [perturbed(p, rng, 0.3, 0.5) for p in gt]
        graph = build_chain_graph(gt, rels, init)
        result = graph.optimize(max_iterations=1)
        assert result.iterations == 1

    @pytest.mark.parametrize("redundant", [False, True])
    def test_converged_graph_stops_after_one_solve(self, rng, monkeypatch,
                                                   redundant):
        gt = chain_poses(6)
        rels = [compose(exp_map(random_twist(rng, 0.02, 0.05)),
                        between(gt[k], gt[k + 1])) for k in range(5)]
        graph = build_chain_graph(gt, rels, [perturbed(p, rng) for p in gt])
        if redundant:
            for k in (2, 5):
                graph.add_factor(MapFactor(k, gt[k], 1e3 * np.eye(6)))
        assert graph.optimize().converged
        if redundant:
            # a step above STEP_TOL whose predicted decrease is still
            # negligible against the cost the map factors leave
            nudge = np.zeros((len(graph.states), STATE_DIM))
            nudge[3, :6] = 1e-8
            graph.states = retract_state(graph.states, nudge)
        solves = counted_splu(monkeypatch)
        result = graph.optimize()
        assert len(solves) == 1
        assert result.converged and result.iterations == 1
        [record] = result.records
        assert not record.accepted and record.step_norm == 0.0
        assert record.damping == DAMPING_INIT

    def test_damping_term_of_predicted_decrease_decides_the_stop(self):
        """With information w I far below the damping, the step is about
        -b / damping, so -delta^T b / 2 and damping |delta|^2 / 2 are each
        about (w / damping) * cost. At w = 0.75 REL_COST_TOL DAMPING_INIT
        the first alone is below REL_COST_TOL * cost and their sum, the
        predicted decrease, is above it: the trial step is taken."""
        w = 0.75 * graph_module.REL_COST_TOL * DAMPING_INIT
        graph = FactorGraph()
        graph.add_state(StateNode.at(Pose(np.eye(3), [1.0, -0.5, 0.25]),
                                     0.0))
        graph.add_factor(PriorFactor(0, Pose.identity(), w * np.eye(6)))
        result = graph.optimize(max_iterations=1)
        [record] = result.records
        assert record.accepted and record.damping == 0.5 * DAMPING_INIT
        assert result.final_cost < result.initial_cost
        assert not result.converged

    def test_fixed_states_do_not_move(self, rng):
        gt = chain_poses(4)
        rels = [compose(exp_map(random_twist(rng, 0.05, 0.1)),
                        between(gt[k], gt[k + 1])) for k in range(3)]
        init = [perturbed(p, rng) for p in gt]
        graph = build_chain_graph(gt, rels, init)
        before = init[0].matrix().copy()
        graph.optimize(first=1)
        assert np.array_equal(graph.states[0].pose.matrix(), before)

    def test_no_free_state_returns_cost_unchanged(self, rng):
        gt = chain_poses(4)
        rels = [compose(exp_map(random_twist(rng, 0.05, 0.1)),
                        between(gt[k], gt[k + 1])) for k in range(3)]
        init = [perturbed(p, rng) for p in gt]
        graph = build_chain_graph(gt, rels, init)
        a = rng.normal(size=(6, 6))
        map_info = a @ a.T + np.eye(6)
        map_pose = perturbed(gt[2], rng)
        graph.add_factor(MapFactor(2, map_pose, map_info, mask=(1,)))
        states = graph.states
        gravity = graph.gravity.copy()

        r_prior = log_map(compose(inverse(gt[0]), init[0]))
        expected = 0.5 * 1e6 * float(r_prior @ r_prior)
        for k, rel in enumerate(rels):
            r = log_map(compose(inverse(rel), between(init[k], init[k + 1])))
            expected += 0.5 * 1e4 * float(r @ r)
        # the y-translation row and column are masked out
        r_map = np.delete(log_map(between(map_pose, init[2])), 4)
        w_map = np.delete(np.delete(map_info, 4, axis=0), 4, axis=1)
        expected += 0.5 * float(r_map @ w_map @ r_map)

        result = graph.optimize(first=4)
        assert result.iterations == 0 and result.records == []
        assert result.initial_cost == result.final_cost
        assert result.final_cost == pytest.approx(expected, rel=1e-12)
        assert graph.states is states
        assert np.array_equal(graph.gravity, gravity)


class TestAssemblyOracle:
    """One LM step against normal equations built densely, factor by
    factor, from the linearize blocks."""

    def mixed_graph(self, rng, n=4, dt=0.5, gravity=None):
        gt = chain_poses(n, exp_map(np.array([0.0, 0.0, 0.02, 0.1, 0.0, 0.0])))
        graph = FactorGraph(gravity=DOWN + 0.03 * rng.normal(size=3)
                            if gravity is None else gravity)
        for k in range(n):
            graph.add_state(StateNode(perturbed(gt[k], rng, 0.02, 0.05),
                                      0.02 * rng.normal(size=3),
                                      np.concatenate([
                                          0.01 * rng.normal(size=3),
                                          0.005 * rng.normal(size=3)]),
                                      dt * k))
        graph.add_factor(PriorFactor(1, gt[1], 1e3 * np.eye(6)))
        for k in range(n - 1):
            graph.add_factor(OdometryFactor(k, k + 1, between(gt[k], gt[k + 1]),
                                            1e2 * np.eye(6)))
            window = stationary_window(gt[k].rotation, dt * k, duration=dt)
            pre = preintegrate(window, np.zeros(6))
            graph.add_factor(ImuFactor(k, k + 1, pre, 1e1 * np.eye(9),
                                       gravity_magnitude=G_MAG))
            graph.add_factor(BiasWalkFactor(k, k + 1, 1e2 * np.eye(6)))
        a = rng.normal(size=(6, 6))
        graph.add_factor(MapFactor(2, perturbed(gt[2], rng, 0.01, 0.02),
                                   a @ a.T + np.eye(6), mask=(1,)))
        graph.add_factor(GravityFactor(n - 1, gt[n - 1].rotation.T @ -G_WORLD,
                                       1e2 * np.eye(3)))
        return graph

    def test_one_step_matches_dense_normal_equations(self, rng):
        graph = self.mixed_graph(rng)
        h, b = dense_normal_equations(graph, 1, use_gravity=True)
        n_cols = len(b)
        basis = gravity_basis(graph.gravity)
        delta = np.linalg.solve(h + DAMPING_INIT * np.eye(n_cols), -b)
        expected = graph.states[:1].join(retract_state(
            graph.states[1:], delta[:-2].reshape(-1, STATE_DIM)))
        # gravity turns about g x B delta, which moves it by B delta to
        # first order and keeps it a unit vector
        gravity = so3_exp(np.cross(graph.gravity, basis @ delta[-2:])) \
            @ graph.gravity

        result = graph.optimize(first=1, max_iterations=1)
        assert result.records[0].accepted
        assert np.abs(delta).max() > 1e-3
        for got, want in zip(graph.states, expected):
            np.testing.assert_allclose(got.pose.matrix(), want.pose.matrix(),
                                       atol=1e-10)
            for name in ("velocity", "bias"):
                np.testing.assert_allclose(getattr(got, name),
                                           getattr(want, name), atol=1e-10)
        np.testing.assert_allclose(graph.gravity, gravity, atol=1e-10)

    @pytest.mark.parametrize("first", [1, 0])
    def test_fixed_pattern_matches_coo_assembly(self, rng, monkeypatch,
                                                first):
        """The first damped system handed to the banded splu, densified
        from its band, its border right-hand sides and the corner, against
        the COO matrix of the same blocks, entry for entry to rounding, with
        gravity's columns and a free state no factor touches, whose
        diagonal still holds the damping."""
        graph = self.mixed_graph(rng)
        lone = graph.states[3]
        graph.add_state(StateNode.at(lone.pose, lone.timestamp + 0.5))
        n_cols = STATE_DIM * (len(graph.states) - first) + 2
        gravity_cols = np.arange(n_cols - 2, n_cols)
        basis = gravity_basis(graph.gravity)
        rows, cols, vals = [], [], []
        for f in graph.factors:
            free = [i for i in f.indices if i >= first]
            if not free:
                continue
            r, blocks, g_block = f.linearize(graph.states, graph.gravity)
            blocks = dict(zip(f.indices, blocks))
            span = np.concatenate([STATE_DIM * (i - first)
                                   + np.arange(STATE_DIM) for i in free]
                                  + [gravity_cols])
            jac = np.hstack([blocks[i] for i in free]
                            + [np.zeros((len(r), 2)) if g_block is None
                               else g_block @ basis])
            rows.append(np.repeat(span, len(span)))
            cols.append(np.tile(span, len(span)))
            vals.append((jac.T @ f.information @ jac).ravel())
        expected = sparse.csc_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_cols, n_cols))
        expected = expected + DAMPING_INIT * sparse.identity(n_cols)

        solves = counted_splu(monkeypatch)
        steps = []
        real_step = graph_module._damped_step
        monkeypatch.setattr(graph_module, "_damped_step",
                            lambda *a: steps.append(a) or real_step(*a))
        graph.optimize(first=first, max_iterations=1)
        (lower, upper), ab, rhs = solves[0][0]
        _, grav, b, damping = steps[0]
        n = n_cols - 2
        assert lower == upper == 2 * STATE_DIM - 1 and ab.shape[1] == n
        assert damping == DAMPING_INIT
        np.testing.assert_array_equal(rhs[:, 0], -b[:n])
        got = np.zeros((n_cols, n_cols))
        got[:n, :n] = densify_band(ab)
        got[:n, n:] = rhs[:, 1:]
        got[n:, :n] = rhs[:, 1:].T
        got[n:, n:] = grav[n:] + damping * np.eye(2)
        # duplicates are summed in another order: ulps of the largest entry
        expected = expected.toarray()
        np.testing.assert_allclose(got, expected, rtol=0.0,
                                   atol=1e-14 * np.abs(expected).max())
        np.testing.assert_array_equal(ab, band_storage(got[:n, :n], lower))
        lone_col = STATE_DIM * (4 - first)
        assert got[lone_col, lone_col] == DAMPING_INIT

    def test_reported_costs_are_the_cost_at_the_states(self, rng):
        """initial_cost and final_cost are the cost at the starting and the
        returned states, as a solve that frees no state reports it, bit for
        bit, on a graph with every factor kind."""
        graph = self.mixed_graph(rng)
        graph.add_factor(OdometryFactor(2, 3, Pose.identity(), 1e2 * np.eye(6)))
        graph.add_factor(ZeroVelocityFactor(3, 1e2 * np.eye(3)))
        graph.add_factor(BiasPriorFactor(0, np.zeros(6), 1e2 * np.eye(6)))
        assert {f.kind for f in graph.factors} == {
            "prior", "odometry", "map", "gravity", "zero_velocity",
            "bias_walk", "bias_prior", "imu"}
        start = graph.optimize(first=len(graph.states)).final_cost
        result = graph.optimize()
        assert sum(r.accepted for r in result.records) > 1
        assert result.initial_cost == start
        assert result.final_cost == graph.optimize(
            first=len(graph.states)).final_cost

    def test_residual_once_per_kind_per_trial(self, rng, monkeypatch):
        """Each factor class's residual runs once per trial cost and not
        for the initial cost, which the first linearization gives; its
        linearize runs once per assembly, the first and one per accepted
        step."""
        graph = self.mixed_graph(rng)
        graph.add_factor(OdometryFactor(2, 3, Pose.identity(), 1e2 * np.eye(6)))
        graph.add_factor(ZeroVelocityFactor(3, 1e2 * np.eye(3)))
        graph.add_factor(BiasPriorFactor(0, np.zeros(6), 1e2 * np.eye(6)))
        classes = {type(f) for f in graph.factors}
        assert len(classes) == 8
        calls = counted_methods(monkeypatch, classes)
        trials = []
        real_retract = graph_module.retract_state
        monkeypatch.setattr(graph_module, "retract_state",
                            lambda *a: trials.append(a) or real_retract(*a))
        result = graph.optimize()
        accepted = sum(r.accepted for r in result.records)
        assert len(trials) >= accepted > 1
        for cls in classes:
            assert calls[cls.kind, "residual"] == len(trials)
            assert calls[cls.kind, "linearize"] == 1 + accepted

    @pytest.mark.parametrize("cap", [1, 2])
    def test_capped_solve_linearizes_once_per_iteration(self, rng,
                                                        monkeypatch, cap):
        """A solve that stops at its cap linearizes once per iteration: no
        system is assembled after the last step, which nothing would
        solve."""
        graph = self.mixed_graph(rng)
        classes = {type(f) for f in graph.factors}
        calls = counted_methods(monkeypatch, classes, ("linearize",))
        result = graph.optimize(max_iterations=cap)
        assert result.iterations == cap and not result.converged
        assert all(rec.accepted for rec in result.records)
        for cls in classes:
            assert calls[cls.kind, "linearize"] == cap

    @pytest.mark.parametrize("window", [0, 2])
    def test_incremental_solve_is_one_step_of_one_linearization(
            self, rng, monkeypatch, window):
        """solve_incremental takes one LM iteration over its window and
        linearizes each factor class in the window once."""
        graph = self.mixed_graph(rng)
        gt = compose(graph.states[3].pose, exp_map(
            np.array([0.0, 0.0, 0.02, 0.1, 0.0, 0.0])))
        pre = preintegrate(stationary_window(gt.rotation, 1.5, duration=0.5),
                           np.zeros(6))
        new = [OdometryFactor(3, 4, between(graph.states[3].pose, gt),
                              1e2 * np.eye(6)),
               ImuFactor(3, 4, pre, 1e1 * np.eye(9), gravity_magnitude=G_MAG),
               BiasWalkFactor(3, 4, 1e2 * np.eye(6))]
        classes = {type(f) for f in graph.factors + new}
        calls = counted_methods(monkeypatch, classes, ("linearize",))
        result = graph.solve_incremental(
            StateNode.at(perturbed(gt, rng, 0.02, 0.05), 2.0), new,
            window=window)
        assert result.iterations == len(result.records) == 1
        first = 0 if window == 0 else len(graph.states) - window
        for cls in classes:
            active = any(max(f.indices) >= first for f in graph.factors
                         if type(f) is cls)
            assert calls[cls.kind, "linearize"] == int(active)

    def test_model_decrease_from_the_step_at_every_trial(self, rng,
                                                          monkeypatch):
        """At every damping trial of a solve with gravity, the predicted
        decrease from the step alone, (damping |delta|^2 - delta^T b) / 2,
        equals -(delta^T b + delta^T H delta / 2), with H and b built
        densely at the states that trial's system was linearized at."""
        graph = self.mixed_graph(rng)
        points, trials = [], []
        real_linearize = PriorFactor.linearize

        def linearize(self, states, gravity):
            points.append(SimpleNamespace(states=states, gravity=gravity,
                                          factors=graph.factors))
            return real_linearize(self, states, gravity)

        real_step = graph_module._damped_step

        def damped_step(lower, grav, b, damping):
            delta = real_step(lower, grav, b, damping)
            trials.append((points[-1], delta, damping, b))
            return delta

        monkeypatch.setattr(PriorFactor, "linearize", linearize)
        monkeypatch.setattr(graph_module, "_damped_step", damped_step)
        result = graph.optimize(first=1)
        assert sum(r.accepted for r in result.records) > 1
        assert len(trials) >= len(points) > 2
        # b falls by orders of magnitude as the solve converges; its
        # rounding stays that of the first
        b_scale = np.abs(trials[0][3]).max()
        for point, delta, damping, b in trials:
            h, dense_b = dense_normal_equations(point, 1, use_gravity=True)
            np.testing.assert_allclose(b, dense_b, rtol=0,
                                       atol=1e-12 * b_scale)
            assert 0.5 * (damping * (delta @ delta) - delta @ b) \
                == pytest.approx(-(delta @ dense_b + 0.5 * delta @ h @ delta),
                                 rel=1e-9)

    @pytest.mark.parametrize("first", [4, 0])
    def test_free_state_without_factor_converges(self, rng, first):
        graph = self.mixed_graph(rng)
        lone = graph.states[3]
        graph.add_state(StateNode.at(lone.pose, lone.timestamp + 0.5))
        result = graph.optimize(first=first)
        assert result.converged
        np.testing.assert_allclose(graph.states[4].pose.matrix(),
                                   lone.pose.matrix(), atol=1e-12)


class TestBandedSolve:
    """The band, border and corner solve against dense linear algebra."""

    @staticmethod
    def random_system(rng, n, u, n_border):
        """A symmetric indefinite H whose first n columns are banded with u
        diagonals on each side, bordered by n_border dense columns, and a
        right-hand side b."""
        a = rng.normal(size=(n + n_border,) * 2)
        h = a + a.T
        i, j = np.indices((n, n))
        h[:n, :n][np.abs(i - j) > u] = 0.0
        return h, rng.normal(size=n + n_border)

    @pytest.mark.parametrize("n_border", [0, 2])
    @pytest.mark.parametrize("n, u", [(45, 29), (30, 29), (15, 14)])
    def test_damped_step_and_model_decrease_match_dense(self, rng, n, u,
                                                        n_border):
        """The step against a dense solve, and the predicted decrease that
        optimize takes from it, (damping |delta|^2 - delta^T b) / 2, against
        the model decrease -(delta^T b + delta^T H delta / 2) with dense H."""
        h, b = self.random_system(rng, n, u, n_border)
        lower = np.asfortranarray(band_storage(h[:n, :n], u)[u:])
        grav = h[:, n:] if n_border else None
        damping = 0.1
        want = np.linalg.solve(h + damping * np.eye(len(b)), -b)
        got = graph_module._damped_step(lower, grav, b, damping)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-10 * np.abs(want).max())
        assert 0.5 * (damping * (got @ got) - got @ b) == pytest.approx(
            -(got @ b + 0.5 * got @ h @ got), rel=1e-9)

    @staticmethod
    def spanning_graph(rng, info):
        """A 6-state chain plus a factor between states 0 and 3."""
        gt = chain_poses(6)
        rels = [compose(exp_map(random_twist(rng, 0.02, 0.05)),
                        between(gt[k], gt[k + 1])) for k in range(5)]
        graph = build_chain_graph(gt, rels, [perturbed(p, rng) for p in gt])
        graph.add_factor(OdometryFactor(0, 3, between(gt[0], gt[3]),
                                        info * np.eye(6)))
        return graph

    @pytest.mark.parametrize("first, free_states, span", [
        (0, 6, 3),  # the band spans the factor between states 0 and 3
        (3, 3, 3),  # that factor reaches fixed state 0: clamped to 45
        (5, 1, 1),  # only odometry 4-5 is active: clamped to 15
    ])
    def test_step_matches_dense_for_wide_and_clamped_bands(
            self, rng, monkeypatch, first, free_states, span):
        graph = self.spanning_graph(rng, 1e3)
        h, b = dense_normal_equations(graph, first, use_gravity=False)
        damped = h + DAMPING_INIT * np.eye(len(b))
        delta = np.linalg.solve(damped, -b)
        expected = graph.states[:first].join(retract_state(
            graph.states[first:], delta.reshape(-1, STATE_DIM)))
        solves = counted_splu(monkeypatch)
        result = graph.optimize(first=first, max_iterations=1)
        assert result.records[0].accepted
        (lower, upper), ab, _ = solves[0][0]
        width = min(STATE_DIM * (span + 1), STATE_DIM * free_states)
        assert lower == upper == width - 1
        assert ab.shape == (2 * width - 1, STATE_DIM * free_states)
        np.testing.assert_allclose(densify_band(ab), damped, rtol=0,
                                   atol=1e-14 * np.abs(damped).max())
        for got, want in zip(graph.states, expected):
            np.testing.assert_allclose(got.pose.matrix(), want.pose.matrix(),
                                       atol=1e-10)

    def test_failure_at_every_damping_names_a_state(self, rng, monkeypatch):
        """A solve whose every damping trial fails raises SingularSystem
        naming the state with the smallest diagonal entry, after one splu
        call per damping level."""
        graph = TestAssemblyOracle().mixed_graph(rng)
        lone = graph.states[3]
        graph.add_state(StateNode.at(lone.pose, lone.timestamp + 0.5))
        calls = []

        def singular(*args, **kwargs):
            calls.append(None)
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(graph_module, "splu", singular)
        with pytest.raises(SingularSystem, match="at all damping levels") \
                as exc:
            graph.optimize()
        assert exc.value.state_index == 4  # no factor touches it
        assert len(calls) == 13  # DAMPING_INIT to DAMPING_MAX by tens


def sphere_points():
    """Unit vectors near each signed axis, and on both sides of each tie
    between the two smallest magnitudes, where gravity_basis switches the
    axis it crosses g with."""
    rng = np.random.default_rng(7)
    points = {f"{'+-'[sign < 0]}{'xyz'[a]}": sign * axis
              + 0.05 * rng.normal(size=3)
              for a, axis in enumerate(np.eye(3)) for sign in (1.0, -1.0)}
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for tie, side in ((-1e-9, "below"), (0.0, "at"), (1e-9, "above")):
            g = np.empty(3)
            g[[i, j, k]] = 0.3, -0.3 - tie, -0.9
            points[f"{'xyz'[i]}{'xyz'[j]}-{side}"] = g
    return [pytest.param(g / np.linalg.norm(g), id=name)
            for name, g in points.items()]


@pytest.mark.parametrize("g", sphere_points())
class TestGravitySphere:
    """Gravity is a point on S^2: 2 tangent columns along gravity_basis, a
    retraction that keeps it a unit vector, and solves that keep it one."""

    def test_basis_is_orthonormal_and_tangent(self, g):
        basis = gravity_basis(g)
        assert basis.shape == (3, 2)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(g @ basis, 0.0, rtol=0, atol=1e-15)

    def test_retraction_keeps_unit_norm(self, g):
        rng = np.random.default_rng(11)
        for scale in (1e-9, 1e-4, 0.1, 1.0, 3.0):
            moved = retract_gravity(g, scale * rng.normal(size=2))
            assert abs(np.linalg.norm(moved) - 1.0) <= 1e-15

    def test_retraction_derivative_is_basis(self, g, eps=1e-6):
        fd = np.column_stack([
            (retract_gravity(g, eps * e) - retract_gravity(g, -eps * e))
            / (2 * eps) for e in np.eye(2)])
        np.testing.assert_allclose(fd, gravity_basis(g), rtol=0, atol=1e-8)

    def test_every_solve_keeps_gravity_on_the_sphere(self, g, rng):
        graph = TestAssemblyOracle().mixed_graph(rng, gravity=g)
        for first in (3, 2, 0, 0):
            graph.optimize(first=first, max_iterations=3)
            assert abs(np.linalg.norm(graph.gravity) - 1.0) <= 1e-14


class TestErrors:
    @pytest.mark.parametrize("gravity", [
        (0.0, 0.0, 0.0), (np.nan, 0.0, -1.0), (0.0, np.inf, -1.0),
        (1e-200, 0.0, 0.0), (0.0, -1.0), (0.0, 0.0, -1.0, 0.0),
        [[0.0, 0.0, -1.0]]])
    def test_bad_gravity_raises_naming_it(self, gravity):
        with pytest.raises(ValueError, match="^gravity must be"):
            FactorGraph(gravity=gravity)

    def test_not_anchored(self, rng):
        graph = FactorGraph()
        graph.add_state(StateNode.at(random_pose(rng), 0.0))
        graph.add_state(StateNode.at(random_pose(rng), 0.1))
        graph.add_factor(OdometryFactor(0, 1, random_pose(rng), np.eye(6)))
        with pytest.raises(NotAnchored):
            graph.optimize()

    def test_fixed_state_counts_as_anchor(self, rng):
        graph = FactorGraph()
        graph.add_state(StateNode.at(random_pose(rng), 0.0))
        graph.add_state(StateNode.at(random_pose(rng), 0.1))
        graph.add_factor(OdometryFactor(0, 1, random_pose(rng), np.eye(6)))
        result = graph.optimize(first=1)
        assert result.converged

    def test_index_out_of_range(self, rng):
        graph = FactorGraph()
        graph.add_state(StateNode.at(random_pose(rng), 0.0))
        with pytest.raises(IndexOutOfRange):
            graph.add_factor(PriorFactor(3, random_pose(rng), np.eye(6)))

    def test_empty_graph(self):
        with pytest.raises(NotAnchored):
            FactorGraph().optimize()

    def test_singular_system_on_nonfinite(self, rng):
        graph = FactorGraph()
        graph.add_state(StateNode.at(random_pose(rng), 0.0))
        graph.add_state(StateNode(random_pose(rng),
                                  np.array([np.nan, 0.0, 0.0]),
                                  np.zeros(6), 0.1))
        graph.add_factor(PriorFactor(0, graph.states[0].pose, np.eye(6)))
        graph.add_factor(ZeroVelocityFactor(1, np.eye(3)))
        with pytest.raises(SingularSystem) as exc:
            graph.optimize()
        assert exc.value.state_index == 1


    def test_nonfinite_blames_first_bad_row_of_a_stack(self, rng):
        """Five zero-velocity factors form one stack; the error names the
        state of its first non-finite row, not the stack's first state."""
        graph = FactorGraph()
        for k in range(5):
            velocity = [np.nan, 0.0, 0.0] if k >= 3 else np.zeros(3)
            graph.add_state(StateNode(random_pose(rng), velocity, np.zeros(6),
                                      0.1 * k))
        graph.add_factor(PriorFactor(0, graph.states[0].pose, np.eye(6)))
        for k in range(5):
            graph.add_factor(ZeroVelocityFactor(k, np.eye(3)))
        with pytest.raises(SingularSystem) as exc:
            graph.optimize()
        assert exc.value.state_index == 3
        assert "zero_velocity" in str(exc.value)


class TestIncremental:
    def test_incremental_matches_batch_on_exact_data(self, rng):
        gt = chain_poses(12)
        rels = [between(gt[k], gt[k + 1]) for k in range(11)]
        init = [perturbed(p, rng, 0.02, 0.05) for p in gt]

        batch = build_chain_graph(gt, rels, init)
        batch.optimize()

        inc = FactorGraph()
        inc.add_state(StateNode.at(init[0], 0.0))
        inc.add_factor(PriorFactor(0, gt[0], 1e6 * np.eye(6)))
        inc.optimize()
        for k in range(1, 12):
            inc.solve_incremental(
                StateNode.at(init[k], 0.1 * k),
                [OdometryFactor(k - 1, k, rels[k - 1], 1e4 * np.eye(6))],
                window=3)
        inc.optimize()  # final full batch
        for k in range(12):
            assert pose_error(inc.states[k].pose, batch.states[k].pose) < 1e-6
            assert pose_error(inc.states[k].pose, gt[k]) < 1e-6

    def test_window_zero_frees_every_state(self, rng):
        """With window 0 each incremental step moves every state, the
        first included; the final batch solve then reaches ground truth."""
        gt = chain_poses(5)
        rels = [between(gt[k], gt[k + 1]) for k in range(4)]
        graph = FactorGraph()
        graph.add_state(StateNode.at(perturbed(gt[0], rng), 0.0))
        graph.add_factor(PriorFactor(0, gt[0], 1e6 * np.eye(6)))
        for k in range(1, 5):
            before = graph.states.translation.copy()
            result = graph.solve_incremental(
                StateNode.at(perturbed(gt[k], rng), 0.1 * k),
                [OdometryFactor(k - 1, k, rels[k - 1], 1e4 * np.eye(6))],
                window=0)
            assert result.iterations == 1
            assert np.all(graph.states.translation[:k] != before)
        assert graph.optimize().converged
        for k in range(5):
            assert pose_error(graph.states[k].pose, gt[k]) < 1e-6


def stationary_window(rotation, t0, duration=0.5, rate=100.0):
    n = int(duration * rate) + 1
    a_body = rotation.T @ (-G_WORLD)
    return imu_stream(t0 + np.arange(n) / rate, np.zeros(3), a_body)


class TestFullStateEstimation:
    def test_stationary_sequence_recovers_everything(self, rng):
        gt_pose = random_pose(rng, rot_scale=0.8, trans_scale=2.0)
        rot = gt_pose.rotation
        n = 6
        dt = 0.5
        graph = FactorGraph(gravity=DOWN + 0.05 * rng.normal(size=3))
        for k in range(n):
            graph.add_state(StateNode(
                perturbed(gt_pose, rng, 0.03, 0.05),
                0.05 * rng.normal(size=3),
                np.concatenate([0.01 * rng.normal(size=3),
                                0.005 * rng.normal(size=3)]),
                dt * k))
        graph.add_factor(PriorFactor(0, gt_pose, 1e6 * np.eye(6)))
        grav_info = 1e4 * np.eye(3)
        a_mean = rot.T @ (-G_WORLD)
        for k in range(n):
            graph.add_factor(ZeroVelocityFactor(k, 1e4 * np.eye(3)))
            graph.add_factor(GravityFactor(k, a_mean, grav_info))
        for k in range(n - 1):
            graph.add_factor(OdometryFactor(k, k + 1, Pose.identity(),
                                            1e4 * np.eye(6)))
            graph.add_factor(BiasWalkFactor(k, k + 1, 1e6 * np.eye(6)))
            window = stationary_window(rot, dt * k, duration=dt)
            pre = preintegrate(window, np.zeros(6))
            graph.add_factor(ImuFactor(k, k + 1, pre, 1e2 * np.eye(9),
                                       gravity_magnitude=G_MAG))
        result = graph.optimize()
        assert result.converged
        assert result.final_cost < 1e-10
        assert np.allclose(graph.gravity, DOWN, atol=1e-5)
        for k in range(n):
            assert pose_error(graph.states[k].pose, gt_pose) < 1e-5
            assert np.linalg.norm(graph.states[k].velocity) < 1e-5
            assert np.linalg.norm(graph.states[k].bias[:3]) < 1e-4
            assert np.linalg.norm(graph.states[k].bias[3:]) < 1e-4

    def test_velocity_recovery_under_constant_acceleration(self, rng):
        a_world = np.array([0.2, 0.0, 0.0])
        n = 5
        dt = 0.5
        rate = 200.0
        gt_pos = [0.5 * a_world * (dt * k) ** 2 for k in range(n)]
        gt_vel = [a_world * dt * k for k in range(n)]
        gt = [Pose(np.eye(3), p) for p in gt_pos]

        graph = FactorGraph(gravity=DOWN.copy())
        for k in range(n):
            graph.add_state(StateNode(gt[k], np.zeros(3), np.zeros(6),
                                      dt * k))
        graph.add_factor(PriorFactor(0, gt[0], 1e6 * np.eye(6)))
        graph.add_factor(ZeroVelocityFactor(0, 1e6 * np.eye(3)))
        a_body = a_world - G_WORLD  # identity attitude
        for k in range(n - 1):
            graph.add_factor(OdometryFactor(k, k + 1, between(gt[k], gt[k + 1]),
                                            1e4 * np.eye(6)))
            graph.add_factor(BiasWalkFactor(k, k + 1, 1e8 * np.eye(6)))
            m = int(dt * rate) + 1
            samples = imu_stream(dt * k + np.arange(m) / rate, np.zeros(3),
                                 a_body)
            pre = preintegrate(samples, np.zeros(6))
            graph.add_factor(ImuFactor(k, k + 1, pre, 1e1 * np.eye(9),
                                       gravity_magnitude=G_MAG))
        result = graph.optimize()
        assert result.converged
        for k in range(n):
            assert np.linalg.norm(graph.states[k].velocity - gt_vel[k]) < 1e-4
            assert pose_error(graph.states[k].pose, gt[k]) < 1e-4
        assert np.array_equal(graph.gravity, DOWN)

    def test_gravity_frozen_without_gravity_factor(self, rng):
        # IMU factors couple to gravity but cannot anchor it: with free
        # biases a common shift of (b_a, R^T g) leaves their residuals
        # unchanged, so gravity must stay a constant unless a gravity
        # factor is present.
        g0 = DOWN + 0.02 * rng.normal(size=3)
        graph = FactorGraph(gravity=g0.copy())
        dt = 0.5
        for k in range(4):
            graph.add_state(StateNode(Pose.identity(), np.zeros(3),
                                      np.zeros(6), dt * k))
        graph.add_factor(PriorFactor(0, Pose.identity(), 1e6 * np.eye(6)))
        for k in range(3):
            window = stationary_window(np.eye(3), dt * k, duration=dt)
            pre = preintegrate(window, np.zeros(6))
            graph.add_factor(ImuFactor(k, k + 1, pre, 1e2 * np.eye(9),
                                       gravity_magnitude=G_MAG))
        graph.optimize()
        assert np.array_equal(graph.gravity, g0 / np.linalg.norm(g0))

    def test_gravity_factor_frees_gravity(self, rng):
        g0 = DOWN + 0.02 * rng.normal(size=3)
        graph = FactorGraph(gravity=g0.copy())
        graph.add_state(StateNode(Pose.identity(), np.zeros(3), np.zeros(6),
                                  0.0))
        graph.add_factor(PriorFactor(0, Pose.identity(), 1e6 * np.eye(6)))
        graph.add_factor(GravityFactor(0, -G_WORLD, 1e4 * np.eye(3)))
        result = graph.optimize()
        assert result.converged
        assert abs(np.linalg.norm(graph.gravity) - 1.0) < 1e-6
        assert np.linalg.norm(graph.gravity - DOWN) < 1e-6
