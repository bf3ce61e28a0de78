"""Factor-graph state estimation with banded Levenberg-Marquardt.

Each node contributes 15 tangent columns ([rot, trans, vel, bias], the bias
being [b_a; b_g]); the shared gravity direction, a point on the unit sphere,
appends 2 more along a basis of its tangent plane when a gravity-measuring
factor is active (Qin, Li & Shen 2018). A solve frees a trailing window, the
states from one index onward; the states before it stay fixed. Factors
touching at least one free state are still evaluated, their fixed-state
blocks just drop out of the normal equations.

The states are stacked arrays (factors.States), and the graph linearizes
by kind (Kuemmerle et al. 2011; Dellaert & Kaess 2017): per solve, the
active factors of each class, picked by their highest state index, are
stacked into one batched factor, so each linearization or trial cost makes
one linearize or residual call per class, and a step retracts every free
state in one batched update.

Every factor touches states at most s indices apart (s = 1 in the
pipeline), so H over the states is a band 15 (s + 1) columns wide, bordered
by gravity's 2 columns and their 2x2 corner (Dellaert & Kaess 2006). J^T W J
and J^T W r come from batched matmuls and reach the band, border and corner
through one bincount, each entry's slot fixed by arithmetic on its state
offset. Each damping trial factors the band once by a pivoted banded LU
with the border as extra right-hand sides, and solves gravity through its
2x2 Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# perfbench's tracer times the banded solve under this module-level name
from scipy.linalg import solve_banded as splu

from .errors import IndexOutOfRange, NotAnchored, SingularSystem
from .factors import STATE_DIM, StateNode, States, retract_state
from .geometry import matvec, so3_exp

DAMPING_INIT = 1e-6
DAMPING_MIN = 1e-9
DAMPING_MAX = 1e6
MAX_ITERATIONS = 50
REL_COST_TOL = 1e-9
STEP_TOL = 1e-10


@dataclass
class IterationRecord:
    iteration: int
    cost: float
    damping: float
    step_norm: float
    accepted: bool


@dataclass
class OptimizeResult:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    records: list


def _total(stacks, residuals) -> float:
    """0.5 * sum of r^T W r over the stacked factors, given their
    residuals, W being each factor's information."""
    return sum(0.5 * float(np.einsum("fi,fij,fj->", r, s.information, r))
               for s, r in zip(stacks, residuals))


def _nonfinite(stacks, h_vals, b_vals) -> SingularSystem:
    """The error naming the first factor, by class and then by row of its
    class's stack, whose J^T W J or J^T W r block is not finite."""
    for stack, h, g in zip(stacks, h_vals, b_vals):
        bad = ~(np.isfinite(h).all(axis=(1, 2)) & np.isfinite(g).all(axis=1))
        if bad.any():
            return SingularSystem(
                f"factor '{stack.kind}' produced non-finite values",
                state_index=int(stack.indices[0][np.argmax(bad)]))
    return SingularSystem("normal equations overflowed")  # finite blocks


def _damped_step(lower, grav, b, damping):
    """The step solving (H + damping I) delta = -b. H's state block is
    symmetric, given by its lower band, lower[r - c, c] = H[r, c] for the
    u = len(lower) - 1 diagonals below the main one, and grav = H[:, n:]
    holds its gravity columns (None without gravity): the border over the
    n state columns and the 2x2 corner. The band, mirrored into LAPACK's
    general band storage, is factored once by a pivoted LU (gbsv), which
    stays usable where the rounded H is not positive definite, with the
    border as extra right-hand sides; gravity then comes from its 2x2
    Schur complement and the states by back-substitution."""
    u, n = lower.shape[0] - 1, lower.shape[1]
    band = np.zeros((2 * u + 1, n), order="F")  # band[u + r - c, c]
    band[u:] = lower
    for k in range(1, u + 1):
        band[u - k, k:] = lower[k, :-k]
    band[u] += damping
    # assemble() refused non-finite blocks, so the solve need not check
    if grav is None:
        return splu((u, u), band, -b, check_finite=False)
    border = grav[:n]
    x = splu((u, u), band, np.column_stack([-b[:n], border]),
             check_finite=False)
    g = np.linalg.solve(grav[n:] + damping * np.eye(2) - border.T @ x[:, 1:],
                        -b[n:] - border.T @ x[:, 0])
    return np.concatenate([x[:, 0] - x[:, 1:] @ g, g])


def gravity_basis(g):
    """3x2 orthonormal basis B of the plane orthogonal to the unit vector g:
    its cross products with the axis that g is least aligned with."""
    b1 = np.cross(g, np.eye(3)[np.argmin(np.abs(g))])
    b1 /= np.linalg.norm(b1)
    return np.column_stack([b1, np.cross(g, b1)])


def retract_gravity(g, delta):
    """The box-plus of S^2 (Hertzberg et al. 2013): g turned by
    exp([g x B delta]x), whose derivative at delta = 0 is B."""
    g = so3_exp(np.cross(g, gravity_basis(g) @ delta)) @ g
    return g / np.linalg.norm(g)


class FactorGraph:
    def __init__(self, gravity=(0.0, 0.0, -1.0)):
        self.states = States.of([])
        self.factors: list = []
        # per factor class, in the order first added: its factors and the
        # highest state index of each, which selects the active ones
        self._kinds: dict = {}
        g = np.asarray(gravity, dtype=float)
        norm = np.linalg.norm(g) if g.shape == (3,) else 0.0
        if not 0.0 < norm < np.inf:
            raise ValueError(f"gravity must be a 3-vector of finite non-zero "
                             f"norm, got {gravity!r}")
        self.gravity = g / norm

    def add_state(self, state: StateNode) -> int:
        self.states = self.states.join(States.of([state]))
        return len(self.states) - 1

    def add_factor(self, factor):
        for idx in factor.indices:
            if not 0 <= idx < len(self.states):
                raise IndexOutOfRange(
                    f"factor '{factor.kind}' references state {idx}, "
                    f"graph has {len(self.states)}")
        self.factors.append(factor)
        members, last = self._kinds.setdefault(type(factor), ([], []))
        members.append(factor)
        last.append(max(factor.indices))

    def optimize(self, first=0, max_iterations=MAX_ITERATIONS) -> OptimizeResult:
        """Levenberg-Marquardt over the states from index `first` onward;
        first == len(states) frees none and only evaluates the cost."""
        n = len(self.states)
        if not n:
            raise NotAnchored("graph has no states")
        if not 0 <= first <= n:
            raise IndexOutOfRange(f"first free index {first} out of range")
        if first == 0 and not any(cls.kind == "prior" for cls in self._kinds):
            raise NotAnchored("no prior factor and no fixed state")

        # the factors touching a free state, one batched factor per class
        stacks = []
        for cls, (members, last) in self._kinds.items():
            rows = np.flatnonzero(np.asarray(last) >= first)
            if rows.size:
                stacks.append(cls.stack([members[k] for k in rows]))
        if not stacks:  # no free state, or none that a factor touches
            stacks = [cls.stack(members)
                      for cls, (members, _) in self._kinds.items()]
            c = _total(stacks, [s.residual(self.states, self.gravity)
                                for s in stacks])
            return OptimizeResult(c, c, 0, True, [])
        n_free = STATE_DIM * (n - first)  # the band's columns
        # Gravity becomes a variable only when a factor that measures it is
        # active. IMU factors couple to gravity but cannot anchor it: with
        # biases free the pair is a gauge and both would drift together.
        use_gravity = any(s.kind == "gravity" for s in stacks)
        n_cols = n_free + (2 if use_gravity else 0)

        # Each factor adds one dense block J^T W J over its states' columns
        # and gravity's (zeros if it has no gravity block) while gravity is
        # a variable. A factor's states lie within `span` indices of each
        # other, so the entries between two state columns lie within u of
        # H's diagonal; the width is clamped to the free columns, which a
        # factor reaching a fixed state would exceed. The entries on or
        # below the diagonal go to the lower band, in Fortran order,
        # lower[r - c, c] = H[r, c]; gravity's columns go to grav =
        # H[:, n_free:], the border over the states and the 2x2 corner
        # below it. Each entry's slot is plain arithmetic on its row r and
        # column c. The rest goes to the dump slot past the end: entries
        # with a fixed state's row or column, and the mirrors of lower band
        # and border entries, which makes H exactly symmetric; so does a
        # fixed state's b row.
        span = max(int(np.ptp(np.stack(s.indices), axis=0).max())
                   for s in stacks)
        u = min(STATE_DIM * (span + 1), n_free) - 1
        band_size = (u + 1) * n_free
        dump = band_size + (2 * n_cols if use_gravity else 0)
        entry_slots, b_rows = [], []
        for stack in stacks:
            cols = [np.where((idx >= first)[:, None], (idx - first)[:, None]
                             * STATE_DIM + np.arange(STATE_DIM), -1)
                    for idx in stack.indices]
            if use_gravity:
                cols.append(np.broadcast_to(np.arange(n_free, n_cols),
                                            (len(cols[0]), 2)))
            cols = np.concatenate(cols, axis=1)
            r, c = cols[:, :, None], cols[:, None, :]
            slot = np.where(c < n_free, r + u * c,
                            band_size + 2 * r + c - n_free)
            slot[(r < 0) | (c < 0)
                 | ((c < n_free) & ((r < c) | (r >= n_free)))] = dump
            entry_slots.append(slot.ravel())
            b_rows.append(np.where(cols < 0, n_cols, cols).ravel())
        entry_slots = np.concatenate(entry_slots)
        b_rows = np.concatenate(b_rows)

        states = self.states
        gravity = self.gravity.copy()

        def assemble():
            """H's lower band and gravity columns (None without gravity),
            b and each stack's residuals at the current states."""
            basis = gravity_basis(gravity) if use_gravity else None
            residuals, h_vals, b_vals = [], [], []
            for stack in stacks:
                r, jacs, g_block = stack.linearize(states, gravity)
                parts = list(jacs)
                if use_gravity:
                    parts.append(np.zeros(r.shape + (2,)) if g_block is None
                                 else g_block @ basis)
                jac = np.concatenate(parts, axis=-1)
                jtw = np.swapaxes(jac, -1, -2) @ stack.information
                residuals.append(r)
                h_vals.append(jtw @ jac)
                b_vals.append(matvec(jtw, r))
            data = np.bincount(entry_slots, minlength=dump + 1, weights=
                               np.concatenate([h.ravel() for h in h_vals]))
            b = np.bincount(b_rows, minlength=n_cols + 1, weights=
                            np.concatenate([g.ravel() for g in b_vals]))
            data, b = data[:dump], b[:n_cols]
            if not (np.isfinite(data).all() and np.isfinite(b).all()):
                raise _nonfinite(stacks, h_vals, b_vals)
            lower = data[:band_size].reshape(u + 1, n_free, order="F")
            grav = data[band_size:].reshape(n_cols, 2) if use_gravity \
                else None
            return lower, grav, b, residuals

        def apply_step(delta):
            moved = retract_state(states[first:],
                                  delta[:n_free].reshape(-1, STATE_DIM))
            new_gravity = gravity
            if use_gravity:
                new_gravity = retract_gravity(gravity, delta[n_free:])
            return states[:first].join(moved), new_gravity

        lower, grav, b_vec, residuals = assemble()
        initial_cost = cost = _total(stacks, residuals)
        damping = DAMPING_INIT
        records = []
        converged = False

        for it in range(max_iterations):
            accepted = False
            solver_produced_step = False
            step_norm = 0.0
            while damping <= DAMPING_MAX:
                try:
                    delta = _damped_step(lower, grav, b_vec, damping)
                except np.linalg.LinAlgError:
                    delta = None
                if delta is None or not np.all(np.isfinite(delta)):
                    damping *= 10.0
                    continue
                solver_produced_step = True
                # The current states were just linearized, so a step whose
                # predicted decrease or trial cost overflows, or raises a
                # ValueError (LinAlgError included), is too large: it is
                # rejected like a trial with a non-finite cost.
                try:
                    with np.errstate(over="raise", invalid="raise"):
                        # Converged: the step or its predicted decrease,
                        # which (H + damping I) delta = -b gives from the
                        # step alone (Madsen et al. 2004, eq. 3.14), is
                        # negligible
                        predicted = 0.5 * (damping * (delta @ delta)
                                           - delta @ b_vec)
                        if np.abs(delta).max() < STEP_TOL \
                                or predicted <= REL_COST_TOL * cost:
                            break
                        trial_states, trial_gravity = apply_step(delta)
                        trial_cost = _total(stacks, [
                            s.residual(trial_states, trial_gravity)
                            for s in stacks])
                except (ValueError, FloatingPointError):
                    trial_cost = np.inf
                if np.isfinite(trial_cost) and trial_cost < cost:
                    states, gravity = trial_states, trial_gravity
                    step_norm = float(np.abs(delta).max())
                    cost = trial_cost
                    damping = max(damping * 0.5, DAMPING_MIN)
                    accepted = True
                    break
                damping *= 10.0
            records.append(IterationRecord(it, cost, damping, step_norm,
                                           accepted))
            if not accepted:
                if not solver_produced_step:
                    worst = int(np.argmin(lower[0]))
                    raise SingularSystem("linear solve failed at all damping "
                                         "levels",
                                         state_index=first + worst // STATE_DIM)
                converged = True  # by the step test, or out of damping
                break
            if it + 1 < max_iterations:
                lower, grav, b_vec, _ = assemble()

        self.states = states
        self.gravity = gravity
        return OptimizeResult(initial_cost, cost, len(records), converged,
                              records)

    def solve_incremental(self, state: StateNode, factors,
                          window: int = 0) -> OptimizeResult:
        """Append a state and its factors, then take one LM iteration over
        the `window` most recent states (all when 0): a next-keyframe seed."""
        self.add_state(state)
        for f in factors:
            self.add_factor(f)
        first = max(0, len(self.states) - window) if window > 0 else 0
        return self.optimize(first, max_iterations=1)
