"""Factor-graph state estimation with banded Levenberg-Marquardt.

Each node contributes 15 tangent columns ([rot, trans, vel, bias], the bias
being [b_a; b_g]); the shared gravity direction, a point on the unit sphere,
appends 2 more along a basis of its tangent plane when a gravity-measuring
factor is active (Qin, Li & Shen 2018). A solve frees a trailing window, the
states from one index onward; the states before it stay fixed. Factors
touching at least one free state are still evaluated, their fixed-state
blocks just drop out of the normal equations.

The states are stacked arrays (factors.States), and the graph linearizes
by kind (Kuemmerle et al. 2011; Dellaert & Kaess 2017). It keeps the
factors of each class stacked into one batched factor, grown by the
factors added since the last solve; a solve takes the active ones, picked
by their highest state index, as rows of it, views when they are
consecutive as a trailing window's are. So each linearization or trial
cost makes one linearize or residual call per class, and a step retracts
every free state in one batched update.

Every factor touches states at most s indices apart (s = 1 in the
pipeline), so H over the states is a band 15 (s + 1) columns wide, bordered
by gravity's 2 columns and their 2x2 corner (Dellaert & Kaess 2006). J^T W J
and J^T W r come from batched matmuls and reach the band, border and corner
through one bincount, each entry's slot fixed by arithmetic on its state
offset. A class's slots depend only on the band's size, on whether gravity
is a variable and on its active factors' state indices relative to the
first free one, so the graph keeps each class's slots from its last solve
that left a state fixed and reuses them while these repeat, as they mostly
do from one window solve to the next; like iSAM2 (Kaess et al. 2012) it
keeps what a new state leaves unchanged, here the bookkeeping only. A
solve allocates one buffer for the blocks, which each of its assemblies
overwrites, and one workspace in LAPACK's band layout. Each damping trial
writes the damped band into that workspace and factors it there in place
by a pivoted banded LU (dgbsv) with the border as extra right-hand sides,
and solves gravity through its 2x2 Schur complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
# perfbench's tracer times the banded solve under this module-level name
from scipy.linalg.lapack import dgbsv as splu

from .errors import IndexOutOfRange, NotAnchored, SingularSystem
from .factors import STATE_DIM, StateNode, States, retract_state
from .geometry import so3_exp

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


def _damped_step(ab, lower, grav, b, damping):
    """The step solving (H + damping I) delta = -b. H's state block is
    symmetric, given by its lower band, lower[r - c, c] = H[r, c] for the
    u = len(lower) - 1 diagonals below the main one, and grav = H[:, n:]
    holds its gravity columns (None without gravity): the border over the
    n state columns and the 2x2 corner. ab is a Fortran-ordered (3u + 1, n)
    workspace in LAPACK's gbsv layout, ab[2u + r - c, c] = H[r, c] below
    u rows for the LU's fill-in. The damped band, mirrored into it, is
    factored there in place by a pivoted LU (dgbsv), which stays usable
    where the rounded H is not positive definite, with the border as extra
    right-hand sides; gravity then comes from its 2x2 Schur complement and
    the states by back-substitution. Each call rewrites every entry the LU
    reads, so one workspace serves all the trials of a solve."""
    u, n = lower.shape[0] - 1, lower.shape[1]
    ab[2 * u:] = lower
    for k in range(1, u + 1):
        ab[2 * u - k, k:] = lower[k, :-k]
    ab[2 * u] += damping
    rhs = -b if grav is None else np.column_stack([-b[:n], grav[:n]])
    # assemble() refused non-finite blocks, so the solve need not check
    _, _, x, info = splu(u, u, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of gbsv")
    if grav is None:
        return x
    border = grav[:n]
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


def _rows(value, key):
    """value's rows `key`, views for a slice; a dataclass field by field."""
    if is_dataclass(value):
        return type(value)(*(_rows(getattr(value, f.name), key)
                             for f in fields(value)))
    return value[key]


def _append(buffer, rows, size):
    """buffer, of which the first `size` rows are kept, with rows written
    after them; when they do not fit, or need a wider dtype, into a new
    buffer of twice the rows needed. A dataclass field by field."""
    if is_dataclass(rows):
        return type(rows)(*(_append(getattr(buffer, f.name, None),
                                    getattr(rows, f.name), size)
                            for f in fields(rows)))
    end = size + len(rows)
    dtype = rows.dtype if buffer is None else np.result_type(buffer, rows)
    if buffer is None or end > len(buffer) or dtype != buffer.dtype:
        grown = np.empty((2 * end,) + rows.shape[1:], dtype)
        if buffer is not None:
            grown[:size] = buffer[:size]
        buffer = grown
    buffer[size:end] = rows
    return buffer


def _slot_map(rel, n_free, u, use_gravity):
    """Where a class's J^T W J entries (F, k, k) and J^T W r rows (F, k) go
    in the bincounts of optimize's assembly, given its F factors' state
    indices relative to the first free one, rel (one row per entry of
    ``indices``), the free columns n_free, the band's u and whether
    gravity is a variable, which adds 2 to each factor's k columns."""
    n_cols = n_free + (2 if use_gravity else 0)
    band_size = (u + 1) * n_free
    dump = band_size + (2 * n_cols if use_gravity else 0)
    cols = [np.where((idx >= 0)[:, None],
                     idx[:, None] * STATE_DIM + np.arange(STATE_DIM), -1)
            for idx in rel]
    if use_gravity:
        cols.append(np.broadcast_to(np.arange(n_free, n_cols),
                                    (len(cols[0]), 2)))
    cols = np.concatenate(cols, axis=1)
    r, c = cols[:, :, None], cols[:, None, :]
    slot = np.where(c < n_free, r + u * c, band_size + 2 * r + c - n_free)
    slot[(r < 0) | (c < 0)
         | ((c < n_free) & ((r < c) | (r >= n_free)))] = dump
    return slot, np.where(cols < 0, n_cols, cols)


def _views(buffer, shapes):
    """buffer's leading entries as consecutive views of the given shapes."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[at:at + size].reshape(shape))
        at += size
    return views


class _Store:
    """The factors of one class, kept between solves: all of them stacked
    into one batch, grown by the factors added since the last solve, the
    highest state index of each row, and the slot map of the class's last
    solve that left a state fixed, with its key."""

    def __init__(self, cls):
        self.cls = cls
        self.added = []     # not stacked yet
        self.size = 0       # rows stacked
        self.fields = {}    # field name -> rows, with spare capacity
        self.last = None    # highest state index of each row
        self.layout = None  # (key, (entry slots, b rows))

    def active(self, first):
        """The batched factors whose highest state index is `first` or
        more, None when there are none: views of the stacked batch when
        they are consecutive rows, as the factors of a trailing window
        are."""
        if self.added:
            new = self.cls.stack(self.added)
            self.last = _append(self.last, np.max(new.indices, axis=0),
                                self.size)
            self.fields = {name: _append(self.fields.get(name),
                                         getattr(new, name), self.size)
                           for name in self.cls._stacked}
            self.size += len(self.added)
            self.added = []
        rows = np.flatnonzero(self.last[:self.size] >= first)
        if not rows.size:
            return None
        if rows[-1] - rows[0] == rows.size - 1:
            rows = slice(rows[0], rows[-1] + 1)
        return self.cls.from_fields({name: _rows(value, rows)
                                     for name, value in self.fields.items()})

    def slots(self, stack, first, n_free, u, use_gravity):
        """_slot_map of the active factors in stack, reused while the key
        it depends on repeats. A solve that frees every state keeps none:
        its shape repeats only while no state is added, and it is the
        largest."""
        rel = np.stack(stack.indices) - first
        key = (n_free, u, use_gravity, rel.tobytes())
        if self.layout is not None and self.layout[0] == key:
            return self.layout[1]
        layout = _slot_map(rel, n_free, u, use_gravity)
        if first > 0:
            self.layout = (key, layout)
        return layout


class FactorGraph:
    def __init__(self, gravity=(0.0, 0.0, -1.0)):
        self.states = States.of([])
        self.factors: list = []
        self._kinds: dict = {}  # factor class -> _Store, in order first added
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
        cls = type(factor)
        if cls not in self._kinds:
            self._kinds[cls] = _Store(cls)
        self._kinds[cls].added.append(factor)

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
        active = [(store, stack) for store in self._kinds.values()
                  if (stack := store.active(first)) is not None]
        if not active:  # no free state, or none that a factor touches
            stacks = [store.active(0) for store in self._kinds.values()]
            c = _total(stacks, [s.residual(self.states, self.gravity)
                                for s in stacks])
            return OptimizeResult(c, c, 0, True, [])
        stacks = [stack for _, stack in active]
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
        # column c (_slot_map). The rest goes to the dump slot past the
        # end: entries with a fixed state's row or column, and the mirrors
        # of lower band and border entries, which makes H exactly
        # symmetric; so does a fixed state's b row.
        span = max(int(np.ptp(np.stack(s.indices), axis=0).max())
                   for s in stacks)
        u = min(STATE_DIM * (span + 1), n_free) - 1
        band_size = (u + 1) * n_free
        dump = band_size + (2 * n_cols if use_gravity else 0)
        slot_maps = [store.slots(stack, first, n_free, u, use_gravity)
                     for store, stack in active]
        h_shapes = [h.shape for h, _ in slot_maps]
        b_shapes = [g.shape + (1,) for _, g in slot_maps]
        entry_slots = np.concatenate([h.ravel() for h, _ in slot_maps])
        b_rows = np.concatenate([g.ravel() for _, g in slot_maps])
        del slot_maps  # before assembling, free the maps no store keeps
        # every class's J^T W J and J^T W r blocks, in the slots' order, in
        # one buffer each that every assembly of this solve overwrites
        h_data, b_data = np.empty(len(entry_slots)), np.empty(len(b_rows))
        h_vals, b_vals = _views(h_data, h_shapes), _views(b_data, b_shapes)
        # the band of every damping trial, factored in place
        ab = np.zeros((3 * u + 1, n_free), order="F")

        states = self.states
        gravity = self.gravity.copy()

        def assemble():
            """H's lower band and gravity columns (None without gravity),
            b and each stack's residuals at the current states."""
            basis = gravity_basis(gravity) if use_gravity else None
            residuals = []
            for stack, h, g in zip(stacks, h_vals, b_vals):
                r, jacs, g_block = stack.linearize(states, gravity)
                parts = list(jacs)
                if use_gravity:
                    parts.append(np.zeros(r.shape + (2,)) if g_block is None
                                 else g_block @ basis)
                jac = np.concatenate(parts, axis=-1)
                jtw = np.swapaxes(jac, -1, -2) @ stack.information
                residuals.append(r)
                np.matmul(jtw, jac, out=h)
                np.matmul(jtw, r[..., None], out=g)
            data = np.bincount(entry_slots, minlength=dump + 1,
                               weights=h_data)
            b = np.bincount(b_rows, minlength=n_cols + 1, weights=b_data)
            data, b = data[:dump], b[:n_cols]
            if not (np.isfinite(data).all() and np.isfinite(b).all()):
                raise _nonfinite(stacks, h_vals, [g[..., 0] for g in b_vals])
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
                    delta = _damped_step(ab, lower, grav, b_vec, damping)
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
