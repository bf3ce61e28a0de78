"""Per-layer tracing of a localize run, from outside the package.

The tracer replaces maploc functions and methods at runtime with wrappers
that record a span (name, parent span, start, end) around each call. Each
name is patched where its caller looks it up, e.g. ``maploc.pipeline.align``
rather than ``maploc.registration.align``, because pipeline imported the
name. Spans stay in memory; ``layer_metrics`` turns them into the per-layer
counts and times and ``check_coverage`` fails loudly when a hook never fired
or its count disagrees with the report, so a refactor that moves a call
breaks the traced run instead of reporting 0 s.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

from maploc import evaluate, factors, graph, io, pipeline, registration
from maploc.geometry import SpatialIndex


class CoverageError(RuntimeError):
    """A hook is gone, never fired, or fired a count the report contradicts."""


def _align_info(args, kwargs, result):
    return (result.iterations, len(result.correspondences))


def _optimize_info(args, kwargs, result):
    return (result.iterations, sum(1 for r in result.records if r.accepted))


def _knn_info(args, kwargs, result):
    return len(result[1])


def _preintegrate_info(args, kwargs, result):
    return len(args[0])


# (module or class, attribute, span name, info extractor)
_HOOKS = [
    (pipeline, "load_map", "pipeline.load_map", None),
    (pipeline, "load_sequence", "pipeline.load_sequence", None),
    (pipeline, "run", "pipeline.run", None),
    (pipeline, "emit_reports", "pipeline.emit_reports", None),
    (pipeline, "voxel_downsample", "pipeline.voxel_downsample", None),
    (pipeline, "align", "registration.align", _align_info),
    (pipeline, "reference_hessian", "degeneracy.reference_hessian", None),
    (pipeline, "spectrum", "degeneracy.spectrum", None),
    (pipeline, "detect", "degeneracy.detect", None),
    (pipeline, "preintegrate", "factors.preintegrate", _preintegrate_info),
    (pipeline, "detect_zupt", "factors.detect_zupt", None),
    (pipeline, "compute_metrics", "evaluate.compute_metrics", None),
    (pipeline, "estimate_normals", "geometry.estimate_normals", None),
    (pipeline, "build_index", "geometry.build_index", None),
    (registration, "find_correspondences", "registration.find_correspondences",
     None),
    (registration, "assemble_system", "registration.assemble_system", None),
    (graph, "splu", "graph.splu", None),
    (graph, "retract_state", "graph.retract_state", None),
    (graph.FactorGraph, "optimize", "graph.optimize", _optimize_info),
    (graph.FactorGraph, "solve_incremental", "graph.solve_incremental", None),
    (evaluate, "map_accuracy", "evaluate.map_accuracy", None),
    (evaluate, "map_completeness", "evaluate.map_completeness", None),
    (SpatialIndex, "knn", "geometry.knn", _knn_info),
]

# hooks that fire only on some inputs: normals are estimated only for a map
# without them, and ZUPT detection runs only while odometry stands still
_OPTIONAL = {"geometry.estimate_normals", "factors.detect_zupt"}

_IO_REQUIRED = {"read_cloud", "read_pcd", "read_tum", "read_imu_csv",
                "validate_config", "validate_report", "write_tum", "write_pcd",
                "write_json", "write_frames_csv", "write_metrics_csv"}

_IO_WRITES = ("write_tum", "write_pcd", "write_json", "write_frames_csv",
              "write_metrics_csv")


def _io_hooks():
    for name, obj in vars(io).items():
        if (inspect.isfunction(obj) and obj.__module__ == io.__name__
                and not name.startswith("_")):
            yield io, name, f"io.{name}", None


def _factor_hooks():
    for name, cls in vars(factors).items():
        if (inspect.isclass(cls) and cls.__module__ == factors.__name__
                and callable(getattr(cls, "linearize", None))
                and callable(getattr(cls, "residual", None))):
            yield cls, "linearize", f"factors.{name}.linearize", None
            yield cls, "residual", f"factors.{name}.residual", None


class Tracer:
    """Records spans around the hooked calls while installed."""

    def __init__(self):
        # one [name, parent index, start, end, info] per call
        self.spans = []
        self._stack = [-1]
        self._undo = []
        self._by_name = None  # span indices per name, built after the run

    def _wrap(self, name, fn, info):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1], 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = start
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result
        return traced

    def install(self):
        hooks = list(_HOOKS) + list(_io_hooks()) + list(_factor_hooks())
        for owner, attr, name, info in hooks:
            original = owner.__dict__.get(attr)
            if original is None:
                self.uninstall()
                raise CoverageError(f"hook target {owner.__name__}.{attr} "
                                    "is gone; update perfbench/tracer.py")
            setattr(owner, attr, self._wrap(name, original, info))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- queries ------------------------------------------------------------

    def _select(self, name=None, suffix=None, parent=None, under=None):
        if self._by_name is None:
            self._by_name = defaultdict(list)
            for i, s in enumerate(self.spans):
                self._by_name[s[0]].append(i)
        if name is not None:
            candidates = self._by_name.get(name, [])
        else:
            candidates = sorted(i for n, idx in self._by_name.items()
                                if n.endswith(suffix) for i in idx)
        spans = self.spans
        out = []
        for i in candidates:
            s = spans[i]
            if parent is not None and (s[1] < 0 or spans[s[1]][0] != parent):
                continue
            if under is not None and not self._has_ancestor(i, under):
                continue
            out.append(i)
        return out

    def _has_ancestor(self, index, name):
        p = self.spans[index][1]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][1]
        return False

    def _seconds(self, indices):
        return float(sum(self.spans[i][3] - self.spans[i][2] for i in indices))

    def _self_seconds(self, indices):
        wanted = set(indices)
        child = 0.0
        for s in self.spans:
            if s[1] in wanted:
                child += s[3] - s[2]
        return self._seconds(indices) - child

    def _info_sum(self, indices, field=None):
        """Sum of the calls' info; a call that raised has none and adds 0
        (align raises NoCorrespondences when pipeline skips registration)."""
        total = 0
        for i in indices:
            info = self.spans[i][4]
            if info is not None:
                total += info if field is None else info[field]
        return total

    def span_tree(self):
        """Count, total and self seconds per call path, for the run record."""
        paths = []
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            path = s[0] if s[1] < 0 else paths[s[1]] + "/" + s[0]
            paths.append(path)
            row = rows[path]
            row[0] += 1
            row[1] += s[3] - s[2]
            row[2] += s[3] - s[2]
            if s[1] >= 0:
                rows[paths[s[1]]][2] -= s[3] - s[2]
        return {path: {"count": c, "total_s": t, "self_s": own}
                for path, (c, t, own) in sorted(rows.items())}

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, report: dict) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        sel = self._select
        frames = report["frames"]
        window = sel("graph.optimize", parent="graph.solve_incremental")
        final = sel("graph.optimize", parent="pipeline.run")
        optimize = window + final
        splu = sel("graph.splu")
        retract = sel("graph.retract_state")
        linearize = sel(suffix=".linearize")
        residual = sel(suffix=".residual")
        pre = sel("factors.preintegrate")
        zupt = sel("factors.detect_zupt")
        align = sel("registration.align")
        knn = sel("geometry.knn", under="registration.align")
        scans = sel("io.read_pcd", under="pipeline.run")
        accepted = self._info_sum(optimize, 1)
        return {
            "graph.window_solve_s": (self._seconds(window), "s"),
            "graph.window_iterations": (self._info_sum(window, 0), "count"),
            "graph.self_s": (self._self_seconds(optimize), "s"),
            "graph.final_solve_s": (self._seconds(final), "s"),
            "graph.final_iterations": (self._info_sum(final, 0), "count"),
            "graph.splu_calls": (len(splu), "count"),
            "graph.splu_s": (self._seconds(splu), "s"),
            "graph.retract_calls": (len(retract), "count"),
            "graph.retract_s": (self._seconds(retract), "s"),
            "graph.step_accept_ratio": (accepted / max(len(splu), 1), "ratio"),
            "factors.linearize_calls": (len(linearize), "count"),
            "factors.linearize_s": (self._seconds(linearize), "s"),
            "factors.residual_calls": (len(residual), "count"),
            "factors.residual_s": (self._seconds(residual), "s"),
            "factors.preintegrate_calls": (len(pre), "count"),
            "factors.preintegrate_samples": (self._info_sum(pre), "count"),
            "factors.preintegrate_s": (self._seconds(pre), "s"),
            "factors.detect_zupt_calls": (len(zupt), "count"),
            "factors.detect_zupt_s": (self._seconds(zupt), "s"),
            "factors.zupt_frames": (sum(1 for f in frames if f["zupt"]),
                                    "count"),
            "registration.align_calls": (len(align), "count"),
            "registration.align_s": (self._seconds(align), "s"),
            "registration.icp_iterations": (self._info_sum(align, 0),
                                            "count"),
            "registration.find_correspondences_s": (
                self._seconds(sel("registration.find_correspondences")), "s"),
            "registration.assemble_system_s": (
                self._seconds(sel("registration.assemble_system")), "s"),
            "registration.correspondences": (self._info_sum(align, 1),
                                             "count"),
            "registration.knn_per_align": (len(knn) / max(len(align), 1),
                                           "ratio"),
            "geometry.knn_calls": (len(knn), "count"),
            "geometry.knn_points": (self._info_sum(knn), "count"),
            "geometry.knn_s": (self._seconds(knn), "s"),
            "geometry.build_index_s": (
                self._seconds(sel("geometry.build_index")), "s"),
            "geometry.estimate_normals_s": (
                self._seconds(sel("geometry.estimate_normals")), "s"),
            "io.read_cloud_s": (self._seconds(sel("io.read_cloud")), "s"),
            "pipeline.map_downsample_s": (self._seconds(sel(
                "pipeline.voxel_downsample", under="pipeline.load_map")), "s"),
            "pipeline.map_assembly_s": (self._seconds(sel(
                "pipeline.voxel_downsample", under="pipeline.run")), "s"),
            "io.read_pcd_calls": (len(scans), "count"),
            "io.read_pcd_s": (self._seconds(scans), "s"),
            "degeneracy.detect_s": (self._seconds(sel("degeneracy.detect")),
                                    "s"),
            "degeneracy.spectrum_s": (
                self._seconds(sel("degeneracy.spectrum")), "s"),
            "degeneracy.reference_hessian_s": (
                self._seconds(sel("degeneracy.reference_hessian")), "s"),
            "degeneracy.map_factors_added": (
                sum(1 for f in frames if f["map_factor_added"]), "count"),
            "degeneracy.masked_frames": (sum(1 for f in frames if f["mask"]),
                                         "count"),
            "degeneracy.stage1_rejects": (
                sum(1 for f in frames if f["degeneracy"]
                    and f["degeneracy"]["stage1_reject"]), "count"),
            "evaluate.compute_metrics_s": (
                self._seconds(sel("evaluate.compute_metrics")), "s"),
            "evaluate.map_accuracy_s": (
                self._seconds(sel("evaluate.map_accuracy")), "s"),
            "evaluate.map_completeness_s": (
                self._seconds(sel("evaluate.map_completeness")), "s"),
            "io.validate_s": (self._seconds(
                sel("io.validate_config") + sel("io.validate_report")), "s"),
            "io.write_s": (self._seconds(
                [i for w in _IO_WRITES for i in sel(f"io.{w}")]), "s"),
        }

    def check_coverage(self, report: dict, factor_counts) -> None:
        """Raise CoverageError unless every hook fired as the report says.

        factor_counts maps factor class name to its count in the graph.
        """
        counts = defaultdict(int)
        for s in self.spans:
            counts[s[0]] += 1
        problems = []
        required = {name for _, _, name, _ in _HOOKS} - _OPTIONAL
        required |= {f"io.{n}" for n in _IO_REQUIRED}
        required |= {f"factors.{k}.{m}" for k in factor_counts
                     for m in ("linearize", "residual")}
        for name in sorted(required):
            if counts[name] == 0:
                problems.append(f"hook {name} never fired")

        frames = report["frames"]
        stride = report["config"]["map_factor_stride"]

        def expect(what, got, want):
            if got != want:
                problems.append(f"{what}: traced {got}, report says {want}")

        expect("frame boundaries (solve_incremental)",
               counts["graph.solve_incremental"], len(frames))
        expect("window solves", len(self._select(
            "graph.optimize", parent="graph.solve_incremental")), len(frames))
        expect("final solves", len(self._select(
            "graph.optimize", parent="pipeline.run")), 1)
        expect("registration.align calls", counts["registration.align"],
               sum(1 for f in frames if f["index"] % stride == 0))
        expect("degeneracy.detect calls", counts["degeneracy.detect"],
               sum(1 for f in frames if f["degeneracy"] is not None))
        expect("knn calls under find_correspondences",
               len(self._select("geometry.knn",
                                under="registration.find_correspondences")),
               counts["registration.find_correspondences"])
        expect("factors.preintegrate calls", counts["factors.preintegrate"],
               factor_counts.get("ImuFactor", 0))
        zupt_frames = sum(1 for f in frames if f["zupt"])
        if counts["factors.detect_zupt"] < zupt_frames:
            problems.append(f"factors.detect_zupt fired "
                            f"{counts['factors.detect_zupt']} times for "
                            f"{zupt_frames} ZUPT frames")
        if problems:
            raise CoverageError("traced run coverage failed: "
                                + "; ".join(problems))

