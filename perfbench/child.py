"""One measured localize run, in a fresh process.

    python3 perfbench/child.py --inputs DIR --out DIR --mode clock

Calls the functions ``maploc localize`` calls, once each, as the CLI does:
load_map, load_sequence and read_tum (set-up), then run and emit_reports
(localize). Writes DIR/result.json with the timings, peak RSS, accuracy,
output hashes and the per-frame outcome; run.py reads it.

Set-up and localize are bracketed by speed probes (probe.py), and their
times are scaled by them; the raw wall times are kept beside.

Modes:
  clock    stamp and probe at the return of each
           FactorGraph.solve_incremental, one per keyframe, for the
           per-frame latency
  noclock  no per-frame stamp; measures what the frame clock itself costs
  trace    record per-layer spans (tracer.py) instead of the frame clock
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from maploc import io as mio  # noqa: E402
from maploc import pipeline  # noqa: E402
from maploc.errors import MaplocError  # noqa: E402
from maploc.graph import FactorGraph  # noqa: E402

from probe import WINDOW, Clock  # noqa: E402
from tracer import CoverageError, Tracer  # noqa: E402

PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "MALLOC_MMAP_THRESHOLD_")


def environment() -> dict:
    def blas(config):
        info = config.CONFIG["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.__config__),
        "scipy_blas": blas(scipy.__config__),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned": {v: os.environ.get(v) for v in PINNED_VARS},
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trajectory_finite(path: Path) -> bool:
    for line in path.read_text().splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            if not all(math.isfinite(float(v)) for v in line.split()):
                return False
    return True


def _report_schema_error(path: Path):
    try:
        mio.validate_report(json.loads(path.read_text()))
    except (MaplocError, ValueError) as exc:
        return str(exc)
    return None


def measure(inputs: Path, out: Path, mode: str) -> dict:
    cfg = mio.load_config(None)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()

    setup = Clock()
    setup.mark(WINDOW)
    prior_map = pipeline.load_map(inputs / "map.pcd",
                                  voxel_size=cfg["voxel_size"])
    sequence = pipeline.load_sequence(inputs / "scans",
                                      inputs / "odometry.tum",
                                      inputs / "imu.csv")
    groundtruth = mio.read_tum(inputs / "groundtruth.tum")
    setup.mark(WINDOW)

    clock = Clock()
    if mode == "clock":
        solve = FactorGraph.solve_incremental

        def stamped(self, *args, **kwargs):
            outcome = solve(self, *args, **kwargs)
            clock.mark()
            return outcome
        FactorGraph.solve_incremental = stamped

    clock.mark(WINDOW)
    result = pipeline.run(prior_map, sequence, cfg, groundtruth=groundtruth)
    paths = pipeline.emit_reports(result, out)
    clock.mark(WINDOW)

    if tracer is not None:
        tracer.uninstall()
    (setup_raw, setup_s), = setup.intervals()
    intervals = clock.intervals()
    report = result.report
    stride = report["config"]["map_factor_stride"]
    metrics = report["metrics"]
    record = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "localize_s": sum(scaled for _, scaled in intervals),
        "localize_raw_s": sum(raw for raw, _ in intervals),
        # the last interval is the final batch solve and the reports
        "frame_ms": ([1000.0 * scaled for _, scaled in intervals[:-1]]
                     if mode == "clock" else []),
        "probe_ms": setup.probe_ms() + clock.probe_ms(),
        "keyframes": len(report["frames"]),
        "failed_frames": sum(1 for f in report["frames"]
                             if f["index"] % stride == 0
                             and f["degeneracy"] is None),
        "ate_cm": metrics["ate_rmse_cm"],
        "map_acc_cm": metrics["map_acc_cm"],
        "map_com_percent": metrics["map_com_percent"],
        "trajectory_sha256": _sha256(paths["trajectory"]),
        "report_sha256": _sha256(paths["report"]),
        "trajectory_finite": _trajectory_finite(paths["trajectory"]),
        "report_schema_error": _report_schema_error(paths["report"]),
    }
    if tracer is not None:
        factor_counts = Counter(type(f).__name__ for f in result.graph.factors)
        tracer.check_coverage(report, factor_counts)
        record["layers"] = tracer.layer_metrics(report)
        record["span_tree"] = tracer.span_tree()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--mode", choices=("clock", "noclock", "trace"),
                        default="clock")
    args = parser.parse_args(argv)
    try:
        record = measure(args.inputs, args.out, args.mode)
    except CoverageError as exc:
        print(exc, file=sys.stderr)
        return 3
    except MaplocError:
        # the program failed on valid inputs: a result, not a harness error
        record = {"error": traceback.format_exc()}
    record["mode"] = args.mode
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    record["env"] = environment()
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
