"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 malformed input data (DataError),
3 numerical failure on valid inputs (NumericalError).

A flag argparse can check on its own (a missing flag, a value that is not
a number, `--delta` below 1, a `--threshold` that is not a finite number
above 0) is a usage error, exit 1. A flag whose value parses but is not
valid data (a non-finite `--pose` value or a zero quaternion, a `--set`
override naming an unknown key or failing the config schema) is a
DataError, exit 2, like a malformed input file.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import io as mio
from .errors import DataError, MaplocError, NumericalError, ParseError
from .evaluate import (DEFAULT_THRESHOLD, compute_metrics, map_accuracy,
                       map_completeness)
from .geometry import Pose
from .pipeline import (emit_reports, evaluate_run, load_map, load_sequence,
                       register_frame, run)
from .synth import generate, load_scene_spec, write_sequence

logger = logging.getLogger("maploc")


def _load_cfg(args):
    cfg = mio.load_config(getattr(args, "config", None))
    overrides = getattr(args, "overrides", None)
    if overrides:
        cfg = mio.apply_overrides(cfg, overrides)
    return cfg


def _cmd_localize(args) -> int:
    cfg = _load_cfg(args)
    if args.verbose:
        cfg["verbose"] = True
    prior_map = load_map(args.map, voxel_size=cfg["voxel_size"])
    sequence = load_sequence(args.scans, args.odom, args.imu)
    groundtruth = mio.read_tum(args.groundtruth) if args.groundtruth else None
    result = run(prior_map, sequence, cfg)
    if groundtruth is not None:
        try:
            evaluate_run(result, groundtruth, prior_map)
        except MaplocError as exc:
            raise type(exc)(f"ground-truth metrics against "
                            f"{args.groundtruth} failed: {exc}") from exc
        mio.validate_report(result.report)
    paths = emit_reports(result, args.out)
    print(f"states: {result.report['num_states']}")
    if result.metrics is not None:
        print(f"ate_rmse_cm: {result.metrics.ate_rmse_cm:.9g}")
    for key in sorted(paths):
        print(f"{key}: {paths[key]}")
    return 0


def _cmd_synth(args) -> int:
    spec = load_scene_spec(args.spec)
    result = generate(spec)
    paths = write_sequence(result, args.out)
    print(f"scans: {len(result.scans)}")
    print(f"imu samples: {len(result.imu)}")
    print(f"map points: {len(result.gt_map)}")
    for key in sorted(paths):
        print(f"{key}: {paths[key]}")
    return 0


def _cmd_eval_traj(args) -> int:
    m = compute_metrics(mio.read_tum(args.est), mio.read_tum(args.ref),
                        delta=args.delta)
    print(f"ate_rmse_cm: {m.ate_rmse_cm:.9g}")
    print(f"rpe_rmse_cm: {m.rpe_rmse_cm:.9g}")
    print(f"rpe_rot_rmse_rad: {m.rpe_rot_rmse_rad:.9g}")
    print("rpe_per_meter_cm: " + ("n/a" if m.rpe_per_meter_cm is None
                                  else f"{m.rpe_per_meter_cm:.9g}"))
    print(f"matched_pairs: {m.matched_pairs}")
    return 0


def _cmd_eval_map(args) -> int:
    est = mio.read_cloud(args.est)
    ref = mio.read_cloud(args.ref)
    acc = map_accuracy(est, ref, threshold=args.threshold)
    com = map_completeness(est, ref, threshold=args.threshold)
    print(f"map_acc_cm: {acc:.9g}")
    print(f"map_com_percent: {com:.9g}")
    return 0


def _cmd_degeneracy_report(args) -> int:
    if not np.all(np.isfinite(args.pose)):
        raise ParseError("--pose: non-finite value")
    try:
        rotation = mio.quaternion_to_rotation(args.pose[3:])
    except ValueError as exc:
        raise ParseError(f"--pose: {exc.args[0]}") from exc
    pose = Pose(rotation, args.pose[:3])
    cfg = _load_cfg(args)
    prior_map = load_map(args.map, voxel_size=cfg["voxel_size"])
    scan = mio.read_cloud(args.scan)
    result, report = register_frame(scan, prior_map, pose, cfg)
    out = dict(report.as_dict(), residual_rms=float(result.residual_rms),
               iterations=int(result.iterations),
               converged=bool(result.converged))
    print(json.dumps(mio.sanitize_json(out), indent=2, sort_keys=True))
    return 0


def _frame_count(text) -> int:
    """argparse type: an integer of at least 1."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got '{text}'")
    return int(text)


def _distance(text) -> float:
    """argparse type: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got '{text}'")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maploc",
        description="Prior-map-assisted LiDAR localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("localize",
                       help="fuse odometry, scans, and IMU against a map")
    p.add_argument("--map", required=True, help="prior map (.pcd or .ply)")
    p.add_argument("--scans", required=True, help="directory of .pcd scans")
    p.add_argument("--odom", required=True, help="odometry trajectory (TUM)")
    p.add_argument("--imu", help="IMU stream (CSV), optional")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--groundtruth",
                   help="GT trajectory (TUM); adds metrics to the report")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE",
                   help="override a config entry, repeatable")
    p.add_argument("--verbose", action="store_true",
                   help="info logging plus an optimizer trace file")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--spec", required=True, help="scene spec (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth, verbose=False)

    p = sub.add_parser("eval-traj", help="trajectory metrics (ATE/RPE)")
    p.add_argument("--est", required=True, help="estimated trajectory (TUM)")
    p.add_argument("--ref", required=True, help="reference trajectory (TUM)")
    p.add_argument("--delta", type=_frame_count, default=1,
                   help="RPE window, frames (default 1)")
    p.set_defaults(func=_cmd_eval_traj, verbose=False)

    p = sub.add_parser("eval-map", help="map accuracy and completeness")
    p.add_argument("--est", required=True, help="estimated map (.pcd/.ply)")
    p.add_argument("--ref", required=True, help="reference map (.pcd/.ply)")
    p.add_argument("--threshold", type=_distance, default=DEFAULT_THRESHOLD,
                   help="inlier distance, meters (default %(default)s)")
    p.set_defaults(func=_cmd_eval_map, verbose=False)

    p = sub.add_parser("degeneracy-report",
                       help="register one scan and report degeneracy")
    p.add_argument("--map", required=True, help="prior map (.pcd or .ply)")
    p.add_argument("--scan", required=True, help="scan to register (.pcd)")
    p.add_argument("--pose", required=True, type=float, nargs=7,
                   metavar=("TX", "TY", "TZ", "QX", "QY", "QZ", "QW"),
                   help="initial pose, translation then quaternion (w last)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE",
                   help="override a config entry, repeatable")
    p.set_defaults(func=_cmd_degeneracy_report, verbose=False)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, nonzero for usage errors
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
