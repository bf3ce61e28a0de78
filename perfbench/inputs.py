"""Generate one workload's input files, in a process of its own.

    python3 perfbench/inputs.py --workload corridor-drift --scene-seed 41 \
        --out DIR

Writes map.pcd, scans/, odometry.tum, groundtruth.tum, imu.csv and spec.json
to DIR with maploc.synth. The measured process only reads these files, so
generation never counts toward its time or memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from maploc.synth import generate, parse_scene_spec, write_sequence  # noqa: E402

from workloads import SMOKE, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + [SMOKE.name])
    parser.add_argument("--scene-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = dict(WORKLOADS.get(args.workload, SMOKE).spec,
                seed=args.scene_seed)
    write_sequence(generate(parse_scene_spec(spec)), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
