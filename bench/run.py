"""The loewner benchmark: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload api-small --seed 1 --seconds 25 --trace 0

Run it from the repository root: it imports the package from ./src and
starts CLI children with PYTHONPATH=./src. --trace 0 prints the end-to-end
metrics, measured with no spans recorded; --trace 1 prints the per-layer
metrics, from a separate traced pass. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
start with '#'. The traced pass writes its spans to .bench_out/.
bench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("api-small", "api-large", "selftest")


def import_package(root):
    """Put ./src first on sys.path and make sure loewner comes from there."""
    src = root / "src"
    if not (src / "loewner" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {src / 'loewner'}; run from the repository root")
    sys.path.insert(0, str(src))
    import loewner
    if Path(loewner.__file__).resolve().parent != (src / "loewner").resolve():
        raise SystemExit(f"bench: imported loewner from {loewner.__file__}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    import_package(root)
    import workloads

    if args.trace:
        (root / ".bench_out").mkdir(exist_ok=True)
    tally, metrics = workloads.RUNNERS[args.workload](args.seed, args.seconds, args.trace, root)
    if args.trace:
        metrics["failed_ratio"] = tally.failed / tally.attempted
        metrics["order.indefinite_notpsd"] = workloads.indefinite_probe(
            args.workload, args.seed, tally)
        table = workloads.PER_LAYER
    else:
        table = workloads.END_TO_END
    # Layers a workload never reaches report 0 (e.g. oracle on api-*).
    values = {name: {"value": metrics.get(name, 0), "unit": unit}
              for name, (unit, _) in table.items()}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
