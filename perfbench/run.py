"""End-to-end benchmark of the reproduction: one workload per run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload paper-ron2003 --seed 1 --seconds 30 --trace 0

Prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero, printing no result, when the checkout
holds no ``src/repro`` to benchmark.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: run-time files (spilled shards, span dumps), inside the checkout.
OUT_DIR = ROOT / ".perfbench_out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness, workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    spans = None
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.unlink(missing_ok=True)
    try:
        result = harness.measure(
            workloads.standard(args.workload),
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            scratch=scratch,
            spans_path=str(spans) if spans else None,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
