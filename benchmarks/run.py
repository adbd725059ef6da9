"""rvjop benchmark: one seeded workload, timed end to end or traced.

    python3 benchmarks/run.py --workload scan-dense-rv32 --seed 1 \\
        --seconds 38 --trace 0

Run it from anywhere inside a checkout of the repository; it imports
rvjop from the checkout's `src/` and writes its scratch files under
`.bench_work/`.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (ROOT / "src" / "rvjop", ROOT / "tests" / "oracle.py"):
        if not need.exists():
            print(f"benchmark: {need} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import corpus
    import session

    if args.workload not in corpus.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / args.workload
    prep = session.prepare(workdir, args.workload, args.seed)
    measure = session.measure_traced if args.trace else session.measure
    runner, metrics = measure(ROOT / "src", prep, args.seconds)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(prep.corpus.code)} bytes of code, xlen {prep.corpus.xlen}")
    if runner.measured:
        print("  times in reference seconds (see session.py); "
              "measured medians in brackets")
    for name, (value, unit, n) in metrics.items():
        measured = runner.measured.get(name)
        aside = f"  [{statistics.median(measured):.6g} s]" if measured else ""
        print(f"  {name:34s} {value:14.6g} {unit:6s} n={n}{aside}")
    print(f"  {'error_rate':34s} "
          f"{runner.failed / runner.attempted:14.6g} ratio  "
          f"n={runner.attempted}")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
