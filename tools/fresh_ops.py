"""Time the first ``double --iterate`` op on inputs the process has never seen.

Run from anywhere:  python3 tools/fresh_ops.py [N] [SEED]

The ``double-iterate`` workload of ``bench/run.py`` cycles 8 inputs, so
almost every op it times finds the caches kept on them warm, while a
``liedouble double <key> --iterate`` command runs one cold op.  This script
draws N substitutions eta -> c*eta + d of so22-r1 and so22-twisted, in turn,
with the benchmark's own generator (``generate_double`` of
``bench/workloads.py``) seeded with SEED, and builds and validates each
bialgebra untimed, as the catalog does before a command runs.  It then
times one op on each, the work of ``double --iterate`` in the CLI's order:
D(a), its bracket table, D(D(a)) and its bracket table.  It prints one JSON
line, ``{"median_us": ..., "n": N, "seed": SEED}``, the median over the N
first ops in microseconds.  N defaults to 300 and SEED to 0.
"""

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def first_ops(n: int, seed: int) -> list:
    """Seconds of the first ``double --iterate`` op on each of n fresh so22
    bialgebras."""
    workloads.import_package()
    from liedouble import catalog
    from liedouble.double import bracket_table_text, build_double, double_of_double

    cat, rng = catalog.load(), random.Random(seed)
    drawn = []
    while len(drawn) < n:
        drawn += workloads.generate_double(rng, cat)
    inputs = [workloads.materialize_double(d, cat) for d in drawn[:n]]
    seconds = []
    for B in inputs:
        start = time.perf_counter()
        bracket_table_text(build_double(B).algebra)
        bracket_table_text(double_of_double(B).algebra)
        seconds.append(time.perf_counter() - start)
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", nargs="?", type=int, default=300)
    parser.add_argument("seed", nargs="?", type=int, default=0)
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be at least 1")
    median = statistics.median(first_ops(args.n, args.seed)) * 1e6
    print(json.dumps({"median_us": round(median, 1), "n": args.n, "seed": args.seed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
