"""Determinism self-test of the benchmark.

    python3 bench/selftest.py

Two fresh processes generate the inputs of every workload from one small
seed and run one traced replay each.  The test passes when both produce
identical op lists and inputs, identical ``exactalg`` counts and identical
verdicts.  It prints one line per check and exits nonzero on a mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3


def fingerprint(workload: str, item) -> object:
    """A JSON-able image of one materialized input."""
    if workload == "cli-cold":
        return item
    if workload == "double-iterate":
        from liedouble.bialgebra import to_json

        return to_json(item)
    B, spec = item
    return [B.algebra.labels,
            [[str(x) for x in row] for row in spec.h_basis + spec.complement + spec.pi]]


def one_replay(seed: int) -> dict:
    """Inputs, exactalg counts and verdicts of one traced replay."""
    inputs = {}
    for name in wl.REPLAYED:
        _, descs, items, _ = wl.setup(name, seed)
        inputs[name] = {"ops": descs, "inputs": [fingerprint(name, x) for x in items]}
    plan = tracing.make_plan(seed)
    tracer = tracing.Tracer(enabled=True)
    outcomes = tracing.replay_pass(tracer, plan, count=True)
    return {
        "inputs": inputs,
        "counts": {name: dict(c) for name, c in tracer.counts.items()},
        "verdicts": outcomes,
        "oracle": tracing.check_outcomes(plan, outcomes, seed),
    }


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(one_replay(int(sys.argv[2])), sort_keys=True))
        return 0
    runs = [
        json.loads(subprocess.run(
            [sys.executable, __file__, "--child", str(SEED)], cwd=wl.ROOT,
            capture_output=True, text=True, check=True, timeout=170,
        ).stdout)
        for _ in range(2)
    ]
    checks = {
        "identical op lists and inputs": runs[0]["inputs"] == runs[1]["inputs"],
        "identical exactalg counts": runs[0]["counts"] == runs[1]["counts"],
        "identical verdicts": runs[0]["verdicts"] == runs[1]["verdicts"],
        "every replayed op passes its oracle": all(runs[0]["oracle"] + runs[1]["oracle"]),
    }
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
