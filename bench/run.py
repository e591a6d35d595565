"""Benchmark entry point for liedouble.

Run one workload (the last stdout line is the JSON result)::

    python3 bench/run.py --workload double-iterate --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics of the workload with tracing
off; ``--trace 1`` runs the separate traced pass and reports the per-layer
metrics.  Without ``--workload`` every workload runs in its own process,
followed by the traced pass, and a table of every metric is printed.  The
exit code is nonzero when a timed op gives an output its oracle rejects.
The design of the workloads and metrics is recorded in ``design.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

SETUP_REPEATS = 5  # this process's own set-up plus four fresh ones
OUT_DIR = Path(__file__).resolve().parent / "out"

# The host's speed drifts with its other tenants' load.  A fixed probe that
# runs no liedouble code follows every op; each op time is multiplied by the
# probe's reference seconds over the median of the probes around the op.  The
# reference is the probe's time on an idle core of the 2-vCPU x86-64 host the
# benchmark was tuned on, so the metrics read as seconds on that idle host.
# Ops, which run in-process, use a pure-Python Fraction loop; set-ups, which
# are import-heavy, use a fresh interpreter that imports numpy.  Raw wall
# times are printed beside.
PROBE_SPAN = 5  # probes on each side of an op that estimate the speed during it


def compute_probe() -> float:
    """Seconds of a fixed pure-Python Fraction loop."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 4000):
        x += Fraction(1, i % 97 + 1) * Fraction(3, 7)
    return time.perf_counter() - start


def spawn_probe() -> float:
    """Wall seconds of a fresh interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start


COMPUTE_REF_S, SPAWN_REF_S = 0.017, 0.10  # the probes' reference seconds


def closed_loop(items: list, run_op, seconds: float):
    """Run ops back to back, cycling through ``items``, until ``seconds``
    have passed, after one untimed warm-up op; the compute probe runs before
    the first op and after every op.  Returns ``([(item index, seconds, result)],
    probe seconds, wall)``."""
    try:
        run_op(items[0])
    except Exception:  # counted when the timed phase runs it again
        pass
    samples, probes = [], [compute_probe()]
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(items)
        t0 = time.perf_counter()
        try:
            result = run_op(items[k])
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc()
            result = exc
        t1 = time.perf_counter()
        samples.append((k, t1 - t0, result))
        probes.append(compute_probe())
        i += 1
        if t1 - start >= seconds:
            return samples, probes, time.perf_counter() - start


def timing_metrics(times: list, probes: list, wall: float) -> tuple[dict, list]:
    """End-to-end timing metrics at the reference speed; ``probes[i]`` and
    ``probes[i + 1]`` ran just before and after op i."""
    around = [probes[max(i + 1 - PROBE_SPAN, 0):i + PROBE_SPAN + 1] for i in range(len(times))]
    scaled = [t * COMPUTE_REF_S / statistics.median(p) for t, p in zip(times, around)]
    s = sorted(scaled)
    n = len(s)
    # The highest percentile with at least 10 ops beyond it; with 11 ops or
    # fewer no percentile above the fastest op has that backing.
    k = max(n - 11, 0)
    metrics = {
        "op_p50_s": (statistics.median(s), "s"),
        "op_tail_s": (s[k], "s"),
        "ops_per_s": (n / sum(s), "1/s"),
    }
    notes = [
        f"op_tail_s is p{100 * (k + 1) / n:.1f} of {n} ops ({n - 1 - k} beyond)",
        f"times are scaled to a probe of {COMPUTE_REF_S} s; its median here was "
        f"{statistics.median(probes):.4f} s over {len(probes)} runs",
        f"raw wall: op_p50 {statistics.median(times):.4f} s, {n / wall:.4f} ops/s "
        f"over {wall:.1f} s with probes",
    ]
    return metrics, notes


def setup_seconds(workload: str, seed: int, own: float) -> tuple[float, str]:
    """Median scaled set-up seconds of this process and of fresh processes."""
    samples, probes = [own], [spawn_probe()]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            cwd=wl.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        probes.append(spawn_probe())
    raw = statistics.median(samples)
    note = f"setup_s is the median of {len(samples)} set-ups, raw {raw:.4f} s, scaled"
    return raw * SPAWN_REF_S / statistics.median(probes), note


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    cat, descs, inputs, own_setup = wl.setup(workload, seed)
    setup_s, setup_note = setup_seconds(workload, seed, own_setup)
    notes = [setup_note]

    if workload == "double-iterate":
        samples, probes, wall = closed_loop(inputs, wl.run_double_iterate, seconds)
        verdicts = [not isinstance(r, Exception) and wl.check_double(r) for _, _, r in samples]
    else:
        size = wl.SWEEP_BATCH
        batches = [inputs[i:i + size] for i in range(0, len(inputs), size)]
        samples, probes, wall = closed_loop(batches, wl.run_sweep, seconds)
        eta = wl.sweep_point(seed)
        refs = {k: [wl.sweep_reference(d, cat, eta) for d in descs[k * size:(k + 1) * size]]
                for k in {k for k, _, _ in samples}}
        verdicts = [not isinstance(r, Exception)
                    and all(wl.check_sweep(v, ref) for v, ref in zip(r, refs[k]))
                    for k, _, r in samples]
        notes.append(f"one op classifies a batch of {size} specs")

    metrics, timing_notes = timing_metrics([t for _, t, _ in samples], probes, wall)
    metrics["setup_s"] = (setup_s, "s")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    failed = verdicts.count(False)
    notes += timing_notes
    notes.append(f"failed_frac = {failed}/{len(verdicts)} = {failed / len(verdicts):.4f}")
    return {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def run_traced(seed: int) -> dict:
    import tracing

    result = tracing.traced_run(seed)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-seed{seed}.json").write_text(json.dumps(result["spans"]) + "\n")
    ok = result["ok"]
    return {
        "correct": all(ok),
        "attempted": len(ok),
        "failed": ok.count(False),
        "metrics": result["metrics"],
        "notes": [f"{len(result['spans'])} spans written to {OUT_DIR.name}/trace-seed{seed}.json",
                  wl.known_defect_note()],
    }


def print_result(result: dict) -> None:
    for note in result.pop("notes"):
        print(f"# {note}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, then the traced pass."""
    status = 0
    for workload, trace_flag in [(w, 0) for w in wl.WORKLOADS] + [(wl.WORKLOADS[0], 1)]:
        title = "traced pass" if trace_flag else workload
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace_flag)],
            cwd=wl.ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"== {title}: exit {done.returncode}\n{done.stderr}")
            status = 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        print(f"== {title}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print(f"   {line}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (wl.SRC / "liedouble").is_dir():
        print(f"error: no liedouble package under {wl.SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": wl.setup(args.workload, args.seed)[3]}))
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.trace:
        result = run_traced(args.seed)
    else:
        result = run_workload(args.workload, args.seed, args.seconds)
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
