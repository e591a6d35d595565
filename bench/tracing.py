"""The traced pass: per-layer spans and exact-arithmetic counts.

The pass replays a seeded sample of the ops of both timed workloads and one
block of cli-cold commands, one public call at a time, so each layer is
timed from outside, around the benchmark's own calls into it.  Spans are kept
in memory and written out at the end.  The ``PolyExpr``/``Fraction``
counters are class-level wrappers that exist only while a traced pass runs.
"""

from __future__ import annotations

import io
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from itertools import combinations

import workloads as wl

# Layers timed by a span around each benchmark call into them.
LAYER_SPANS = (
    "cli.main",
    "rmatrix.is_cybe",
    "rmatrix.is_mcybe",
    "charts.verify_sklyanin_cell",
    "double.build_double",
    "double.canonical_cocommutator",
    "bialgebra.new_bialgebra",
    "liealg.jacobi_violations",
    "double.crossed_bracket_mismatches",
    "exactlinalg.invert",
    "exactlinalg.rank",
    "liealg.transform_structure",
    "liealg.transform_cocomm",
    "homogeneous.classify",
    "homogeneous.lagrangian_bracket_table",
)
# Layers timed in a fresh interpreter: (name, untimed prelude, timed statement).
FRESH_PROCESS = (
    ("cli.import", "pass", "import liedouble.cli"),
    ("catalog.load", "import liedouble.catalog as c", "c.load()"),
)
FRESH_REPEATS = 3
COUNTERS = ("mul_calls", "add_calls", "fraction_new")
# Ops replayed per workload: one cli-cold block holds every kind of command,
# one double-iterate op per so22 bialgebra and one sweep batch (one op).
SAMPLE = {"cli-cold": len(wl.CLI_BLOCK), "double-iterate": 2, "lagrangian-sweep": wl.SWEEP_BATCH}


class Tracer:
    """Spans (name, start, end, parent, op id) and per-workload counts."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, Counter] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": op}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def totals(self) -> dict:
        """{span name: (total seconds, calls)}."""
        out: dict = {}
        for s in self.spans:
            total, calls = out.get(s["name"], (0.0, 0))
            out[s["name"]] = (total + s["end"] - s["start"], calls + 1)
        return out


@contextmanager
def exactalg_counters(counts: Counter):
    """Count ``PolyExpr.__mul__``/``__add__`` calls and ``Fraction``
    constructions into ``counts`` for the duration of the block."""
    from fractions import Fraction

    from liedouble.exactalg import PolyExpr

    mul, add = PolyExpr.__mul__, PolyExpr.__add__
    new = Fraction.__dict__["__new__"]

    def counted_mul(self, other):
        counts["mul_calls"] += 1
        return mul(self, other)

    def counted_add(self, other):
        counts["add_calls"] += 1
        return add(self, other)

    def counted_new(cls, *args, **kwargs):
        counts["fraction_new"] += 1
        return new.__func__(cls, *args, **kwargs)

    PolyExpr.__mul__, PolyExpr.__add__ = counted_mul, counted_add
    Fraction.__new__ = staticmethod(counted_new)
    try:
        yield
    finally:
        PolyExpr.__mul__, PolyExpr.__add__ = mul, add
        Fraction.__new__ = new


# ---------------------------------------------------------------- replays


def replay_classify(t: Tracer, B, spec):
    """The steps of ``classify`` plus the bracket table, one call at a time."""
    from liedouble.double import build_double
    from liedouble.exactlinalg import invert, rank
    from liedouble.homogeneous import classify, lagrangian_bracket_table, lagrangian_from_pi
    from liedouble.liealg import bracket, transform_cocomm, transform_structure

    D = t.call("double.build_double", build_double, B)
    rows = spec.h_basis + spec.complement
    inv = t.call("exactlinalg.invert", invert, rows)
    t.call("liealg.transform_structure", transform_structure, B.algebra.c, rows, inv)
    t.call("liealg.transform_cocomm", transform_cocomm, B.cocomm.f, rows, inv)
    l = lagrangian_from_pi(D, spec).vectors
    base = t.call("exactlinalg.rank", rank, l)
    for u, v in combinations(l, 2):  # as in is_subalgebra: stop at the first escape
        if t.call("exactlinalg.rank", rank, l + [bracket(D.algebra, u, v)]) != base:
            break
    rep = t.call("homogeneous.classify", classify, D, B, spec)
    if rep.subalgebra:
        t.call("homogeneous.lagrangian_bracket_table", lagrangian_bracket_table, D, spec)
    return rep


def replay_double(t: Tracer, B, iterate: bool) -> dict:
    """The steps of ``double [--iterate]``, with D(D) built step by step."""
    from liedouble.bialgebra import new_bialgebra
    from liedouble.double import (
        bracket_table_text, build_double, canonical_cocommutator,
        crossed_bracket_mismatches, second_dual_labels,
    )
    from liedouble.liealg import jacobi_violations

    D = t.call("double.build_double", build_double, B)
    out = {"double-jacobi": t.call("liealg.jacobi_violations", jacobi_violations, D.algebra)}
    bracket_table_text(D.algebra)
    if iterate:
        inner = t.call("double.build_double", build_double, B)
        delta = t.call("double.canonical_cocommutator", canonical_cocommutator, inner)
        outer = t.call("bialgebra.new_bialgebra", new_bialgebra, inner.algebra, delta,
                       dual_labels=second_dual_labels(B.dim))
        D2 = t.call("double.build_double", build_double, outer)
        out["iterated-jacobi"] = t.call("liealg.jacobi_violations", jacobi_violations, D2.algebra)
        out["crossed-brackets"] = t.call(
            "double.crossed_bracket_mismatches", crossed_bracket_mismatches, D2, B)
        bracket_table_text(D2.algebra)
    return out


def replay_cli(t: Tracer, cat, op: dict) -> dict:
    """A cli-cold command through ``cli.main`` in-process, then its exact and
    numeric work one call at a time.  Returns the exit code, the standard
    output and whether that work passed."""
    from liedouble import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = t.call("cli.main", cli.main, op["argv"])
    return {"exit": code, "stdout": out.getvalue(), "work_ok": replay_cli_work(t, cat, op)}


def replay_cli_work(t: Tracer, cat, op: dict) -> bool:
    from liedouble import catalog, charts
    from liedouble.rmatrix import is_cybe, is_mcybe

    if op["kind"] == "validate":
        entry = cat.get(op["key"])
        if entry.kind != "rmatrix":
            return True
        alg, declared = cat.rmatrix_algebra(op["key"]), entry.raw["verdicts"]
        return (t.call("rmatrix.is_cybe", is_cybe, alg, entry.payload) == declared["cybe"]
                and t.call("rmatrix.is_mcybe", is_mcybe, alg, entry.payload) == declared["mcybe"])
    if op["kind"] == "classify":
        replay_classify(t, *wl.classify_spec(cat, op))
        return True
    if op["kind"] == "double":
        out = replay_double(t, cat.bialgebra(op["bialgebra"]), op["iterate"])
        return wl.check_double(out)
    results = []
    rng = random.Random(op["seed"])
    for cell in catalog.default_verification_cells(cat):
        if cell.bracket_id == op["cell"]:
            results = t.call("charts.verify_sklyanin_cell", charts.verify_sklyanin_cell,
                             cell, rng, op["points"], 1e-9, 1e-12)
    return all(r["pass"] for r in results)


def replay_pass(t: Tracer, plan: dict, count: bool) -> dict:
    """Replay every planned op; returns {workload: [verdict, ...]}."""
    outcomes = {}
    for name, (cat, descs, inputs) in plan.items():
        counter = t.counts.setdefault(name, Counter())
        results = []
        with exactalg_counters(counter) if count else nullcontext():
            for i, (desc, item) in enumerate(zip(descs, inputs)):
                with t.span("op", op=f"{name}:{i}"):
                    try:
                        if name == "cli-cold":
                            results.append(replay_cli(t, cat, desc))
                        elif name == "double-iterate":
                            results.append(replay_double(t, item, iterate=True))
                        else:
                            results.append(wl.verdicts_of(replay_classify(t, *item)))
                    except Exception as exc:  # an op that raises is a failed op
                        results.append(f"raised {type(exc).__name__}: {exc}")
        outcomes[name] = results
    return outcomes


def check_outcomes(plan: dict, outcomes: dict, seed: int) -> list:
    """One bool per replayed op: did its output pass the workload's oracle?"""
    ok = []
    for name, results in outcomes.items():
        cat, descs, _ = plan[name]
        for desc, res in zip(descs, results):
            if isinstance(res, str):
                ok.append(False)
            elif name == "cli-cold":
                ok.append(res["work_ok"] and wl.check_cli(res, wl.cli_reference(desc, cat)))
            elif name == "double-iterate":
                ok.append(wl.check_double(res))
            else:
                ok.append(wl.check_sweep(res, wl.sweep_reference(desc, cat, wl.sweep_point(seed))))
    return ok


def make_plan(seed: int) -> dict:
    plan = {}
    for name in wl.REPLAYED:
        cat, descs, inputs, _ = wl.setup(name, seed)
        k = SAMPLE[name]
        plan[name] = (cat, descs[:k], inputs[:k])
    return plan


def fresh_process_seconds(prelude: str, stmt: str) -> float:
    code = (f"import sys, time; sys.path.insert(0, {str(wl.SRC)!r}); {prelude}; "
            f"t = time.perf_counter(); {stmt}; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def traced_run(seed: int) -> dict:
    """Untraced and traced replays of the same plan, plus fresh-process
    layer timings.  Returns the per-layer metrics and the oracle outcome."""
    plan = make_plan(seed)
    start = time.perf_counter()
    replay_pass(Tracer(enabled=False), plan, count=False)
    untraced = time.perf_counter() - start

    tracer = Tracer(enabled=True)
    start = time.perf_counter()
    outcomes = replay_pass(tracer, plan, count=True)
    traced = time.perf_counter() - start

    totals = tracer.totals()
    metrics = {}
    for name, prelude, stmt in FRESH_PROCESS:
        samples = [fresh_process_seconds(prelude, stmt) for _ in range(FRESH_REPEATS)]
        totals[name] = (sum(samples), len(samples))
    for name in tuple(name for name, _, _ in FRESH_PROCESS) + LAYER_SPANS:
        total, calls = totals.get(name, (0.0, 0))
        metrics[f"{name}_s"] = (total, "s")
        metrics[f"{name}_calls"] = (calls, "count")
    for name in wl.REPLAYED:
        for key in COUNTERS:
            metrics[f"{name}.exactalg.{key}"] = (tracer.counts[name][key], "count")
    metrics["trace_overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return {
        "metrics": metrics,
        "ok": check_outcomes(plan, outcomes, seed),
        "outcomes": outcomes,
        "spans": tracer.spans,
    }
