"""The names ``bench/`` reads from the package still exist and still work.

``bench/tracing.py`` and ``bench/workloads.py`` import the package inside
their functions, so a renamed attribute or function fails only when the
benchmark runs.  This replays their entry points once on the two so(2,2)
bialgebras and checks the verdicts they return.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

from liedouble import catalog  # noqa: E402

# span{J, K1, K2}: Poisson-subgroup over so22-r1, coisotropic only over
# so22-twisted (ROADMAP item 1)
AdS3_VERDICTS = {
    "so22-r1": dict(lagrangian=True, subalgebra=True, coisotropic=True,
                    poisson_subgroup=True),
    "so22-twisted": dict(lagrangian=True, subalgebra=True, coisotropic=True,
                         poisson_subgroup=False),
}


@pytest.fixture(scope="module")
def cat():
    return catalog.load()


@pytest.mark.parametrize("key", wl.SO22_BIALGEBRAS)
def test_traced_replays_run_on_so22(cat, key):
    t = tracing.Tracer(enabled=True)
    op = {"bialgebra": key, "gens": [{"J": 1}, {"K1": 1}, {"K2": 1}], "pi": None}
    rep = tracing.replay_classify(t, *wl.classify_spec(cat, op))
    assert wl.verdicts_of(rep) == AdS3_VERDICTS[key]
    out = tracing.replay_double(t, cat.bialgebra(key), iterate=True)
    assert set(out) == {"double-jacobi", "iterated-jacobi", "crossed-brackets"}
    assert wl.check_double(out)
    called = set(t.totals())
    assert {"liealg.transform_structure", "liealg.transform_cocomm",
            "double.canonical_cocommutator", "bialgebra.new_bialgebra"} <= called


@pytest.mark.parametrize("key", wl.SO22_BIALGEBRAS)
def test_timed_ops_run_on_so22(cat, key):
    B = wl.materialize_double({"bialgebra": key, "eta": "13/11*eta - 17/19"}, cat)
    assert wl.check_double(wl.run_double_iterate(B))
    desc = {"bialgebra": key, "h": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                                    [0, 0, 0, 0, 1, 1]],
            "source": None, "pi": [["0", "1", "0"], ["-1", "0", "eta"],
                                   ["0", "-eta", "0"]]}
    labels = cat.bialgebra(key).algebra.labels
    unit = [[int(lab == s) for lab in labels] for s in ("J", "K1", "K2")]
    ads3 = dict(desc, h=unit, source=("J", "K1", "K2"),
                pi=[["0"] * 3 for _ in range(3)])
    batch = [wl.materialize_sweep(d, cat) for d in (desc, ads3)]
    verdicts = wl.run_sweep(batch)
    assert verdicts[1] == AdS3_VERDICTS[key]
    assert wl.check_sweep(verdicts[1], wl.sweep_reference(ads3, cat, 1.1))
    assert wl.check_sweep(verdicts[0], wl.sweep_reference(desc, cat, 1.1))
