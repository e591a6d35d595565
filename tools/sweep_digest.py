"""Digest every output of ``classify`` on the benchmark's sweep specs.

Run from anywhere:  python3 tools/sweep_digest.py [SEED ...]

For each SEED (default 101) this script draws the ``lagrangian-sweep``
specs with the benchmark's own generator (``generate_sweep`` and
``materialize_sweep`` of ``bench/workloads.py``) seeded with SEED, and
classifies each one.  It hashes, spec by spec, the report's ``to_json()``,
its ``xx_residual``, and the bracket table text when l is a subalgebra, or
else the ``NotClosed`` text of ``lagrangian_bracket_table``.  It prints one
JSON line, ``{"specs": ..., "sha1": ...}``, so two checkouts that print the
same line classify the sweep with the same outputs.
"""

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def spec_texts(seed: int):
    """One text per sweep spec of the seed: every output of its report."""
    workloads.import_package()
    from liedouble import catalog
    from liedouble.double import bracket_table_text, build_double
    from liedouble.errors import NotClosed
    from liedouble.homogeneous import classify, lagrangian_bracket_table

    cat = catalog.load()
    for desc in workloads.generate_sweep(random.Random(seed), cat):
        B, spec = workloads.materialize_sweep(desc, cat)
        D = build_double(B)
        rep = classify(D, B, spec)
        residual = {str(key): str(v) for key, v in rep.xx_residual.items()}
        try:
            table = bracket_table_text(lagrangian_bracket_table(D, spec))
        except NotClosed as err:
            table = f"NotClosed: {err}"
        yield json.dumps([rep.to_json(), residual, table], sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[101])
    args = parser.parse_args(argv)
    digest, specs = hashlib.sha1(), 0
    for seed in args.seeds:
        for text in spec_texts(seed):
            digest.update(text.encode() + b"\n")
            specs += 1
    print(json.dumps({"specs": specs, "sha1": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
