"""Print the ledger of the paper's claims: which sentence of the abstract is
checked where.

Run from anywhere:  python3 tools/paper_claims.py

Each claim of the abstract in ``PAPER.md`` (arXiv:1701.04902) gives one
line ``state | claim | checks | note``.  The state is ``pinned`` when tier-1
checks the claim, or ``open: item N`` (``open: items N, M``) naming the
``ROADMAP.md`` item that would pin it.  The checks are test ids
``tests/<file>::<test function>``, ``-`` when there is none, and the note
says what of the claim is left open.  The script computes nothing and
imports nothing from ``liedouble``: it prints the table below.
``tests/data/paper_claims.txt`` holds the output; a test compares a fresh
run with it and checks that every cited test function is defined in its
file.  A PR that pins a claim, or adds a check, edits ``CLAIMS`` and
regenerates that file.
"""

HOM = "tests/test_homogeneous.py"

# (claim, state, test ids, note)
CLAIMS = (
    (
        "Poisson homogeneous spaces over G correspond to Lagrangian subalgebras of D(g)",
        "pinned",
        (f"{HOM}::test_classify_matches_double_route",
         f"{HOM}::test_poisson_subgroup_matches_the_annihilator_route"),
        "classify against the reference route in the double",
    ),
    (
        "the correspondence for g = D(a), itself a classical double",
        "open: item 1",
        (f"{HOM}::test_double_of_double_lagrangian_is_semidirect",),
        "only pi = 0 is checked",
    ),
    (
        "AdS2, H2 and the lightcone are coisotropic over SL(2,R), each a "
        "Poisson-subgroup quotient for exactly one of the three sl(2,R) structures",
        "pinned",
        (f"{HOM}::test_sl2_table_cell",
         f"{HOM}::test_sl2_table_cell_on_the_group",
         "tests/test_cli.py::test_cli_snapshot_matches_the_committed_one"),
        "that the three structures are inequivalent is open: item 12",
    ),
    (
        "explicit Poisson brackets on the 2d spaces",
        "open: item 9",
        ("tests/test_charts.py::test_all_published_families_match_sklyanin",),
        "numeric Sklyanin cells only; the exact brackets are open",
    ),
    (
        "the Poisson-subgroup AdS3 structures form a three-parameter family of "
        "r-matrices for so(2,2)",
        "open: item 4",
        (),
        "typed as so22.psc; nothing reads its constraint",
    ),
    (
        "the non-Poisson-subgroup AdS3 cases are much more numerous",
        "open: items 4, 13",
        (),
        "no count is made",
    ),
    (
        "two AdS3 structures come from two Drinfel'd double structures on SO(2,2), "
        "the first with SL(2,R) as Poisson subgroup",
        "open: item 2",
        ("tests/test_cli.py::test_origin_report_is_the_papers_verdict",
         "tests/test_catalog.py::"
         "test_basis_change_carries_the_canonical_r_onto_the_so22_rmatrix"),
        "the verdicts are pinned and the basis changes carry the canonical r of "
        "each double onto its r-matrix; the catalog still types both r-matrices",
    ),
    (
        "the twisted kappa-AdS spacetime is coisotropic but not a Poisson-subgroup quotient",
        "pinned",
        ("tests/test_cli.py::test_origin_report_is_the_papers_verdict",),
        "its bracket is a typed chart formula; the exact form is open: item 9",
    ),
)


def main() -> int:
    for claim, state, tests, note in CLAIMS:
        print(f"{state} | {claim} | {', '.join(tests) or '-'} | {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
