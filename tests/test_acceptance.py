"""Acceptance gate: one test per criterion, every verdict exact.

Each test prints its pass/fail line (run pytest -s to see them inline) and
fails with the detail lines on any violation.  The CLI `repro` subcommand
runs the same check functions, so the two cannot disagree.
"""

from gradedrings import checks


def _run(fn):
    result = fn()
    print(result.line)
    assert result.ok, "\n".join([result.line] + [str(d) for d in result.lines()])
    return result


def test_criterion_01_leavitt_rank_certificates():
    """L(1,n) certificates for n = 2..5: AB = I_n exactly and BA = 1."""
    _run(checks.check_leavitt_rank)


def test_criterion_02_matrix_unit_towers():
    """Matrix units from length-l words satisfy the unit laws exhaustively."""
    _run(checks.check_matrix_units)


def test_criterion_03_certificate_compression():
    """Folner compression of translation certificates, including the
    rejection of a K that breaks the strict counting inequality."""
    _run(checks.check_compression)


def test_criterion_04_rank_collapse():
    """Collapse matrices from a two-to-one injection satisfy all five
    projection identities over the integers."""
    _run(checks.check_collapse)


def test_criterion_05_folner_dichotomy():
    """Z and Z^2 admit witnesses down to eps = 1/10; the free group admits
    none, with every expansion ratio exceeding 2."""
    _run(checks.check_folner)


def test_criterion_06_matching_dichotomy():
    """Two-to-one matchings exist on free-group balls and fail on integer
    intervals, with verified Hall violators."""
    _run(checks.check_matching)


def test_criterion_07_finite_translation_rings():
    """T(G, R) is the |G| x |G| matrix ring for all groups of order <= 8
    over Z and Z/5."""
    _run(checks.check_finite_iso)


def test_criterion_08_monoid_generating_numbers():
    """gn(C(n,k)) = n for n,k <= 20; the closed-form order relation matches
    an independent closure oracle on the full range lam, mu <= 100."""
    _run(checks.check_monoid_gn)


def test_criterion_09_monoid_separators():
    """The separating homomorphisms are well defined and refute
    lam x_j <= mu x_j for every lam > mu with a validated separator."""
    _run(checks.check_separators)


def test_criterion_10_one_sided_amenability():
    """Ball-truncated subset checks in BS(1,k) and coset-pigeonhole
    separating translates for 50 seeded random tuple pairs."""
    _run(checks.check_bs_witnesses)


def test_criterion_11_weyl_rewriting():
    """Rewriting confluence on a seeded product corpus, multiplicativity of
    the coefficient-of-1 map, and the component bases for |m| <= 4."""
    _run(checks.check_weyl)


def test_criterion_12_certificate_algebra():
    """Extension, opposite, block, product, and homomorphic pushforward all
    re-verify."""
    _run(checks.check_certificate_algebra)


def test_criterion_13_graded_endomorphism_rings():
    """The mixed-rank endomorphism gradings pass every block check including
    strong grading at each group element."""
    _run(checks.check_endo_graded)


def test_criteria_complete():
    """Exactly the thirteen criteria above, in order."""
    assert [n for n, _ in checks.ALL_CHECKS] == [
        "leavitt-rank", "matrix-units", "compression", "collapse", "folner",
        "matching", "finite-iso", "monoid-gn", "separators", "bs-witnesses",
        "weyl", "cert-algebra", "endo-graded"]
