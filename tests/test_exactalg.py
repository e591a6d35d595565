import random
from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from liedouble.errors import NotDivisible, PolyParseError, UnassignedParameter
from liedouble.exactalg import (
    PolyExpr,
    _add_product,
    as_poly,
    mul_acc,
    poly_div_exact,
)

P = PolyExpr.parse


def rand_poly(rng, names=("eta", "z", "kappa"), max_terms=4, laurent=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = []
        for name in names:
            lo = -2 if laurent else 0
            e = rng.randint(lo, 2)
            if e:
                mono.append((name, e))
        coef = Q(rng.randint(-6, 6), rng.randint(1, 5))
        if coef:
            terms[tuple(sorted(mono))] = terms.get(tuple(sorted(mono)), Q(0)) + coef
    return PolyExpr(terms)


def test_additive_inverse():
    assert (P("eta") + P("-eta")).is_zero


def test_sum_of_squares_constraint_pieces():
    total = P("a2^2") + P("b2^2 - c2^2")
    assert total == P("a2^2 + b2^2 - c2^2")


def test_rational_addition():
    assert as_poly("3/2") + as_poly("1/3") == PolyExpr.const(Q(11, 6))


def test_product_square():
    assert P("eta") * P("eta") == P("eta^2")


def test_zero_absorbs():
    assert (PolyExpr.zero() * P("Lambda")).is_zero


def test_scalar_product():
    assert as_poly("-1/2") * as_poly("2*eta") == P("-eta")


def test_eval_square():
    assert P("eta^2").evaluate({"eta": 2}) == 4


def test_eval_kills_constraint_on_variety():
    p = P("a2^2 + b2^2 - c2^2 + 4*Lambda*a6^2")
    val = p.evaluate({"a2": 3, "b2": 4, "c2": 5, "a6": 7, "Lambda": 0})
    assert val == 0


def test_eval_missing_parameter():
    with pytest.raises(UnassignedParameter):
        P("eta").evaluate({})


def test_is_zero_cases():
    assert (P("eta") - P("eta")).is_zero
    assert not P("eta^2 - Lambda").is_zero
    assert PolyExpr({}).is_zero


def test_ring_axioms_random():
    rng = random.Random(421)
    for _ in range(60):
        a, b, c = (rand_poly(rng, laurent=True) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_eval_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(40):
        a = rand_poly(rng)
        b = rand_poly(rng)
        point = {n: 0.3 + rng.random() for n in ("eta", "z", "kappa")}
        lhs = (a * b).evaluate(point)
        rhs = a.evaluate(point) * b.evaluate(point)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_exact_eval_returns_fraction():
    v = P("1/2*eta^-2").evaluate({"eta": Q(1, 3)})
    assert v == Q(9, 2)


def test_canonical_subtraction():
    rng = random.Random(5)
    for _ in range(30):
        a = rand_poly(rng, laurent=True)
        assert (a - a).is_zero


def test_serialization_round_trip_random():
    rng = random.Random(17)
    for _ in range(80):
        a = rand_poly(rng, laurent=True, max_terms=6)
        assert PolyExpr.parse(str(a)) == a


def test_serialization_examples():
    assert str(P("eta") - P("eta")) == "0"
    assert str(P("-3/2*eta^2 + 1")) == "1 - 3/2*eta^2"
    assert str(P("seta^-1")) == "seta^-1"
    assert P("2*eta*z") == P("z * 2 * eta")


def test_parse_rejects_garbage():
    for bad in ("", "eta^", "3//2", "eta +", "(eta)"):
        with pytest.raises(PolyParseError):
            PolyExpr.parse(bad)


def test_substitute_lambda_to_minus_eta_squared():
    p = P("a2^2 + 4*Lambda*a6^2")
    q = p.substitute({"Lambda": P("-eta^2")})
    assert q == P("a2^2 - 4*eta^2*a6^2")


def test_substitute_negative_power_needs_single_term():
    p = P("eta^-1")
    assert p.substitute({"eta": P("2*seta^2")}) == P("1/2*seta^-2")
    with pytest.raises(NotDivisible):
        p.substitute({"eta": P("1 + seta")})


def test_powers():
    assert P("1 + eta") ** 2 == P("1 + 2*eta + eta^2")
    assert P("eta") ** 0 == PolyExpr.one()


def test_div_exact():
    a = P("eta^2 - z^2")
    assert poly_div_exact(a, P("eta - z")) == P("eta + z")
    assert poly_div_exact(a, P("eta + z")) == P("eta - z")
    with pytest.raises(NotDivisible):
        poly_div_exact(a, P("eta + 1"))


def test_div_exact_laurent():
    a = P("eta^-1 + 1")
    b = P("eta + 1")
    # (1 + eta) / eta divided by (1 + eta) is 1/eta
    assert poly_div_exact(a, b) == P("eta^-1")
    assert poly_div_exact(a, P("eta^-1")) == P("1 + eta")


def test_div_exact_random_products():
    rng = random.Random(2024)
    for _ in range(40):
        a = rand_poly(rng, laurent=True)
        b = rand_poly(rng, laurent=True)
        if b.is_zero:
            continue
        assert poly_div_exact(a * b, b) == a


def test_as_poly_coercions():
    assert as_poly(3) == PolyExpr.const(3)
    assert as_poly(Q(1, 2)) == P("1/2")
    assert as_poly("eta") == PolyExpr.param("eta")


def test_parse_rejects_zero_denominator():
    for bad in ("1/0", "eta - 3/0*z", "1/00"):
        with pytest.raises(PolyParseError, match="zero denominator"):
            PolyExpr.parse(bad)


def test_as_poly_rejects_booleans():
    for value in (True, False):
        with pytest.raises(TypeError):
            as_poly(value)
    with pytest.raises(TypeError):
        PolyExpr.param("eta") + True


def test_public_constructor_coerces():
    p = PolyExpr({(): 2, (("eta", 1),): Q(0), (("z", 2),): Q(3, 6)})
    assert p.terms == {(): Q(2), (("z", 2),): Q(1, 2)}
    assert all(type(c) is Q for c in p.terms.values())


# -- PolyExpr arithmetic against sympy -----------------------------------

NAMES = ("eta", "kappa", "z")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}
ORACLE_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def laurent_polys(draw, names):
    """Up to five Laurent terms in ``names``, exponents in -2..2."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        mono = tuple(
            (name, e) for name in names if (e := draw(st.integers(-2, 2)))
        )
        coef = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        terms[mono] = terms.get(mono, Q(0)) + coef
    return PolyExpr(terms)


@st.composite
def poly_triples(draw):
    """Three polynomials over the same two or three parameters."""
    names = NAMES[: draw(st.integers(2, 3))]
    return tuple(draw(laurent_polys(names)) for _ in range(3))


def to_sympy(p: PolyExpr):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(SYMBOLS[name] ** e for name, e in mono))
            for mono, c in p.terms.items()
        )
    )


def assert_canonical(terms: dict):
    """The invariant arithmetic results rely on: nonzero Fraction values,
    monomials sorted by name with nonzero integer exponents."""
    for mono, coef in terms.items():
        assert type(coef) is Q and coef != 0
        names = [name for name, _ in mono]
        assert names == sorted(set(names))
        assert all(type(e) is int and e != 0 for _, e in mono)


def assert_matches(result: PolyExpr, expected):
    assert_canonical(result.terms)
    assert sympy.expand(to_sympy(result) - expected) == 0


@ORACLE_SETTINGS
@given(poly_triples())
def test_arithmetic_matches_sympy(polys):
    a, b, c = polys
    sa, sb, sc = (to_sympy(p) for p in polys)
    assert_matches(a + b, sa + sb)
    assert_matches(a - b, sa - sb)
    assert_matches(a * b, sa * sb)
    assert_matches(-a, -sa)
    assert_matches(a * b + c, sa * sb + sc)
    assert_matches(a - a, 0)


@ORACLE_SETTINGS
@given(poly_triples())
def test_mul_acc_matches_sympy(polys):
    a, b, c = polys
    sa, sb, sc = (to_sympy(p) for p in polys)
    for negate, expected in ((False, sc + sa * sb), (True, sc - sa * sb)):
        out = dict(c.terms)
        mul_acc(out, a, b, negate=negate)
        assert_canonical(out)
        assert sympy.expand(to_sympy(PolyExpr(out)) - expected) == 0
    out = {}
    mul_acc(out, a, b)
    mul_acc(out, a, b, negate=True)
    assert out == {}


@pytest.mark.parametrize("s", [1, -1, 3, -3])
def test_add_product_deletes_cancelled_monomials(s):
    # eta*(xi + 2) + (-eta)*(xi - 5): the eta*xi terms cancel, 7*eta is left
    eta, xi = (("eta", 1),), (("xi", 1),)
    out = {}
    _add_product(out, s, {eta: 1}, {xi: 1, (): 2})
    assert out == {(("eta", 1), ("xi", 1)): s, eta: 2 * s}
    _add_product(out, s, {eta: -1}, {xi: 1, (): -5})
    assert out == {eta: 7 * s}
    # and a sum that cancels completely leaves no key behind
    _add_product(out, -s, {eta: 7}, {(): 1})
    assert out == {}
    _add_product(out, s, {xi: 2, eta: -1}, {(("xi", -1),): 3})
    _add_product(out, -s, {(): 6, (("eta", 1), ("xi", -1)): -3}, {(): 1})
    assert out == {}


def count_fractions(fn):
    """(result, Fraction objects constructed) of one call."""
    count = 0
    new = Q.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new.__func__(cls, *args, **kwargs)

    Q.__new__ = staticmethod(counted)
    try:
        result = fn()
    finally:
        Q.__new__ = new
    return result, count


def test_arithmetic_constructs_only_result_coefficients():
    # Results keep canonical coefficients as they are: a sum over disjoint
    # monomials builds no Fraction, a product one per term, a negation one
    # per term.  Re-coercing each result would build one more per term.
    a, b = P("2*eta + 1/3*z^-1"), P("5 - 7/2*eta^2*z")
    total, built = count_fractions(lambda: a + b)
    assert built == 0 and total == P("2*eta + 1/3*z^-1 + 5 - 7/2*eta^2*z")
    product, built = count_fractions(lambda: a * b)
    assert built == 4 and len(product.terms) == 4
    negated, built = count_fractions(lambda: -a)
    assert built == 2 and negated == P("-2*eta - 1/3*z^-1")


# -- the canonical text form against a Fraction-based formatter -------------


def fraction_text(p: PolyExpr) -> str:
    """The text form as built from Fraction magnitudes and comparisons."""
    if not p.terms:
        return "0"
    parts = []
    for mono in sorted(p.terms):
        coef = p.terms[mono]
        factors = [name if e == 1 else f"{name}^{e}" for name, e in mono]
        mag = abs(coef)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coef > 0 else "-" + body)
        else:
            parts.append(("+ " if coef > 0 else "- ") + body)
    return " ".join(parts)


@st.composite
def wide_polys(draw):
    """Laurent polynomials in up to three parameters whose coefficients are
    signed, often ±1, and have numerators and denominators up to 10**6."""
    names = NAMES[: draw(st.integers(1, 3))]
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = tuple((name, e) for name in names if (e := draw(st.integers(-3, 3))))
        num = draw(st.sampled_from((1, -1)) | st.integers(-10**6, 10**6))
        den = draw(st.sampled_from((1, 1, 2)) | st.integers(1, 10**6))
        terms[mono] = terms.get(mono, Q(0)) + Q(num, den)
    return PolyExpr(terms)


@ORACLE_SETTINGS
@given(laurent_polys(NAMES) | wide_polys())
def test_text_form_matches_the_fraction_formatter(p):
    for _ in range(2):  # rendered, then kept
        assert str(p) == fraction_text(p)
        assert P(str(p)) == p


def test_text_is_rendered_once_and_kept(monkeypatch):
    rendered = []
    real = PolyExpr._render
    monkeypatch.setattr(PolyExpr, "_render", lambda p: rendered.append(p) or real(p))
    p = P("2*eta - 1/3*z^-1")
    first = str(p)
    assert str(p) is first and rendered == [p]
    assert PolyExpr.parse(first) == p and PolyExpr.parse(str(p)) == p
    neg = -p  # built after p has its text: renders its own
    assert str(neg) == "-2*eta + 1/3*z^-1" and PolyExpr.parse(str(neg)) == neg
    assert str(-(-p)) is first and len(rendered) == 2
    assert str(PolyExpr.zero()) == "0" and str(P("x") - P("x")) == "0"

