"""Exact scalar arithmetic: rationals and sparse multivariate polynomials.

A :class:`PolyExpr` is a finite sum of terms ``coef * p1^e1 * p2^e2 * ...``
with ``coef`` a :class:`fractions.Fraction` and the ``p_i`` named real
parameters.  Exponents are integers and may be negative (Laurent terms),
which is needed for basis changes whose coefficients contain inverse
powers of a deformation parameter.

Representation::

    terms : dict[Monomial, Fraction]
    Monomial = tuple[(name, exponent), ...]   sorted by name, exponent != 0

Zero coefficients are never stored, so equality of the ``terms`` dicts is
equality of polynomials, and the textual serialization is canonical: for
every polynomial ``p``, ``PolyExpr.parse(str(p)) == p`` bit-exactly.

Canonical terms: every value is a nonzero :class:`~fractions.Fraction` and
every monomial is sorted by name with nonzero exponents.  The public
constructor ``PolyExpr(terms)`` checks and coerces its input into this form.
Arithmetic results are built by the private :func:`_canonical`, which takes
a terms dict that already has this form and neither copies nor re-coerces
it; :func:`mul_acc` accumulates ``±a*b`` into such a dict in place.
Long sums of products can instead run over integers: :func:`to_int_terms`
clears the denominators of their factors once and :func:`from_int_terms`
divides the integer result back.  Such a sum holds each polynomial as a
terms dict ``{monomial: int}``, zero-free like ``terms``: the same
monomial tuples, integer coefficients, no zero stored.  One kernel,
:func:`_add_product`, forms every product in it and keeps it zero-free; the
Jacobi check, the basis transforms, the adapted pass of
:mod:`liedouble.homogeneous` and the Bareiss elimination of
:mod:`liedouble.exactlinalg` all accumulate through it, and
:func:`_mono_mul` returns a monomial at once when the other factor is
constant.  The exact divisions of the Bareiss elimination by a pivot of
several terms run through :func:`_div_exact_terms` over ints.
:class:`~fractions.Fraction` objects are built only for the nonzero
results divided back.

All values are immutable; instances can be shared freely between threads.
``-p`` is built once and kept on p and on −p, so ``-(-p) is p``, and
``str(p)`` is rendered on the first call and kept on p; two threads
negating or rendering p at once may each build an equal one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import truediv
from typing import Callable, Mapping, Union

from .errors import NotDivisible, PolyParseError, UnassignedParameter

Q = Fraction

Monomial = tuple  # tuple[tuple[str, int], ...]
PolyLike = Union["PolyExpr", Fraction, int, str]

_ONE_MONOMIAL: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Multiply two monomials by adding exponents of shared parameters."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for name, e in b:
        new = exps.get(name, 0) + e
        if new == 0:
            exps.pop(name, None)
        else:
            exps[name] = new
    return tuple(sorted(exps.items()))


def _mono_pow(a: Monomial, n: int) -> Monomial:
    return tuple((name, e * n) for name, e in a) if n != 0 else _ONE_MONOMIAL


class PolyExpr:
    """Exact polynomial (Laurent) in named real parameters over ℚ."""

    # _neg: the negation, set on both polynomials by the first ``-p``;
    # _str: the text, set by the first ``str(p)``
    __slots__ = ("terms", "_neg", "_str")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean = {}
        if terms:
            for mono, coef in terms.items():
                coef = Q(coef)
                if coef != 0:
                    clean[mono] = coef
        object.__setattr__(self, "terms", clean)

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> PolyExpr:
        return cls()

    @classmethod
    def one(cls) -> PolyExpr:
        return cls.const(1)

    @classmethod
    def const(cls, value: int | Fraction) -> PolyExpr:
        value = Q(value)
        return _canonical({_ONE_MONOMIAL: value} if value else {})

    @classmethod
    def param(cls, name: str, exponent: int = 1) -> PolyExpr:
        if not _NAME_RE.fullmatch(name):
            raise PolyParseError(f"invalid parameter name: {name!r}")
        if exponent == 0:
            return cls.one()
        return _canonical({((name, exponent),): Q(1)})

    # -- ring structure -----------------------------------------------

    def __setattr__(self, *_):  # pragma: no cover - guards immutability
        raise AttributeError("PolyExpr is immutable")

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyExpr):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == PolyExpr.const(other).terms
        return NotImplemented

    __hash__ = None  # mutable-dict payload; not usable as a dict key

    def __add__(self, other: PolyLike) -> PolyExpr:
        other = as_poly(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            old = out.get(mono)
            if old is None:
                out[mono] = coef
            else:
                new = old + coef
                if new:
                    out[mono] = new
                else:
                    del out[mono]
        return _canonical(out)

    __radd__ = __add__

    def __neg__(self) -> PolyExpr:
        """−p, built on the first call and kept on p and −p: ``-(-p) is p``."""
        try:
            return self._neg
        except AttributeError:
            neg = _canonical({m: -c for m, c in self.terms.items()})
            _set_neg(neg, self)
            _set_neg(self, neg)
            return neg

    def __sub__(self, other: PolyLike) -> PolyExpr:
        return self + (-as_poly(other))

    def __rsub__(self, other: PolyLike) -> PolyExpr:
        return as_poly(other) + (-self)

    def __mul__(self, other: PolyLike) -> PolyExpr:
        out: dict[Monomial, Fraction] = {}
        mul_acc(out, self, as_poly(other))
        return _canonical(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> PolyExpr:
        if not isinstance(n, int) or n < 0:
            raise ValueError("PolyExpr exponent must be a nonnegative integer")
        result = PolyExpr.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- queries --------------------------------------------------------

    def parameters(self) -> frozenset[str]:
        """Names of all parameters occurring with nonzero exponent."""
        return frozenset(name for mono in self.terms for name, _ in mono)

    @property
    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, assignment: Mapping[str, object]):
        """Evaluate at a point.

        Every parameter occurring in the polynomial must be assigned,
        otherwise :class:`UnassignedParameter` is raised.  The result type
        follows the inputs: all-exact assignments (int/Fraction) give a
        Fraction, floats give a float.
        """
        missing = self.parameters() - set(assignment)
        if missing:
            raise UnassignedParameter(
                "no value for parameter(s): " + ", ".join(sorted(missing))
            )
        values = {
            k: Q(v) if isinstance(v, int) else v for k, v in assignment.items()
        }
        total = None
        for mono, coef in self.terms.items():
            term = coef
            for name, e in mono:
                term = term * values[name] ** e
            total = term if total is None else total + term
        if total is None:
            return Q(0)
        return total

    def substitute(self, mapping: Mapping[str, PolyLike]) -> PolyExpr:
        """Replace parameters by polynomials, exactly.

        A parameter occurring with a negative exponent may only be replaced
        by a single-term polynomial (so that its inverse is again a Laurent
        term); anything else raises :class:`NotDivisible`.
        """
        polys = {name: as_poly(v) for name, v in mapping.items()}
        out = PolyExpr.zero()
        for mono, coef in self.terms.items():
            term = PolyExpr.const(coef)
            for name, e in mono:
                if name not in polys:
                    term = term * PolyExpr.param(name, e)
                    continue
                rep = polys[name]
                if e >= 0:
                    term = term * rep**e
                else:
                    term = term * _invert_single_term(rep) ** (-e)
            out = out + term
        return out

    # -- canonical text form --------------------------------------------

    def __str__(self) -> str:
        """The canonical text, rendered on the first call and kept on p."""
        try:
            return self._str
        except AttributeError:
            text = self._render()
            _set_str(self, text)
            return text

    def _render(self) -> str:
        """The canonical text, rendered anew."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coef = self.terms[mono]
            num, den = coef.numerator, coef.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            factors = [name if e == 1 else f"{name}^{e}" for name, e in mono]
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = "*".join([mag, *factors])
            if not parts:
                parts.append(body if num > 0 else "-" + body)
            else:
                parts.append(("+ " if num > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"PolyExpr({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> PolyExpr:
        """Parse the textual form produced by ``str()`` (and mild variants)."""
        return _parse_poly(text)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise PolyParseError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("name", "num", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
    return tokens


def _parse_poly(text: str) -> PolyExpr:
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial string")
    result = PolyExpr.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] == ("op", "+") or i < n and tokens[i] == ("op", "-"):
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise PolyParseError(f"dangling sign in {text!r}")
        term = PolyExpr.const(sign)
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if expect_factor:
                if kind == "num":
                    coef = Q(int(val))
                    i += 1
                    if i < n and tokens[i] == ("op", "/"):
                        if i + 1 < n and tokens[i + 1][0] == "num":
                            if int(tokens[i + 1][1]) == 0:
                                raise PolyParseError(f"zero denominator in {text!r}")
                            coef = coef / int(tokens[i + 1][1])
                            i += 2
                        else:
                            raise PolyParseError(f"bad rational in {text!r}")
                    term = term * PolyExpr.const(coef)
                elif kind == "name":
                    exponent = 1
                    i += 1
                    if i < n and tokens[i] == ("op", "^"):
                        i += 1
                        neg = False
                        if i < n and tokens[i] == ("op", "-"):
                            neg = True
                            i += 1
                        if i >= n or tokens[i][0] != "num":
                            raise PolyParseError(f"bad exponent in {text!r}")
                        exponent = -int(tokens[i][1]) if neg else int(tokens[i][1])
                        i += 1
                    term = term * PolyExpr.param(val, exponent)
                else:
                    raise PolyParseError(f"unexpected {val!r} in {text!r}")
                expect_factor = False
            else:
                if (kind, val) == ("op", "*"):
                    expect_factor = True
                    i += 1
                elif kind == "op" and val in "+-":
                    break
                else:
                    raise PolyParseError(f"unexpected {val!r} in {text!r}")
        result = result + term
    return result


def as_poly(value: PolyLike) -> PolyExpr:
    """Coerce ints, Fractions and poly strings to :class:`PolyExpr`.

    Booleans are rejected: ``True`` is an ``int`` to Python but never a
    scalar in input."""
    if isinstance(value, PolyExpr):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    if isinstance(value, (int, Fraction)):
        return PolyExpr.const(value)
    if isinstance(value, str):
        return PolyExpr.parse(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def _invert_single_term(p: PolyExpr) -> PolyExpr:
    if len(p.terms) != 1:
        raise NotDivisible(f"cannot invert multi-term polynomial {p}")
    (mono, coef), = p.terms.items()
    return _canonical({_mono_pow(mono, -1): Q(coef.denominator, coef.numerator)})


_set_terms = PolyExpr.terms.__set__
_set_neg = PolyExpr._neg.__set__
_set_str = PolyExpr._str.__set__


def _canonical(terms: dict) -> PolyExpr:
    """The polynomial over ``terms``, which must already be canonical (see
    the module docstring); the dict is taken over, not copied."""
    p = object.__new__(PolyExpr)
    _set_terms(p, terms)
    return p


def mul_acc(out: dict, a: PolyExpr, b: PolyExpr, negate: bool = False) -> None:
    """``out += a*b`` (``out -= a*b`` with ``negate``) on a canonical terms
    dict, in place; ``out`` stays canonical."""
    for ma, ca in a.terms.items():
        if negate:
            ca = -ca
        for mb, cb in b.terms.items():
            mono = _mono_mul(ma, mb)
            old = out.get(mono)
            if old is None:
                out[mono] = ca * cb
            else:
                new = old + ca * cb
                if new:
                    out[mono] = new
                else:
                    del out[mono]


def to_int_terms(polys) -> tuple[int, list]:
    """Clear denominators once: ``(d, scaled)`` with ``d`` the lcm of every
    coefficient denominator in ``polys`` and ``scaled[i]`` the terms of
    ``d * polys[i]`` as a dict ``{mono: int}``.

    Sums of products of scaled polynomials then run over Python ints: a sum
    of products of two factors each is ``d**2`` times the rational sum,
    exactly, so it is zero exactly when the rational sum is, and
    :func:`from_int_terms` with scale ``d**2`` gives back the rational
    polynomial.  Nothing is evaluated at parameter values, so the result
    stays generic in the parameters.  No :class:`~fractions.Fraction` is
    built here.
    """
    polys = list(polys)
    # over the distinct denominators, which are few: one argument per
    # coefficient left up to 0.4 MB allocated across calls (CPython 3.11)
    d = lcm(*{q.denominator for p in polys for q in p.terms.values()})
    scaled = [
        {mono: q.numerator * (d // q.denominator) for mono, q in p.terms.items()}
        for p in polys
    ]
    return d, scaled


def from_int_terms(terms: dict, scale: int) -> PolyExpr:
    """The polynomial ``terms / scale`` for a dict ``{mono: int}``, e.g. a
    sum accumulated over the output of :func:`to_int_terms`; zero
    coefficients are dropped."""
    return _canonical({mono: Q(v, scale) for mono, v in terms.items() if v})


def _add_product(out: dict, s: int, t1: dict, t2: dict) -> None:
    """``out += s·t1·t2`` on zero-free ``{mono: int}`` terms dicts, in place,
    s a nonzero int; a monomial whose coefficient cancels is deleted, so
    ``out`` stays zero-free."""
    for m1, c1 in t1.items():
        c1 *= s
        for m2, c2 in t2.items():
            mono = _mono_mul(m1, m2) if m2 else m1
            new = out.get(mono, 0) + c1 * c2
            if new:
                out[mono] = new
            else:
                del out[mono]


# -- exact division ------------------------------------------------------


def _graded_key(mono_exps: tuple[int, ...]):
    """Graded order on exponent vectors: total degree, then lexicographic."""
    return (sum(mono_exps), mono_exps)


def _content_shift(terms: dict, params: tuple[str, ...]) -> dict[str, int]:
    """Per-parameter minimum exponent across terms (absent parameter = 0)."""
    shift = {name: 0 for name in params}
    first = True
    for mono in terms:
        exps = dict(mono)
        for name in params:
            e = exps.get(name, 0)
            shift[name] = e if first else min(shift[name], e)
        first = False
    return shift


def poly_div_exact(a: PolyLike, b: PolyLike) -> PolyExpr:
    """Return q with a == q * b, or raise :class:`NotDivisible`.

    Both operands are reduced by their monomial content (making ordinary
    polynomials with per-parameter minimum exponent zero), then multivariate
    long division runs under a graded ordering; the content quotient is a
    Laurent monomial reattached at the end.  In the Laurent ring this finds
    the quotient whenever one exists.
    """
    a = as_poly(a)
    b = as_poly(b)
    if b.is_zero:
        raise NotDivisible("division by the zero polynomial")
    if a.is_zero:
        return PolyExpr.zero()
    if b.is_single_term:
        inv = _invert_single_term(b)
        return a * inv
    quotient = _div_exact_terms(a.terms, b.terms, truediv)
    if quotient is None:
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    return _canonical(quotient)


def _div_exact_terms(a: dict, b: dict, divide: Callable) -> dict | None:
    """The terms of the Laurent quotient a / b of two nonzero terms dicts,
    by the long division of :func:`poly_div_exact`, or None when there is
    none.  ``divide(x, y)`` divides two coefficients: exactly, with
    :class:`~fractions.Fraction` or int coefficients whose quotient is known
    to be an integer polynomial, as in the integer Bareiss kernel (the
    leading coefficient of every remainder is then a multiple of b's)."""
    params = tuple(sorted({name for mono in (*a, *b) for name, _ in mono}))
    shift_a = _content_shift(a, params)
    shift_b = _content_shift(b, params)

    def to_vec(terms: dict, shift: dict[str, int]):
        out = {}
        for mono, coef in terms.items():
            exps = dict(mono)
            out[tuple(exps.get(p, 0) - shift[p] for p in params)] = coef
        return out

    rem = to_vec(a, shift_a)
    div = to_vec(b, shift_b)
    lead_b = max(div, key=_graded_key)
    quo: dict = {}
    while rem:
        lead_r = max(rem, key=_graded_key)
        diff = tuple(er - eb for er, eb in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            return None
        c = divide(rem[lead_r], div[lead_b])
        quo[diff] = c
        for exps, coef in div.items():
            mono = tuple(d + e for d, e in zip(diff, exps))
            old = rem.get(mono)
            if old is None:
                rem[mono] = -c * coef
            else:
                new = old - c * coef
                if new:
                    rem[mono] = new
                else:
                    del rem[mono]
    terms = {}
    for exps, coef in quo.items():
        mono = tuple(
            (p, e)
            for p, e in (
                (p, x + shift_a[p] - shift_b[p]) for p, x in zip(params, exps)
            )
            if e
        )
        terms[mono] = coef
    return terms
