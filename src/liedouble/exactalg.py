"""Exact scalar arithmetic: rationals and sparse multivariate polynomials.

A :class:`PolyExpr` is a finite sum of terms ``coef * p1^e1 * p2^e2 * ...``
with a rational ``coef`` and the ``p_i`` named real parameters.  Exponents
are integers and may be negative (Laurent terms), which is needed for basis
changes whose coefficients contain inverse powers of a deformation
parameter.

Representation, the layout of FLINT's ``fmpq_poly`` (an integer polynomial
over one common denominator)::

    terms : dict[Monomial, int]    zero-free numerators
    den   : int > 0                gcd(den, every numerator) = 1
    Monomial = tuple[(name, exponent), ...]   sorted by name, exponent != 0

The polynomial is terms / den in lowest terms, so equality of polynomials is
equality of the two fields, and the text is canonical: for every ``p``,
``PolyExpr.parse(str(p)) == p`` bit-exactly.  ``PolyExpr(terms)`` takes int
or :class:`~fractions.Fraction` coefficients; a Fraction is otherwise built
only by :meth:`PolyExpr.evaluate` at an exact point.  Results are built by
:func:`_canonical`, which takes over a dict already in this form, or by
:func:`from_int_terms`, which divides a zero-free ``{monomial: int}`` dict
by an int scale with one gcd.

The text has one grammar.  ``str(p)`` writes a sum of signed products,
``-1/2*eta^-1 + z``; a product is factors ``n``, ``n/d``, ``name`` or
``name^k`` (k an int, possibly negative) joined by ``*``, the
:data:`PRODUCT` pattern.  :meth:`PolyExpr.parse` reads exactly that plus
whitespace between the parts and runs of signs before a term, and the CLI
reads a generator's coefficients with the same pattern.

One kernel, :func:`_add_product`, forms every product, ``out += s·t1·t2`` on
such dicts in place: ``*`` and ``+``, and the long sums (the Jacobi check, δ_r
and the CYBE residual, the pairing of a double, the adapted pass of
:mod:`liedouble.homogeneous` and the Bareiss elimination of
:mod:`liedouble.exactlinalg`).  A sum brings its factors to one scale with
:func:`to_int_terms`, the lcm of their ``den``, adds plain ints and divides
back once.  The basis transforms of :mod:`liedouble.liealg` regroup such
dicts by monomial and sum one layer of ints at a time.  One integer long
division, :func:`_div_terms`, divides such dicts exactly: the Bareiss
updates, :func:`poly_div_exact`, and so the inverse of a negative power in
:meth:`PolyExpr.substitute`.

All values are immutable and can be shared between threads.  Polynomials
and integer sums share terms dicts (:func:`to_int_terms` hands out
``p.terms`` when ``p.den`` is the lcm, and :func:`_canonical` and
:func:`from_int_terms` keep the dict given), so no such dict may be changed.
``-p`` is built once and kept on p and on −p, so ``-(-p) is p``, and
``str(p)`` is rendered on the first call and kept on p; two threads
negating or rendering p at once may each build an equal one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

from .errors import NotDivisible, PolyParseError, UnassignedParameter

Q = Fraction

Monomial = tuple  # tuple[tuple[str, int], ...]
PolyLike = Union["PolyExpr", Fraction, int, str]

_ONE_MONOMIAL: Monomial = ()
_UNIT = {_ONE_MONOMIAL: 1}  # the constant 1, to add s·t as the product s·t·1

# The grammar of the module docstring; FACTOR's groups are (n, d, name, '-', k).
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
FACTOR = rf"(\d+)(?:\s*/\s*(\d+))?|({NAME})(?:\s*\^\s*(-?)\s*(\d+))?"
PRODUCT = rf"(?:{FACTOR})(?:\s*\*\s*(?:{FACTOR}))*"
_NAME_RE = re.compile(NAME)
_FACTOR_RE = re.compile(FACTOR)
_TERM_RE = re.compile(rf"\s*((?:[-+]\s*)*)({PRODUCT})\s*")


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
    return tuple([(name, e * n) for name, e in a]) if n != 0 else _ONE_MONOMIAL


class PolyExpr:
    """Exact polynomial (Laurent) in named real parameters over ℚ."""

    # terms / den (module doc); _neg: the negation, set on both polynomials
    # by the first ``-p``; _str: the text, set by the first ``str(p)``
    __slots__ = ("terms", "den", "_neg", "_str")

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        coefs = {}
        for mono, coef in (terms or {}).items():
            if not isinstance(coef, (int, Fraction)):
                coef = Q(coef)
            if coef:
                coefs[mono] = coef
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*{c.denominator for c in coefs.values()})
        _set_terms(self, {m: c.numerator * (den // c.denominator) for m, c in coefs.items()})
        _set_den(self, den)

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> PolyExpr:
        return cls()

    @classmethod
    def one(cls) -> PolyExpr:
        return cls.const(1)

    @classmethod
    def const(cls, value: int | Fraction) -> PolyExpr:
        if not isinstance(value, (int, Fraction)):
            value = Q(value)
        terms = {_ONE_MONOMIAL: value.numerator} if value else {}
        return _canonical(terms, value.denominator)

    @classmethod
    def param(cls, name: str, exponent: int = 1) -> PolyExpr:
        if not _NAME_RE.fullmatch(name):
            raise PolyParseError(f"invalid parameter name: {name!r}")
        if exponent == 0:
            return cls.one()
        return _canonical({((name, exponent),): 1})

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
            return self.den == other.den and self.terms == other.terms
        if isinstance(other, (int, Fraction)):  # a constant, read as it is
            if not other:
                return not self.terms
            return (
                self.den == other.denominator
                and len(self.terms) == 1
                and self.terms.get(_ONE_MONOMIAL) == other.numerator
            )
        return NotImplemented

    __hash__ = None  # mutable-dict payload; not usable as a dict key

    def __add__(self, other: PolyLike) -> PolyExpr:
        other = as_poly(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        d = lcm(self.den, other.den)
        s = d // self.den
        out = dict(self.terms) if s == 1 else _times(self.terms, s)
        _add_product(out, d // other.den, other.terms, _UNIT)
        return from_int_terms(out, d)

    __radd__ = __add__

    def __neg__(self) -> PolyExpr:
        """−p, built on the first call and kept on p and −p: ``-(-p) is p``."""
        try:
            return self._neg
        except AttributeError:
            neg = _canonical({m: -v for m, v in self.terms.items()}, self.den)
            _set_neg(neg, self)
            _set_neg(self, neg)
            return neg

    def __sub__(self, other: PolyLike) -> PolyExpr:
        return self + (-as_poly(other))

    def __rsub__(self, other: PolyLike) -> PolyExpr:
        return as_poly(other) + (-self)

    def __mul__(self, other: PolyLike) -> PolyExpr:
        other = as_poly(other)
        out: dict[Monomial, int] = {}
        _add_product(out, 1, self.terms, other.terms)
        return from_int_terms(out, self.den * other.den)

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

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, assignment: Mapping[str, object]):
        """Evaluate at a point.

        Every parameter occurring in the polynomial must be assigned,
        otherwise :class:`UnassignedParameter` is raised.  The result type
        follows the inputs: all-exact assignments (int/Fraction) give a
        Fraction, as a constant does, and floats give a float.  Each
        coefficient is read as a Fraction, or at a point of floats as the
        float ``Fraction * float`` reads it, the correctly rounded quotient.
        """
        used = self.parameters()
        missing = used - set(assignment)
        if missing:
            raise UnassignedParameter(
                "no value for parameter(s): " + ", ".join(sorted(missing))
            )
        values = {k: Q(v) if isinstance(v, int) else v for k, v in assignment.items()}
        floats = used and all(isinstance(values[k], float) for k in used)
        den = self.den
        total = None
        for mono, v in self.terms.items():
            term = v if den == 1 else v / den if floats else Q(v, den)
            for name, e in mono:
                term = term * values[name] ** e
            total = term if total is None else total + term
        if total is None:
            return Q(0)
        return Q(total) if type(total) is int else total

    def substitute(self, mapping: Mapping[str, PolyLike]) -> PolyExpr:
        """Replace parameters by polynomials, exactly.

        A parameter occurring with a negative exponent may only be replaced
        by a single-term polynomial (so that its inverse is again a Laurent
        term); anything else raises :class:`NotDivisible`.
        """
        polys = {name: as_poly(v) for name, v in mapping.items()}
        out = PolyExpr.zero()
        for mono, v in self.terms.items():  # the numerators, divided by den below
            term = _canonical({_ONE_MONOMIAL: v})
            for name, e in mono:
                if name not in polys:
                    term = term * PolyExpr.param(name, e)
                    continue
                rep = polys[name]
                if e >= 0:
                    term = term * rep**e
                else:
                    term = term * poly_div_exact(1, rep) ** (-e)
            out = out + term
        return from_int_terms(out.terms, out.den * self.den)

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
            num, den = self.terms[mono], self.den
            if den != 1:  # the coefficient num/den in lowest terms
                g = gcd(num, den)
                num, den = num // g, den // g
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
        """Read the text of the module docstring's grammar; the terms are
        summed over ints at one scale and divided back once."""
        read = []  # (monomial, numerator, denominator) per term
        pos = 0
        while pos < len(text) or not read:
            m = _TERM_RE.match(text, pos)
            if m is None or (read and not m[1]):  # every later term is signed
                raise PolyParseError(f"cannot parse {text[pos:]!r} in {text!r}")
            num, den, exps = -1 if m[1].count("-") % 2 else 1, 1, {}
            try:
                for n, d, name, neg, e in _FACTOR_RE.findall(m[2]):
                    if name:
                        exps[name] = exps.get(name, 0) + (int(neg + e) if e else 1)
                    else:
                        num *= int(n)
                        den *= int(d or 1)
            except ValueError as exc:  # more digits than int() converts
                raise PolyParseError(f"number too long: {exc}") from exc
            if not den:
                raise PolyParseError(f"zero denominator in {text!r}")
            read.append((tuple(sorted((x, k) for x, k in exps.items() if k)), num, den))
            pos = m.end()
        scale = lcm(*(den for _, _, den in read))
        terms: dict[Monomial, int] = {}
        for mono, num, den in read:
            if new := terms.get(mono, 0) + num * (scale // den):
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return from_int_terms(terms, scale)


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


_set_terms = PolyExpr.terms.__set__
_set_den = PolyExpr.den.__set__
_set_neg = PolyExpr._neg.__set__
_set_str = PolyExpr._str.__set__


def _canonical(terms: dict, den: int = 1) -> PolyExpr:
    """The polynomial terms / den, which must already be canonical and in
    lowest terms (see the module docstring); the dict is taken over, not
    copied."""
    p = object.__new__(PolyExpr)
    _set_terms(p, terms)
    _set_den(p, den)
    return p


def to_int_terms(polys) -> tuple[int, list]:
    """One scale for several polynomials: ``(d, scaled)`` with ``d`` the lcm
    of their ``den`` and ``scaled[i]`` the terms of ``d * polys[i]``
    (``polys[i].terms`` itself when its den is d).  A sum of products of two
    scaled factors each is then ``d**2`` times the rational sum, exactly and
    generically in the parameters; :func:`from_int_terms` divides it back."""
    polys = list(polys)
    d = lcm(*{p.den for p in polys})
    return d, [p.terms if p.den == d else _times(p.terms, d // p.den) for p in polys]


def _times(terms: dict, s: int) -> dict:
    """The terms of s·t for the terms of t, s a nonzero int."""
    return {mono: v * s for mono, v in terms.items()}


def from_int_terms(terms: dict, scale: int) -> PolyExpr:
    """The polynomial ``terms / scale`` for a zero-free dict ``{mono: int}``
    and a nonzero int scale, e.g. a sum accumulated over the output of
    :func:`to_int_terms`, reduced to lowest terms by one gcd.  The dict is
    taken over when the scale is positive and shares no factor with it."""
    if scale != 1:
        g = gcd(scale, *terms.values())
        if scale < 0:
            g = -g
        if g != 1:
            terms = {mono: v // g for mono, v in terms.items()}
            scale //= g
    return _canonical(terms, scale)


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
    return {name: min(dict(mono).get(name, 0) for mono in terms) for name in params}


def poly_div_exact(a: PolyLike, b: PolyLike) -> PolyExpr:
    """Return q with a == q * b, or raise :class:`NotDivisible`.

    The integer terms of a are divided by the primitive part of b's, the
    terms over the gcd g of its numerators, by :func:`_div_terms`.  By
    Gauss's lemma a Laurent quotient of the two has integer coefficients
    whenever one exists, so this finds it; q is that quotient times
    b.den / (a.den·g), and no :class:`~fractions.Fraction` is built.
    """
    a = as_poly(a)
    b = as_poly(b)
    if b.is_zero:
        raise NotDivisible("division by the zero polynomial")
    g = gcd(*b.terms.values())
    q = _div_terms(a.terms, {mono: v // g for mono, v in b.terms.items()})
    if q is None:
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    return from_int_terms(_times(q, b.den), a.den * g)


def _div_terms(a: dict, b: dict) -> dict | None:
    """The terms of the Laurent quotient a / b of two integer terms dicts, b
    nonzero, or None when it has no integer coefficients or does not exist.

    By a one-term b the quotient is a monomial shift and a ``divmod`` of each
    coefficient; by the constant 1 it is the dict a itself.  By a longer b
    both operands are reduced by their monomial content (making ordinary
    polynomials with per-parameter minimum exponent zero), then integer long
    division runs under a graded ordering, one ``divmod`` of the leading
    coefficients per step; the content quotient is a Laurent monomial
    reattached at the end.  This is every exact division of the package: the
    Bareiss updates, where the quotient is known to exist, and
    :func:`poly_div_exact`."""
    if len(b) == 1:
        ((mono, c),) = b.items()
        if mono:
            inv = _mono_pow(mono, -1)
        elif c == 1:
            return a
        out = {}
        for x, v in a.items():
            if v % c:
                return None
            out[_mono_mul(x, inv) if mono else x] = v // c
        return out
    if not a:
        return {}
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
        c, r = divmod(rem[lead_r], div[lead_b])
        if r:
            return None
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
