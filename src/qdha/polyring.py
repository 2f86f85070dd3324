"""Sparse multivariate polynomials and rational functions over Q.

A polynomial is stored as integer numerators, one per exponent vector, over
one positive integer denominator, as FLINT's ``fmpq_poly`` does.  The form is
canonical: no numerator is zero and the denominator and all numerators have
gcd 1, so equal polynomials have equal representations and ``==`` and
``hash`` are structural.  Internal results skip validation and never re-wrap
a coefficient: ``_canonical`` divides out the gcd, and ``_make`` takes a form
already known to be in lowest terms.  The grading gives each linear
coordinate degree 2.

Rational functions keep their denominator as a multiset of primitive integer
factors with positive leading coefficient, so reduction is a sequence of
exact divisibility tests rather than a general gcd.  By Gauss's lemma a
primitive factor divides an integer polynomial over Q exactly when it divides
it over Z, so the test is integer division in graded lex order that stops at
the first term leaving a remainder.  Equality of rational functions is decided
by cross multiplication, which is independent of how far the factored form
happens to be reduced.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Mapping, Sequence

Monomial = tuple[int, ...]
IntTerms = dict[Monomial, int]


def _grlex_key(m: Monomial) -> tuple:
    return (sum(m), m)


def _make(nvars: int, numer: IntTerms, denom: int) -> "Poly":
    """The trusted constructor: ``numer / denom`` must already be canonical."""
    p = object.__new__(Poly)
    p.nvars = nvars
    p.numer = numer
    p.denom = denom
    return p


def _canonical(nvars: int, numer: IntTerms, denom: int) -> "Poly":
    """``numer / denom`` with the gcd divided out; numer has no zero terms."""
    if denom != 1 and numer:
        g = gcd(denom, *numer.values())
        if g != 1:
            numer = {m: c // g for m, c in numer.items()}
            denom //= g
    elif not numer:
        denom = 1
    return _make(nvars, numer, denom)


def _int_mul(a: IntTerms, b: IntTerms) -> IntTerms:
    """Product of two integer polynomials, without zero terms."""
    if len(b) == 1:
        (mb, cb), = b.items()
        return {tuple(map(add, m, mb)): c * cb for m, c in a.items()}
    out: IntTerms = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return out


class Poly:
    """A polynomial in ``nvars`` variables with exact rational coefficients.

    ``numer`` maps exponent vectors to integer numerators over the positive
    integer ``denom``; a Poly is never mutated.
    """

    __slots__ = ("nvars", "numer", "denom")

    def __init__(self, nvars: int, coeffs: Mapping[Monomial, Fraction] | None = None):
        fracs = [(tuple(m), Fraction(c)) for m, c in coeffs.items()] if coeffs else []
        # over the lcm of the reduced denominators, the numerators are coprime to it
        denom = lcm(*(c.denominator for _, c in fracs)) if fracs else 1
        numer = {m: c.numerator * (denom // c.denominator) for m, c in fracs if c}
        self.nvars = nvars
        self.numer = numer
        self.denom = denom

    # ----- constructors -----

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return _make(nvars, {}, 1)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return _make(nvars, {}, 1)
        return _make(nvars, {(0,) * nvars: c.numerator}, c.denominator)

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return _make(nvars, {m: 1}, 1)

    @staticmethod
    def linear(coeffs: Sequence) -> "Poly":
        n = len(coeffs)
        return Poly(n, {tuple(1 if j == i else 0 for j in range(n)): c
                        for i, c in enumerate(coeffs)})

    # ----- basic structure -----

    @property
    def coeffs(self) -> dict[Monomial, Fraction]:
        """The coefficients as a fresh map to ``Fraction``; empty exactly for zero."""
        return {m: Fraction(c, self.denom) for m, c in self.numer.items()}

    def is_zero(self) -> bool:
        return not self.numer

    def is_constant(self) -> bool:
        return not any(any(m) for m in self.numer)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.numer.get((0,) * self.nvars, 0), self.denom)

    def total_degree(self) -> int:
        if not self.numer:
            return -1
        return max(sum(m) for m in self.numer)

    # ----- arithmetic -----

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """``self + sign * other``."""
        a, b = self.numer, other.numer
        da, db = self.denom, other.denom
        if da == db:
            out = dict(a)
            denom = da
        else:
            denom = lcm(da, db)
            fa = denom // da
            out = {m: c * fa for m, c in a.items()}
            sign *= denom // db
        get = out.get
        for m, c in b.items():
            v = get(m, 0) + sign * c
            if v:
                out[m] = v
            else:
                del out[m]
        return _canonical(self.nvars, out, denom)

    def __add__(self, other: "Poly") -> "Poly":
        if not other.numer:
            return self
        if not self.numer:
            return other
        return self._combine(other, 1)

    def __neg__(self) -> "Poly":
        return _make(self.nvars, {m: -c for m, c in self.numer.items()}, self.denom)

    def __sub__(self, other: "Poly") -> "Poly":
        if not other.numer:
            return self
        return self._combine(other, -1)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.numer or not other.numer:
            return _make(self.nvars, {}, 1)
        a, b = self.numer, other.numer
        if len(a) < len(b):
            a, b = b, a
        return _canonical(self.nvars, _int_mul(a, b), self.denom * other.denom)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.nvars)
        n = c.numerator
        return _canonical(self.nvars, {m: n * v for m, v in self.numer.items()},
                          self.denom * c.denominator)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.const(self.nvars, 1)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.denom == other.denom and self.numer == other.numer)

    def __hash__(self):
        return hash((self.nvars, self.denom, frozenset(self.numer.items())))

    # ----- substitution and evaluation -----

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Ring map sending variable i to ``images[i]``."""
        nvars = images[0].nvars if images else self.nvars
        if not self.numer:
            return _make(nvars, {}, 1)
        # images[i] = ints[i] / d over one common denominator d; a term of
        # degree k is scaled by d^(top - k) so that all share d^top
        d = lcm(*(img.denom for img in images))
        ints = [{m: c * (d // img.denom) for m, c in img.numer.items()} if img.denom != d
                else img.numer for img in images]
        one = {(0,) * nvars: 1}
        powers: list[list[IntTerms]] = [[one] for _ in images]
        top = self.total_degree()
        out: IntTerms = {}
        get = out.get
        for m, c in self.numer.items():
            term = one
            for i, e in enumerate(m):
                if e:
                    pw = powers[i]
                    while len(pw) <= e:
                        pw.append(_int_mul(pw[-1], ints[i]))
                    term = pw[e] if term is one else _int_mul(term, pw[e])
            if d != 1:
                c *= d ** (top - sum(m))
            for tm, tc in term.items():
                out[tm] = get(tm, 0) + c * tc
        if 0 in out.values():
            out = {m: c for m, c in out.items() if c}
        return _canonical(nvars, out, self.denom * d ** top)

    def evaluate(self, xs: Sequence[int], q: int) -> Fraction:
        """The value at the rational point ``xs / q``, given as integer numerators
        over a positive common denominator: with d the total degree, it is
        ``sum_m c_m xs^m q^(d - |m|)`` over ``q^d denom``, one ``Fraction`` in all."""
        d = max(self.total_degree(), 0)
        total = 0
        for m, c in self.numer.items():
            for x, e in zip(xs, m):
                if e:
                    c *= x ** e
            total += c * q ** (d - sum(m))
        return Fraction(total, q ** d * self.denom)

    # ----- printing -----

    def __repr__(self) -> str:
        if not self.numer:
            return "0"
        parts = []
        for m, c in sorted(self.coeffs.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True):
            mono = "*".join(
                (f"x{i}" if e == 1 else f"x{i}^{e}") for i, e in enumerate(m) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def _exact_quotient(f: Poly, p: Poly) -> Poly | None:
    """f / p for a primitive integer polynomial p, or None when p does not divide f.

    Divides the numerators in graded lex order and stops at the first term
    that the leading term of p does not divide, or whose coefficient the
    leading coefficient of p does not divide.  For a primitive p that happens
    exactly when p does not divide f, since the quotient then has integer
    coefficients (Gauss's lemma).  It has the content of f, so it stays in
    lowest terms over f's denominator.
    """
    g = p.numer
    lg = max(g, key=_grlex_key)
    cg = g[lg]
    tail = [(m, c) for m, c in g.items() if m != lg]
    work = dict(f.numer)
    q: IntTerms = {}
    while work:
        m = max(work, key=_grlex_key)
        shift = tuple(map(sub, m, lg))
        if min(shift) < 0:
            return None
        t, rem = divmod(work.pop(m), cg)
        if rem:
            return None
        q[shift] = t
        get = work.get
        for gm, gc in tail:
            wm = tuple(map(add, shift, gm))
            v = get(wm, 0) - t * gc
            if v:
                work[wm] = v
            else:
                del work[wm]
    return _make(f.nvars, q, f.denom)


def normalize_factor(f: Poly) -> tuple[Poly, Fraction]:
    """Scale f to primitive integer form with positive leading coefficient.

    Returns (normalized factor, scalar) with ``f = scalar * normalized``.
    """
    if f.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    content = gcd(*f.numer.values())
    if f.numer[max(f.numer, key=_grlex_key)] < 0:
        content = -content
    if content == 1 and f.denom == 1:
        return f, Fraction(1)
    return (_make(f.nvars, {m: c // content for m, c in f.numer.items()}, 1),
            Fraction(content, f.denom))


def _ratfunc(num: Poly, den: dict[Poly, int]) -> "RatFunc":
    """The trusted constructor: den maps normalized factors to positive
    multiplicities; the result is reduced."""
    out = object.__new__(RatFunc)
    out.num = num
    out.den = den
    if den:
        out._reduce()
    return out


class RatFunc:
    """A rational function num / prod(factors), with factors kept normalized.

    The factored denominator makes reduction exact and cheap for the operator
    calculus, where denominators are products of linear root forms.  ``den``
    maps each normalized factor to its multiplicity.  Equality is by
    cross multiplication; rational functions are not hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Mapping[Poly, int] | None = None):
        factors: dict[Poly, int] = {}
        scalar = Fraction(1)
        if den:
            for p, mult in den.items():
                if mult == 0:
                    continue
                if mult < 0:
                    raise ValueError("denominator multiplicities must be >= 0")
                if p.is_zero():
                    raise ZeroDivisionError("zero denominator factor")
                if p.is_constant():
                    scalar *= p.constant_value() ** mult
                    continue
                nf, c = normalize_factor(p)
                scalar *= c ** mult
                factors[nf] = factors.get(nf, 0) + mult
        if scalar != 1:
            num = num.scale(Fraction(1) / scalar)
        self.num = num
        self.den = factors
        self._reduce()

    def _reduce(self) -> None:
        num = self.num
        if not num.numer:
            self.den = {}
            return
        den = self.den
        for p, mult in list(den.items()):
            left = mult
            while left:
                q = _exact_quotient(num, p)
                if q is None:
                    break
                num = q
                left -= 1
            if not left:
                del den[p]
            elif left != mult:
                den[p] = left
        self.num = num

    # ----- constructors -----

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return _ratfunc(p, {})

    @staticmethod
    def const(nvars: int, c) -> "RatFunc":
        return _ratfunc(Poly.const(nvars, c), {})

    def den_poly(self) -> Poly:
        out = Poly.const(self.num.nvars, 1)
        for p, mult in self.den.items():
            for _ in range(mult):
                out = out * p
        return out

    # ----- structure -----

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return not self.den

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError(f"{self} has a nontrivial denominator")
        return self.num

    def is_constant(self) -> bool:
        return self.is_poly() and self.num.is_constant()

    # ----- arithmetic -----

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den == other.den:
            return _ratfunc(self.num + other.num, dict(self.den))
        merged = dict(self.den)
        for p, m in other.den.items():
            if merged.get(p, 0) < m:
                merged[p] = m

        def complement(own):
            out = Poly.const(self.num.nvars, 1)
            for p, m in merged.items():
                for _ in range(m - own.get(p, 0)):
                    out = out * p
            return out

        num = self.num * complement(self.den) + other.num * complement(other.den)
        return _ratfunc(num, merged)

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = dict(self.den)
        return out

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        den = dict(self.den)
        for p, m in other.den.items():
            den[p] = den.get(p, 0) + m
        return _ratfunc(self.num * other.num, den)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den_poly(), {self.num: 1})

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den_poly()) == (other.num * self.den_poly())

    __hash__ = None

    def __repr__(self) -> str:
        if self.is_poly():
            return repr(self.num)
        return f"({self.num!r}) / ({self.den_poly()!r})"


def monomials(nvars: int, max_degree: int) -> list[Monomial]:
    """All exponent vectors of total degree <= max_degree, sorted."""
    out = [()]
    for _ in range(nvars):
        out = [m + (e,) for m in out for e in range(max_degree + 1)]
    return sorted(m for m in out if sum(m) <= max_degree)


def apply_linear_rat(r: RatFunc, images: Sequence[Poly]) -> RatFunc:
    """r under a Weyl automorphism, given by the variable images.  A lattice
    automorphism keeps a fraction reduced and a factor primitive, so only the
    factors' signs are normalized; a non-primitive image raises ArithmeticError."""
    out = object.__new__(RatFunc)
    out.num, out.den = r.num.substitute(images), {}
    for p, m in r.den.items():
        img, c = normalize_factor(p.substitute(images))
        if abs(c) != 1:
            raise ArithmeticError(f"the image of {p} is not primitive")
        if c < 0 and m % 2:
            out.num = -out.num
        out.den[img] = m
    return out


def divide_exact(f: Poly, g: tuple[Poly, Fraction]) -> Poly:
    """f / g for a nonzero g, given as ``normalize_factor(g)``, that divides f;
    a remainder raises ArithmeticError."""
    prim, scalar = g
    q = _exact_quotient(f, prim)
    if q is None:
        raise ArithmeticError("exact division left a remainder")
    return q if scalar == 1 else -q if scalar == -1 else q.scale(1 / scalar)
