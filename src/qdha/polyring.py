"""Sparse multivariate polynomials and rational functions over Q.

Polynomials are maps from exponent vectors to rationals; the grading gives each
linear coordinate degree 2.  Rational functions keep their denominator as a
multiset of normalized factors, so reduction is a sequence of exact
divisibility tests rather than a general gcd.  Equality of rational functions
is decided by cross multiplication, which is independent of how far the
factored form happens to be reduced.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Mapping, Sequence

Monomial = tuple[int, ...]


def _grlex_key(m: Monomial) -> tuple:
    return (sum(m), m)


class Poly:
    """A polynomial in ``nvars`` variables with exact rational coefficients."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[Monomial, Fraction] | None = None):
        self.nvars = nvars
        cleaned = {}
        if coeffs:
            for m, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    cleaned[tuple(m)] = c
        self.coeffs: dict[Monomial, Fraction] = cleaned

    # ----- constructors -----

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        return Poly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {m: Fraction(1)})

    @staticmethod
    def linear(coeffs: Sequence) -> "Poly":
        n = len(coeffs)
        return Poly(n, {tuple(1 if j == i else 0 for j in range(n)): Fraction(c)
                        for i, c in enumerate(coeffs) if Fraction(c) != 0})

    # ----- basic structure -----

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(m) for m in self.coeffs)

    def graded_degree(self) -> int:
        """Degree in the grading where each variable has degree 2."""
        return 2 * self.total_degree() if self.coeffs else -1

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading term for graded lexicographic order."""
        m = max(self.coeffs, key=_grlex_key)
        return m, self.coeffs[m]

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    # ----- arithmetic -----

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {m: c * v for m, v in self.coeffs.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(self.nvars, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    # ----- substitution and evaluation -----

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Ring map sending variable i to ``images[i]``."""
        out = Poly.zero(images[0].nvars if images else self.nvars)
        for m, c in self.coeffs.items():
            term = Poly.const(out.nvars, c)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * images[i]
            out = out + term
        return out

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.coeffs.items():
            v = c
            for x, e in zip(point, m):
                v *= Fraction(x) ** e
            total += v
        return total

    # ----- printing -----

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in self.items_sorted():
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


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Division with remainder by the single divisor ``g`` in graded lex order.

    The remainder is zero exactly when g divides f, since a single polynomial
    is a Groebner basis of the ideal it generates.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = Poly.zero(f.nvars)
    r = Poly.zero(f.nvars)
    lg, cg = g.leading()
    work = f
    while not work.is_zero():
        m, c = work.leading()
        if all(a >= b for a, b in zip(m, lg)):
            t = Poly(f.nvars, {tuple(a - b for a, b in zip(m, lg)): c / cg})
            q = q + t
            work = work - t * g
        else:
            t = Poly(f.nvars, {m: c})
            r = r + t
            work = work - t
    return q, r


def poly_divides(g: Poly, f: Poly) -> bool:
    return poly_divmod(f, g)[1].is_zero()


def poly_content(f: Poly) -> Fraction:
    """Positive rational c such that f/c has coprime integer coefficients."""
    if f.is_zero():
        return Fraction(1)
    nums = [abs(c.numerator) for c in f.coeffs.values()]
    dens = [c.denominator for c in f.coeffs.values()]
    return Fraction(reduce(gcd, nums), reduce(lambda a, b: a * b // gcd(a, b), dens))


def normalize_factor(f: Poly) -> tuple[Poly, Fraction]:
    """Scale f to primitive integer form with positive leading coefficient.

    Returns (normalized factor, scalar) with ``f = scalar * normalized``.
    """
    if f.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    c = poly_content(f)
    _, lead = f.leading()
    if lead < 0:
        c = -c
    return f.scale(Fraction(1) / c), c


def _poly_key(f: Poly) -> tuple:
    return (f.nvars, tuple(sorted(f.coeffs.items())))


class RatFunc:
    """A rational function num / prod(factors), with factors kept normalized.

    The factored denominator makes reduction exact and cheap for the operator
    calculus, where denominators are products of linear root forms.  Equality
    is by cross multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Mapping[Poly, int] | None = None):
        self.num = num
        factors: dict[tuple, tuple[Poly, int]] = {}
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
                key = _poly_key(nf)
                if key in factors:
                    factors[key] = (nf, factors[key][1] + mult)
                else:
                    factors[key] = (nf, mult)
        if scalar != 1:
            num = num.scale(Fraction(1) / scalar)
        self.den: dict[tuple, tuple[Poly, int]] = factors
        self.num = num
        self._reduce()

    def _reduce(self) -> None:
        if self.num.is_zero():
            self.den = {}
            return
        for key in list(self.den):
            p, mult = self.den[key]
            while mult > 0:
                q, r = poly_divmod(self.num, p)
                if not r.is_zero():
                    break
                self.num = q
                mult -= 1
            if mult == 0:
                del self.den[key]
            else:
                self.den[key] = (p, mult)

    # ----- constructors -----

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p)

    @staticmethod
    def const(nvars: int, c) -> "RatFunc":
        return RatFunc(Poly.const(nvars, c))

    def den_poly(self) -> Poly:
        out = Poly.const(self.num.nvars, 1)
        for p, mult in sorted(self.den.values(), key=lambda pm: _poly_key(pm[0])):
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
        merged: dict[tuple, tuple[Poly, int]] = {}
        for key, (p, m) in list(self.den.items()) + list(other.den.items()):
            if key in merged:
                merged[key] = (p, max(merged[key][1], m))
            else:
                merged[key] = (p, m)
        def complement(own):
            out = Poly.const(self.num.nvars, 1)
            for key, (p, m) in merged.items():
                extra = m - own.get(key, (p, 0))[1]
                for _ in range(extra):
                    out = out * p
            return out
        num = self.num * complement(self.den) + other.num * complement(other.den)
        return RatFunc(num, {p: m for p, m in merged.values()})

    def __neg__(self) -> "RatFunc":
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = dict(self.den)
        return out

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        den: dict[Poly, int] = {}
        for p, m in list(self.den.values()) + list(other.den.values()):
            den[p] = den.get(p, 0) + m
        return RatFunc(self.num * other.num, den)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den_poly(), {self.num: 1})

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den_poly()) == (other.num * self.den_poly())

    def __hash__(self):
        # Hash only structural invariants that survive reduction differences.
        return hash(self.num.nvars)

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


def apply_linear(f: Poly, images: Sequence[Poly]) -> Poly:
    """Apply the ring automorphism determined by variable images to f."""
    return f.substitute(images)


def apply_linear_rat(r: RatFunc, images: Sequence[Poly]) -> RatFunc:
    num = r.num.substitute(images)
    den: dict[Poly, int] = {}
    for p, m in r.den.values():
        img = p.substitute(images)
        den[img] = den.get(img, 0) + m
    return RatFunc(num, den)


def demazure(f: Poly, alpha: Poly, reflected: Poly) -> Poly:
    """Divided difference ``(reflected - f) / alpha``; the division is exact.

    ``reflected`` must be the reflection of f in the wall of the linear form
    ``alpha``, so that the numerator vanishes on the wall.
    """
    q, r = poly_divmod(reflected - f, alpha)
    if not r.is_zero():
        raise ArithmeticError("divided difference left a remainder; reflection data inconsistent")
    return q
