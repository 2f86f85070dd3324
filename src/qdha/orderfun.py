"""Order functions: the exponent data driving all the operator algebras.

An order function is a finitely supported map ``S -> Z_{>=-1}`` attached to a
base point ``lambda_0``, invariant under the stabilizer of the base point, with
value -1 allowed only on roots vanishing at the base point.  It transports
along the orbit by ``omega_{w lambda_0}(a) = omega(w^{-1} a)``, so at the
weight ``w lambda_0`` it is the moved support ``{w a: omega(a)}``
(``OrderFunction.moved``), the same table for every witness w.
``qdha.algebra.Algebra`` carries each table along the letters, so it walks a
witness (``OrderFunction.witness``) only where no letter reached the weight.

Its finite shadow lives on the torus orbit: for a point ``ell = exp(lambda)``
(a point of E taken modulo the coroot lattice) and a positive root,
integrating the order function over all affine roots with a fixed
differential gives the finite order function driving the finite quotient
algebra (``qdha.kz.integral_b_order_function``, read off the coset
representatives).  The orbit itself is tabulated once, by ``TorusOrbit``.
Both extraction recipes from deformation parameters ``h`` are exact: the
affine one reads off orders of vanishing of ``(z - h_a)/z`` at rational
points, the finite one reduces to congruences of exponents modulo 1.

Weights and torus points are integers.  Every weight ``w lambda_0 + mu`` is an
integer vector over the denominator D of ``lambda_0``, so it is keyed by its
numerators over D (``rootsys.PointKey``), and a torus point by the canonical
numerators in ``[0, D)``.  The order function holds D as ``over``, a
``weyl.PointsOver``, which turns a ``Fraction`` point into its key and back;
only the input ``lambda_0`` and written reports hold ``Fraction`` points.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .rootsys import AffineRoot, PointKey, RootKey, vec
from .weyl import AffineWeylElement, AffineWeylGroup, Perm, PointsOver, common_denominator


class InvalidOrderFunction(ValueError):
    pass


class WindowTooSmall(ValueError):
    pass


class TorusOrbit:
    """The finite Weyl orbit of the torus point of ``base``, tabulated once.

    A point is keyed by its numerators over the denominator D of ``base``
    (``over.den``); a torus point, a point modulo the coroot lattice, by its
    canonical numerators in ``[0, D)``.

    * ``points``: the canonical torus points of the orbit, sorted;
    * ``cosets``: per point, the shortest finite element sending the base
      there, the lexicographically least word breaking ties; keys in point
      order;
    * ``lifts``: per point, the unreduced ``w base`` for that element w;
    * ``act(w, ell)``: the canonical point of ``w ell``, read from a table
      over W x orbit.

    Nothing changes after construction.
    """

    def __init__(self, group: AffineWeylGroup, base: Sequence):
        fin = group.finite
        self.base = vec(base)
        self.over = PointsOver(common_denominator(self.base))
        den = self.over.den
        base_key = self.over.key(self.base)
        image: dict[Perm, PointKey] = {}
        cosets: dict[PointKey, Perm] = {}
        lifts: dict[PointKey, PointKey] = {}
        for w in fin.shortlex:
            lam = fin.act_point(w, base_key)
            ell = image[w] = tuple(c % den for c in lam)
            if ell not in cosets:
                cosets[ell] = w
                lifts[ell] = lam
        self.points: tuple[PointKey, ...] = tuple(sorted(cosets))
        self.cosets: dict[PointKey, Perm] = {ell: cosets[ell] for ell in self.points}
        self.lifts: dict[PointKey, PointKey] = {ell: lifts[ell] for ell in self.points}
        # w (v base) = (w v) base
        self._act: dict[tuple[Perm, PointKey], PointKey] = {
            (w, ell): image[fin.compose(w, v)] for w in fin.elements for ell, v in self.cosets.items()
        }

    def _outside(self, ell: PointKey) -> ValueError:
        return ValueError(f"{self.over(ell)} is not in the torus orbit of {self.base}")

    def point(self, x: PointKey) -> PointKey:
        """The canonical torus point of the weight keyed x, which must lie in the orbit."""
        den = self.over.den
        ell = tuple(c % den for c in x)
        if ell not in self.cosets:
            raise self._outside(ell)
        return ell

    def act(self, w: Perm, ell: PointKey) -> PointKey:
        """The canonical point of ``w ell`` for an orbit point ell."""
        try:
            return self._act[w, ell]
        except KeyError:
            raise self._outside(ell) from None


class OrderFunction:
    """A finitely supported order function based at ``base_point``.

    ``support`` maps affine roots to integers >= -1; roots outside the support
    have value 0.  Validation enforces stabilizer invariance and the wall
    condition for value -1.
    """

    def __init__(self, group: AffineWeylGroup, base_point: Sequence, support: Mapping[AffineRoot, int]):
        self.group = group
        self.ars = group.ars
        self.base_point = vec(base_point)
        self.support: dict[AffineRoot, int] = {
            a: int(v) for a, v in sorted(support.items()) if int(v) != 0
        }
        self.torus = TorusOrbit(group, self.base_point)
        # D, and the conversions between weights and their keys over it
        self.over = self.torus.over
        self.base_key = self.over.key(self.base_point)
        self.validate()
        # the base point's walk to the fundamental alcove, for every witness
        self.base_walk = group.to_fundamental_domain(self.base_key, self.over.den)

    # ----- validation -----

    def validate(self) -> None:
        ars = self.ars
        for a, v in self.support.items():
            if not ars.is_root(a):
                raise InvalidOrderFunction(f"{a} is not an affine root")
            if v < -1:
                raise InvalidOrderFunction(f"value {v} at {a} is below -1")
            if v == -1 and ars.evaluate(a, self.base_point) != 0:
                raise InvalidOrderFunction(f"value -1 at {a} but a(lambda0) != 0")
        _, stab = self.group.stabilizer(self.base_key, self.over.den)
        for g in stab:
            for a, v in self.support.items():
                if self.value(self.group.act_root(g, a)) != v:
                    raise InvalidOrderFunction(
                        f"not invariant under the stabilizer: {a} vs {self.group.act_root(g, a)}"
                    )

    # ----- evaluation -----

    def value(self, a: AffineRoot) -> int:
        """The extended function at any affine root."""
        return self.support.get(a, 0)

    def moved(self, witness: AffineWeylElement) -> dict[AffineRoot, int]:
        """omega at ``w lambda0`` as the table ``{w a: omega(a)}``, the same for every witness w."""
        return {self.group.act_root(witness, a): v for a, v in self.support.items()}

    def witness(self, lam: PointKey) -> AffineWeylElement | None:
        """Some w with w lambda0 = lam, or None if lam is not in the orbit."""
        return self.group.witness_from(lam, self.over.den, self.base_walk)

    def support_level_radius(self) -> int:
        if not self.support:
            return 0
        return max(abs(a.level) for a in self.support)

    def __repr__(self) -> str:
        return f"OrderFunction(base={self.base_point}, support={self.support})"


def _orbit_parameter(h, rs, alpha: RootKey) -> Fraction:
    """The deformation parameter for a root, constant on length classes."""
    if isinstance(h, Mapping):
        n2 = rs.norm2(alpha)
        if n2 not in h:
            raise ValueError(f"'ddaha_h' gives no value for roots of squared length {n2}; "
                             f"it gives squared lengths {', '.join(map(str, sorted(h)))}")
        return Fraction(h[n2])
    return Fraction(h)


def from_ddaha_h(group: AffineWeylGroup, h, base_point: Sequence, window: int) -> OrderFunction:
    """Order function of the deformation with parameters h at the base point.

    The value at an affine root a is the order of ``(z - h_a) / z`` at
    ``z = a(lambda0)``: +1 on ``a(lambda0) = h_a != 0``, -1 on
    ``a(lambda0) = 0 != h_a``, else 0.  The support must fit strictly inside
    the level window, otherwise the window is reported as too small.
    """
    ars = group.ars
    base_point = vec(base_point)
    support: dict[AffineRoot, int] = {}
    for a in ars.window(window):
        ha = _orbit_parameter(h, ars.finite, a.alpha)
        val = ars.evaluate(a, base_point)
        order = (1 if (val == ha and ha != 0) else 0) - (1 if (val == 0 and ha != 0) else 0)
        if order:
            support[a] = order
    for a in support:
        if abs(a.level) >= window:
            raise WindowTooSmall(
                f"support reaches level {a.level}; enlarge the window beyond {window}"
            )
    return OrderFunction(group, base_point, support)


class BOrderFunction:
    """The finite order function on the torus orbit of ``exp(lambda0)``.

    Stored as a table over (canonical torus point key, positive root).  The
    orbit is passed in, so the finite order function integrated from an
    order function shares its ``torus``.
    """

    def __init__(self, group: AffineWeylGroup, torus: TorusOrbit,
                 table: Mapping[tuple[PointKey, RootKey], int]):
        self.group = group
        self.rs = group.rs
        self.torus = torus
        self.base_point = torus.base
        self.table = {k: int(v) for k, v in table.items()}
        self.over = torus.over
        self.validate()

    def value(self, ell: PointKey, alpha: RootKey) -> int:
        return self.table.get((self.torus.point(ell), alpha), 0)

    def validate(self) -> None:
        rs = self.rs
        fin = self.group.finite
        for (ell, alpha), v in self.table.items():
            if v < -1:
                raise InvalidOrderFunction(f"value {v} below -1 at {(self.over(ell), alpha)}")
            if v == -1 and rs.pair_root_point(alpha, ell) % self.over.den:
                raise InvalidOrderFunction(
                    f"-1 at {(self.over(ell), alpha)} but Y^alpha(ell) != 1")
        # equivariance on positive pairs
        for (ell, alpha), v in self.table.items():
            for w in fin.elements:
                walpha = fin.act_root(w, alpha)
                if rs.is_positive_root(walpha):
                    key = (self.torus.act(w, ell), walpha)
                    if key in self.table and self.table[key] != v:
                        raise InvalidOrderFunction(f"not equivariant at {(self.over(ell), alpha)} "
                                                   f"vs {(self.over(key[0]), walpha)}")


def from_ddaha_k(group: AffineWeylGroup, h, base_point: Sequence) -> BOrderFunction:
    """Finite order function of the deformation, by congruence arithmetic mod 1.

    With ``Y^alpha(ell) = exp(2 pi i <alpha, lambda>)`` and squared parameters
    ``exp(2 pi i h_alpha)``, the order of ``(z - v^2)/(z - 1)`` at Y is decided
    by congruences of the exponents modulo 1; no complex numbers are needed.
    """
    rs = group.rs
    torus = TorusOrbit(group, base_point)
    den = torus.over.den
    bof_table: dict[tuple[PointKey, RootKey], int] = {}
    for ell in torus.points:
        for alpha in rs.positive_roots:
            yexp = rs.pair_root_point(alpha, ell)            # Y^alpha(ell) = e(yexp / D)
            halpha = _orbit_parameter(h, rs, alpha)          # v_alpha^2 = e(h_alpha)
            order = ((1 if (Fraction(yexp, den) - halpha).denominator == 1 else 0)
                     - (1 if yexp % den == 0 else 0))
            if order:
                bof_table[(ell, alpha)] = order
    return BOrderFunction(group, torus, bof_table)
