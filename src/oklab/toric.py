"""Smooth projective toric testbeds with exact divisor/cone arithmetic.

A variety is modelled by its complete smooth fan (primitive ray generators
plus maximal cones); a torus-invariant Q-divisor is integer coefficients on
the rays over one denominator.  Each fan's linear algebra is done once: the
class map is one integer matrix, and the Chow-ring rule on ray monomials
gives the curve degrees (the Kleiman rows) and the intersection form, one
integer table on class coordinates; none of them touches a polytope.  The
nef and pseudo-effective cones are primitive integer rows; a cone given by
generators has as facets those through the apex of one integer hull
(`_cone_facets`), so the hull is the only facet enumeration.  P_D is given
by integer points over one denominator that span it (`section_points`):
one point per maximal cone for nef D, while only non-nef classes search
the d-subsets of rays.  Every linear system is square and solved by one
integer adjugate.

Nothing in this module touches floating point, and all values are immutable
after construction, so independent computations can run concurrently.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, product
from math import gcd, inf, lcm
from operator import mul

from .exactgeom import Polytope, integer_hull
from .linalg import adjugate, independent_rows, integer_row, primitive, rat


class FanError(ValueError):
    pass


def parse_rational(x) -> Fraction:
    """Rationals from ints, 'n/d' strings, or [num, den] pairs of ints; a float
    such as the JSON number 0.1 is a binary value, not 1/10, so it is refused."""
    if isinstance(x, (bool, float)):
        raise ValueError(f"{x!r} is not an exact rational; write \"n/d\" or [n, d]")
    if isinstance(x, (list, tuple)) and len(x) != 2:
        raise ValueError(f"rational pair must have two entries: {x!r}")
    try:
        return Fraction(*map(_integer, x)) if isinstance(x, (list, tuple)) else rat(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


def _integer(x) -> int:
    """x itself if it is an int; bools, floats and strings are refused, not cast."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

class Fan:
    """Complete smooth fan: primitive rays plus full-dimensional cones.

    Validation on load checks primitivity, smoothness (every maximal cone
    unimodular), and completeness: every ridge is shared by exactly two
    maximal cones sitting on opposite sides, the adjacency graph is
    connected, and a deterministic generic point is covered exactly once
    (which rules out fans wrapping around the origin multiple times).  The
    smoothness test takes each cone's adjugate, which gives its dual basis,
    kept in `dual_bases` for the ridge test and the divisor polytopes.
    """

    def __init__(self, name: str, rays, max_cones):
        self.name = name
        self.rays = tuple(tuple(_integer(x) for x in r) for r in rays)
        self.max_cones = tuple(tuple(sorted(_integer(i) for i in c)) for c in max_cones)
        if not self.rays:
            raise FanError("fan without rays")
        self.dim = len(self.rays[0])
        self._validate()

    # -- validation ----------------------------------------------------------

    def _validate(self):
        d = self.dim
        if any(len(r) != d for r in self.rays):
            raise FanError("rays of mixed dimensions")
        if len(set(self.rays)) != len(self.rays):
            raise FanError("duplicate rays")
        for r in self.rays:
            if all(x == 0 for x in r):
                raise FanError("zero ray")
            if primitive(r) != r:
                raise FanError(f"non-primitive ray {r}")
        self.dual_bases = {}  # cone -> rows m_k with <m_k, v_l> = delta_kl on its rays
        for c in self.max_cones:
            if len(c) != d or len(set(c)) != d:
                raise FanError(f"maximal cone {c} must have {d} distinct rays")
            if not all(0 <= i < len(self.rays) for i in c):
                raise FanError(f"cone {c} references unknown rays")
            adj, det = adjugate([self.rays[i] for i in c])
            if abs(det) != 1:
                raise FanError(f"cone {c} is not smooth (|det| != 1)")
            self.dual_bases[c] = tuple(tuple(det * x for x in a) for a in adj)
        if len(set(self.max_cones)) != len(self.max_cones):
            raise FanError("duplicate maximal cones")
        if d == 1:
            if sorted(self.rays) != [(-1,), (1,)] or len(self.max_cones) != 2:
                raise FanError("a complete smooth curve fan has rays +-1")
            self.ridges = ((),)  # a curve is its own only invariant curve
            return
        self._check_ridges()
        self._check_generic_point()

    def _check_ridges(self):
        d = self.dim
        ridges: dict[frozenset, list[tuple[int, int]]] = {}
        for ci, cone in enumerate(self.max_cones):
            for sub in combinations(cone, d - 1):
                opp = next(i for i in cone if i not in sub)
                ridges.setdefault(frozenset(sub), []).append((ci, opp))
        adj = {i: set() for i in range(len(self.max_cones))}
        for key, inc in ridges.items():
            if len(inc) != 2:
                raise FanError(f"ridge {sorted(key)} lies in {len(inc)} cones, not 2")
            (c1, o1), (c2, o2) = inc
            # the dual vector of o1 on its cone is normal to the ridge, <m, v_o1> = 1
            cone = self.max_cones[c1]
            if sum(map(mul, self.dual_bases[cone][cone.index(o1)], self.rays[o2])) >= 0:
                raise FanError(f"cones at ridge {sorted(key)} do not span both sides")
            adj[c1].add(c2)
            adj[c2].add(c1)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self.max_cones):
            raise FanError("fan support is not connected")
        # ridges tau as sorted ray tuples, one per invariant curve C_tau
        self.ridges = tuple(sorted(tuple(sorted(key)) for key in ridges))

    def _check_generic_point(self):
        for k in (997, 1009, 1013, 1019, 1021):
            # (1, 1/k, ..., 1/k^(d-1)) times k^(d-1); p = sum_i <m_i, p> v_i on each cone
            p = [k ** j for j in reversed(range(self.dim))]
            lams = [[sum(map(mul, m, p)) for m in self.dual_bases[c]] for c in self.max_cones]
            if any(x == 0 for lam in lams for x in lam):
                continue
            hits = sum(all(x > 0 for x in lam) for lam in lams)
            if hits != 1:
                raise FanError(f"generic point covered {hits} times; fan not complete")
            return
        raise FanError("could not certify completeness with a generic point")

    # -- derived data ----------------------------------------------------------

    @cached_property
    def classes(self) -> "NumClassSpace":
        return NumClassSpace(self)

    def __repr__(self):
        return f"Fan({self.name!r}, dim={self.dim}, rays={len(self.rays)})"


# ---------------------------------------------------------------------------
# divisors and flags
# ---------------------------------------------------------------------------

class TDivisor:
    """Torus-invariant Q-divisor: one rational coefficient per ray, kept as
    the integers `ints` over their least common denominator `den`.  `==` and
    `hash` compare the read-only fields (fan, den, ints), fans by identity;
    `+`, `-` and `scaled` stay on integers.  `num_class` is the numerical
    class, canonical integers over one denominator; `coeffs` and `cls` are Fraction views."""

    fan: Fan
    den: int
    ints: tuple

    def __init__(self, fan: Fan, coeffs):
        coeffs = tuple(coeffs)
        try:
            ints, den = (coeffs, 1) if all(type(a) is int for a in coeffs) else integer_row(coeffs)
        except AttributeError:  # no numerator: neither an int nor a Fraction
            bad = next(a for a in coeffs if not isinstance(a, (int, Fraction)))
            raise ValueError(f"coefficient {bad!r} is neither an int nor a Fraction") from None
        if len(ints) != len(fan.rays):
            raise ValueError("coefficient count does not match ray count")
        self.__dict__.update(fan=fan, den=den, ints=tuple(ints))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __eq__(self, other):
        return type(other) is TDivisor and (
            (self.fan, self.den, self.ints) == (other.fan, other.den, other.ints))

    def __hash__(self):
        return hash((self.fan, self.den, self.ints))

    @staticmethod
    def _from_ints(fan: Fan, ints, den: int) -> "TDivisor":
        """The divisor ints / den for den > 0, reduced to the canonical form."""
        g = gcd(den, *ints)
        div = object.__new__(TDivisor)
        div.__dict__.update(fan=fan, den=den // g, ints=tuple(a // g for a in ints))
        return div

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(a, self.den) for a in self.ints)

    @cached_property
    def num_class(self) -> tuple:
        return self.fan.classes.class_of(self.ints, self.den)

    @property
    def cls(self) -> tuple:
        y, q = self.num_class
        return tuple(Fraction(a, q) for a in y)

    def class_text(self) -> str:
        """The class as "(n/d, ...)" text, for messages."""
        return "(" + ", ".join(map(str, self.cls)) + ")"

    def __add__(self, other: "TDivisor") -> "TDivisor":
        if other.fan is not self.fan:
            raise ValueError("divisors on different fans")
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return TDivisor._from_ints(
            self.fan, [s * a + t * b for a, b in zip(self.ints, other.ints)], den)

    def __sub__(self, other: "TDivisor") -> "TDivisor":
        return self + other.scaled(-1)

    def scaled(self, c) -> "TDivisor":
        c = rat(c)
        return TDivisor._from_ints(self.fan, [c.numerator * a for a in self.ints],
                                   self.den * c.denominator)


class AdmissibleFlag:
    """Ordered rays of one smooth maximal cone: Y_i is the intersection of
    the invariant divisors of the first i rays, down to the fixed point.
    `==` and `hash` compare the read-only fields (fan, ray_indices), fans by
    identity."""

    fan: Fan
    ray_indices: tuple

    def __init__(self, fan: Fan, ray_indices):
        self.__dict__.update(fan=fan, ray_indices=tuple(_integer(i) for i in ray_indices))
        if tuple(sorted(self.ray_indices)) not in self.fan.max_cones:
            raise ValueError(
                f"flag rays {self.ray_indices} are not a maximal cone of {self.fan.name}")
        y1 = [int(i == self.ray_indices[0]) for i in range(len(self.fan.rays))]
        object.__setattr__(self, "_y1", TDivisor._from_ints(self.fan, y1, 1))

    __setattr__ = TDivisor.__setattr__

    def __eq__(self, other):
        return type(other) is AdmissibleFlag and (
            (self.fan, self.ray_indices) == (other.fan, other.ray_indices))

    def __hash__(self):
        return hash((self.fan, self.ray_indices))

    def label(self) -> str:
        return "cone:" + ",".join(str(i) for i in self.ray_indices)

    def divisor_of_y1(self) -> TDivisor:
        """O(Y_1) as a torus-invariant divisor, built once per flag."""
        return self._y1

    def phi(self, p, ints, s) -> tuple:
        """The flag's valuation phi(u) = (<u, v_i> + a_i)_i of chi^u in O(D), a unimodular
        affine map (Lazarsfeld-Mustata 2009, Prop. 6.1), on integers: (<p, v_i> + s a_i)_i
        over L for u = p / L, D = ints / den and s = L / den."""
        rays = self.fan.rays
        return tuple(sum(map(mul, rays[i], p)) + s * ints[i] for i in self.ray_indices)

    def section_image(self, divisor: TDivisor) -> tuple[int, list]:
        """(L, phi of `section_points`): integer points over L spanning phi(P_D), for
        nef D one phi(m_sigma) = a_f + R_sigma a_sigma per maximal cone (`_cone_images`)."""
        a = divisor.ints
        if not self.fan.classes.is_nef(divisor.num_class[0]):
            L, points = section_points(self.fan, divisor)
            return L, [self.phi(p, a, L // divisor.den) for p in points]
        return divisor.den, [tuple(a[f] + sum(a[i] * x for i, x in zip(sigma, row))
                                   for f, row in zip(self.ray_indices, rows))
                             for sigma, rows in _cone_images(self)]


@cache
def _cone_images(flag: AdmissibleFlag) -> tuple:
    """(sigma, R_sigma) per maximal cone, R_sigma[k][i] = -<m_i(sigma), v_{f_k}>, memoised."""
    fan = flag.fan
    return tuple((sigma, [[-sum(map(mul, m, fan.rays[f])) for m in fan.dual_bases[sigma]]
                          for f in flag.ray_indices]) for sigma in fan.max_cones)


# ---------------------------------------------------------------------------
# numerical classes and cones
# ---------------------------------------------------------------------------

class NumClassSpace:
    """N^1(X) with exact nef / pseudo-effective cone inequalities.

    Classes are coordinates over the rays left free after quotienting the
    ray-coefficient space by the relations u -> (<u, v_rho>)_rho.  The class
    map is one integer matrix over one denominator, built here: its columns
    are the classes of the ray divisors, which also generate the
    pseudo-effective cone.  The nef cone is cut out by the degrees on the
    invariant curves, one Kleiman row per ridge (Cox-Little-Schenck Thm
    6.3.12).  Both H-representations are primitive integer rows.  A class
    y / q is kept as its integers y over q > 0, so every membership question
    is a sign test on y, and the form and mu contract the integers.
    """

    def __init__(self, fan: Fan):
        self.fan = fan
        n, d = len(fan.rays), fan.dim
        pivots = [i for i, _, _ in independent_rows(fan.rays)]
        if len(pivots) != d:
            raise FanError("rays do not span the ambient lattice")
        self.free_rays = tuple(i for i in range(n) if i not in pivots)
        self.rank = len(self.free_rays)
        # v_f = sum_k <a_k, v_f>/det v_{p_k}, so D_{p_k} = -sum_f <a_k, v_f>/det D_f
        # in N^1: column i over |det| is the class of D_i
        adj, det = adjugate([fan.rays[i] for i in pivots])
        sign, self._class_den = (1, det) if det > 0 else (-1, -det)
        self._class_rows = tuple(
            tuple(-sign * sum(map(mul, adj[pivots.index(i)], fan.rays[f]))
                  if i in pivots else self._class_den * (i == f) for i in range(n))
            for f in self.free_rays)
        # the integer class (y, q) of each ray divisor D_i, canonical as in `class_of`
        self.ray_classes = tuple(self.class_of([int(i == k) for k in range(n)], 1)
                                 for i in range(n))
        self.eff_rows = _cone_facets(list(zip(*self._class_rows)), self.rank)
        # D . C_tau = <curve_rows[tau], class of D>: the degrees of the free-ray
        # divisors on the invariant curve of the ridge tau
        self.curve_rows = {tau: tuple(_monomial(fan, tuple(sorted((f,) + tau)))
                                      for f in self.free_rays) for tau in fan.ridges}
        self.nef_rows = tuple(sorted({primitive(g) for g in self.curve_rows.values() if any(g)}))
        # D_{f_1} ... D_{f_d} over the ordered d-tuples of free rays, flat in
        # lexicographic order: the intersection form on classes
        self._form_table = [_monomial(fan, tuple(sorted(fs)))
                            for fs in product(self.free_rays, repeat=d)]

    # -- class map and intersection form ----------------------------------------

    def class_of(self, ints, den) -> tuple:
        """Numerical class of the ray-coefficient vector ints / den in free-ray
        coordinates, by one integer product with the class matrix: the canonical
        y / q with q > 0 and gcd(q, *y) = 1, so equal classes are equal pairs."""
        y = [sum(map(mul, row, ints)) for row in self._class_rows]
        q = den * self._class_den
        g = gcd(q, *y)
        return tuple(a // g for a in y), q // g

    def contract(self, classes) -> tuple:
        """(ints, den): the form contracted with k <= d classes (y, q), one class at a
        time, on integers: the r^(d-k) integers, flat in lexicographic order, over den,
        the product of the q.  For k = d - 1 it is the linear form D_1 ... D_{d-1} . -,
        so a last class (y, q) gives the number <ints, y> / (den q)."""
        table, den, r = self._form_table, 1, self.rank
        for y, q in classes:
            table = [sum(map(mul, y, table[i:i + r])) for i in range(0, len(table), r)]
            den *= q
        return table, den

    def form(self, classes) -> Fraction:
        """D_1 ... D_d for d classes (y, q), nef or not (Fulton, Sec. 5.2)."""
        ints, den = self.contract(classes)
        return Fraction(ints[0], den)

    def divisor_from_class(self, cls) -> TDivisor:
        """Canonical representative: class coordinates on the free rays."""
        if len(cls) != self.rank:
            raise ValueError("class coordinate count mismatch")
        coeffs = dict(zip(self.free_rays, cls))
        return TDivisor(self.fan, [coeffs.get(i, 0) for i in range(len(self.fan.rays))])

    @cached_property
    def nef_rays(self) -> tuple:
        """Extreme rays of the nef cone: the facets of its dual, the Kleiman rows' cone."""
        return _cone_facets(self.nef_rows, self.rank)

    @cached_property
    def ample_class(self) -> tuple:
        """The sum of the nef cone's extreme rays, an interior point."""
        cls = tuple(sum(col) for col in zip(*self.nef_rays))
        if not self.is_ample(cls):
            raise FanError(f"{self.fan.name} has no ample class")
        return cls

    # -- membership: sign tests, on any positive multiple y of a class ---------

    def is_nef(self, y) -> bool:
        return all(sum(map(mul, g, y)) >= 0 for g in self.nef_rows)

    def is_ample(self, y) -> bool:
        return all(sum(map(mul, g, y)) > 0 for g in self.nef_rows)

    def is_big(self, y) -> bool:
        return all(sum(map(mul, g, y)) > 0 for g in self.eff_rows)

    def interval(self, rows, m_class, e_class) -> tuple:
        """(lo, hi) with every row positive on M - t E iff lo < t < hi, for classes (y, q):
        big on `eff_rows`, ample on `nef_rows`; -inf or inf on an open side, (inf, -inf) if
        empty.  Row g is positive iff a - t b > 0 (a = g.y_M q_E, b = g.y_E q_M); each end is
        a pair (n, d) for n / d, d = 0 on an open side, compared by cross-multiplying."""
        (m, qm), (e, qe) = m_class, e_class
        lo, hi = (-1, 0), (1, 0)
        for g in rows:
            a, b = qe * sum(map(mul, g, m)), qm * sum(map(mul, g, e))
            if b > 0 and a * hi[1] < hi[0] * b:
                hi = a, b
            elif b < 0 and a * lo[1] < lo[0] * b:
                lo = -a, -b
            elif not b and a <= 0:  # a row that no t makes positive
                return inf, -inf
        return Fraction(*lo) if lo[1] else -inf, Fraction(*hi) if hi[1] else inf

    def mu(self, m_class, e_class) -> Fraction:
        """sup{s : M - s E big} for big M: the upper end of the big interval."""
        lo, hi = self.interval(self.eff_rows, m_class, e_class)
        if not lo < 0 < hi:
            raise ValueError("mu requires a big class")
        if hi is inf:  # the open upper side that `interval` returns
            raise ValueError("mu is unbounded: E never exits the cone")
        return hi


def _cone_facets(gens, dim):
    """Primitive integer facet rows of a full-dimensional cone from its integer
    generators.  By Minkowski-Weyl duality the cone's facets are the facets
    through the apex of conv({0} u gens), those of offset 0 in its one
    integer hull; their outer normals n give the rows -n, with <-n, g> >= 0."""
    hull = integer_hull(dim, 1, [(0,) * dim, *gens])
    if hull.k != dim:
        raise FanError("cone is not full-dimensional")
    rows = tuple(sorted(tuple(-x for x in n) for n, c, _ in hull.facets if not c))
    if not rows:
        raise FanError("cone facet enumeration failed")
    return rows


# ---------------------------------------------------------------------------
# divisor polytopes, valuations, intersection numbers
# ---------------------------------------------------------------------------

def section_points(fan: Fan, divisor: TDivisor) -> tuple[int, list]:
    """(L, points): integer points over L, a multiple of D's denominator,
    whose hull is P_D = {u : <u, v_rho> >= -a_rho}; no points when D has no
    sections.

    Completeness of the fan (validated on load) makes the recession cone
    trivial, so P_D is always bounded here.  For nef D the points are
    m_sigma = -sum_{i in sigma} a_i m_i(sigma), one per maximal cone
    (Cox-Little-Schenck Sec. 6.1).  Otherwise every d rays with adjugate
    (adj, det != 0) cut out U / (det den) with U = -sum a_i adj_i, kept when
    it meets every inequality; the vertices are among the kept points.
    """
    a, den, d = divisor.ints, divisor.den, fan.dim
    if fan.classes.is_nef(divisor.num_class[0]):
        return den, [tuple(-sum(a[i] * m[j] for i, m in zip(sigma, fan.dual_bases[sigma]))
                           for j in range(d)) for sigma in fan.max_cones]
    kept = []
    for sub in combinations(range(len(fan.rays)), d):
        adj, det = adjugate([fan.rays[i] for i in sub])
        if det:
            u = [-sum(a[i] * m[j] for i, m in zip(sub, adj)) for j in range(d)]
            # <u / (det den), v_rho> + a_rho / den >= 0, times (det den)^2 / den
            if all((sum(map(mul, u, v)) + b * det) * det >= 0 for v, b in zip(fan.rays, a)):
                kept.append((det, u))
    L = lcm(*(det for det, _ in kept))
    return den * L, [tuple(x * (L // det) for x in u) for det, u in kept]


def polytope_of_divisor(fan: Fan, divisor: TDivisor) -> Polytope:
    """P_D, the hull of `section_points`: sections of mD live on m P_D, and a
    divisor without sections comes back as the empty polytope."""
    return integer_hull(fan.dim, *section_points(fan, divisor))


def _monomial(fan: Fan, rays: tuple) -> int:
    """D_{r_1} ... D_{r_d} for a sorted ray tuple (Fulton, Introduction to
    Toric Varieties, Sec. 5.2); called only while a class space is built.

    Distinct rays meet in one point when they span a maximal cone and not at
    all otherwise.  A repeated ray rho is traded, inside a maximal cone sigma
    holding all the rays, for -sum_{j not in sigma} <m, v_j> D_j with m dual
    to rho on sigma.  Each trade brings a ray from outside sigma into the
    support, so the recursion is at most d - 1 levels deep.
    """
    support = set(rays)
    sigma = next((c for c in fan.max_cones if support <= set(c)), None)
    if sigma is None:
        return 0
    if len(support) == len(rays):
        return 1
    rho = next(r for r, s in zip(rays, rays[1:]) if r == s)
    m = fan.dual_bases[sigma][sigma.index(rho)]
    rest = list(rays)
    rest.remove(rho)
    return -sum(sum(x * y for x, y in zip(m, fan.rays[j]))
                * _monomial(fan, tuple(sorted(rest + [j])))
                for j in range(len(fan.rays)) if j not in sigma)


def intersection_number(fan: Fan, divisors) -> Fraction:
    """(D_1 . ... . D_d) for nef divisors: the fan's form on their classes.

    The form is defined for every divisor and uses no polytope; the nef
    precondition is the contract of the inequality checks and of the
    `oklab intersect` command.
    """
    divisors = list(divisors)
    d = fan.dim
    if len(divisors) != d:
        raise ValueError(f"need exactly {d} divisors on {fan.name}")
    return fan.classes.form(nef_classes(fan, divisors))


def nef_classes(fan: Fan, divisors) -> list:
    """The classes (y, q) of divisors on the fan, each tested nef once, in order; a
    divisor on another fan or outside the nef cone raises ValueError."""
    out = []
    for dv in divisors:
        if dv.fan is not fan:
            raise ValueError("divisor on a different fan")
        if not fan.classes.is_nef(dv.num_class[0]):
            raise ValueError("intersection numbers are only certified for nef inputs")
        out.append(dv.num_class)
    return out


def flag_corresponds(flag: AdmissibleFlag, divisor: TDivisor):
    """Decide Def-style correspondence of the flag with the divisor class.

    For each level i the restricted classes are compared on every invariant
    curve of Y_i (the ridges containing the first i flag rays); these
    curves span the curve classes, so proportionality against them is
    exact.  Returns (True, ratios) or (False, None); a zero ratio means the
    restriction of the class to Y_i is numerically trivial.
    """
    fan = flag.fan
    classes = fan.classes
    y, q = divisor.num_class
    ratios = []
    for i in range(fan.dim - 1):
        head = set(flag.ray_indices[:i])
        level = [tau for tau in fan.ridges if head <= set(tau)]
        if not level:
            raise FanError("no invariant curves found at flag level")
        # the form sees classes only: degrees are pairings with the curve rows,
        # here of the integers of D's class and of the class of D_{v_{i+1}}
        rows = [classes.curve_rows[tau] for tau in level]
        e, qe = classes.ray_classes[flag.ray_indices[i]]
        vals = [(sum(map(mul, g, e)), sum(map(mul, g, y))) for g in rows]
        # the ratio on the first curve Y_{i+1} meets; 0 if it meets none
        a0, b0 = next(((av, bv) for av, bv in vals if av), (1, 0))
        if any(b0 * av != bv * a0 for av, bv in vals):
            return False, None
        ratios.append(Fraction(b0 * qe, a0 * q))
    return True, tuple(ratios)


def mu(fan: Fan, m: TDivisor, e) -> Fraction:
    """sup{s > 0 : M - s O(E) big}, exact over the effective-cone facets; E
    is a divisor or the coordinates of its class."""
    return fan.classes.mu(m.num_class, e.num_class if isinstance(e, TDivisor) else (e, 1))


# ---------------------------------------------------------------------------
# star fans (restriction to Y_1)
# ---------------------------------------------------------------------------

class StarModel:
    """Y_1 = D_{v_1} as a smooth complete toric variety of dimension d-1.

    Coordinates on N/Z v_1 are taken in the unimodular basis given by the
    flag's own maximal cone, so the flag rays v_2, ..., v_d map to the
    standard basis and the induced flag is the standard cone.  `star_model`
    builds one per flag, and `==` is identity.
    """

    def __init__(self, star_fan: Fan, flag: AdmissibleFlag, star_flag: AdmissibleFlag,
                 ray_map: dict, u_rows: tuple):
        self.star_fan, self.flag, self.star_flag = star_fan, flag, star_flag
        self.ray_map, self.u_rows = ray_map, u_rows

    def restrict_divisor(self, divisor: TDivisor) -> TDivisor:
        """(D + div(chi^w))|_{Y_1} with w clearing the v_1 coefficient."""
        v1 = self.flag.ray_indices[0]
        a = divisor.ints
        w = tuple(-a[v1] * x for x in self.u_rows[0])
        ints = [0] * len(self.star_fan.rays)
        for rho, si in self.ray_map.items():
            ints[si] = a[rho] + sum(map(mul, w, self.flag.fan.rays[rho]))
        return TDivisor._from_ints(self.star_fan, ints, divisor.den)


@cache
def star_model(flag: AdmissibleFlag) -> StarModel:
    """Memoised on the flag, which compares its fan by identity."""
    fan = flag.fan
    if fan.dim < 2:
        raise ValueError("star models need dimension >= 2")
    d = fan.dim
    sigma = tuple(sorted(flag.ray_indices))
    urows = tuple(fan.dual_bases[sigma][sigma.index(i)] for i in flag.ray_indices)
    v1 = flag.ray_indices[0]
    adjacent = sorted({rho for cone in fan.max_cones if v1 in cone
                       for rho in cone if rho != v1})
    star_rays = []
    ray_map = {}
    for rho in adjacent:
        img = tuple(sum(urows[k][j] * fan.rays[rho][j] for j in range(d))
                    for k in range(1, d))
        if primitive(img) != img:
            raise FanError("star ray image is not primitive")
        ray_map[rho] = len(star_rays)
        star_rays.append(img)
    star_cones = []
    for cone in fan.max_cones:
        if v1 in cone:
            star_cones.append(tuple(sorted(ray_map[r] for r in cone if r != v1)))
    star_fan = Fan(f"{fan.name}|ray{v1}", star_rays, star_cones)
    star_flag = AdmissibleFlag(star_fan,
                               tuple(ray_map[i] for i in flag.ray_indices[1:]))
    return StarModel(star_fan=star_fan, flag=flag,
                     star_flag=star_flag, ray_map=ray_map, u_rows=urows)


# ---------------------------------------------------------------------------
# shipped testbeds
# ---------------------------------------------------------------------------

_BUILTIN_SPECS = {
    "p1": {
        "rays": [[1], [-1]],
        "max_cones": [[0], [1]],
    },
    "p2": {
        # ray order matches the O(1) = (1,0,0) convention: first ray -e1-e2
        "rays": [[-1, -1], [1, 0], [0, 1]],
        "max_cones": [[0, 1], [0, 2], [1, 2]],
    },
    "p3": {
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    },
    "p1xp1": {
        "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
        "max_cones": [[0, 2], [1, 2], [1, 3], [0, 3]],
    },
    "p1xp1xp1": {
        "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        "max_cones": [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)],
    },
    "f1": {
        # Hirzebruch surface F_1 = Bl_p P^2; D_1 is the (-1)-section
        "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
    },
    "blpq-p2": {
        # P^2 blown up in two torus-fixed points; rays 3, 4 are exceptional
        "rays": [[1, 0], [0, 1], [-1, -1], [1, 1], [-1, 0]],
        "max_cones": [[0, 3], [1, 3], [1, 4], [2, 4], [0, 2]],
    },
}

def testbed_names():
    return sorted(_BUILTIN_SPECS)


@cache
def testbed(name: str) -> Fan:
    if name not in _BUILTIN_SPECS:
        raise KeyError(f"unknown testbed {name!r}; known: {', '.join(testbed_names())}")
    spec = _BUILTIN_SPECS[name]
    return Fan(name, spec["rays"], spec["max_cones"])


def load_catalog_dir(path) -> dict[str, Fan]:
    """Extra testbeds from JSON files {"name", "rays", "max_cones"}."""
    out = {}
    for fname in sorted(os.listdir(path)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(path, fname)) as fh:
            data = json.load(fh)
        if not isinstance(data["name"], str):
            raise FanError(f"{fname}: the testbed name must be a string")
        fan = Fan(data["name"], data["rays"], data["max_cones"])
        if fan.name in out:
            raise FanError(f"catalog name {fan.name!r} appears twice")
        out[fan.name] = fan
    return out
