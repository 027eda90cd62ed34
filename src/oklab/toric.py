"""Smooth projective toric testbeds with exact divisor/cone arithmetic.

A variety is modelled by its complete smooth fan (primitive ray generators
plus maximal cones).  Torus-invariant Q-divisors are coefficient vectors
over the rays; their numerical classes, the nef and pseudo-effective cones,
intersection numbers against invariant curves, divisor polytopes and
admissible invariant flags are all computed from the fan in exact rational
arithmetic.  The degenerate dimension-one backend (a curve, where a divisor
is just its degree) lives here as well.

Nothing in this module touches floating point, and all values are immutable
after construction, so independent computations can run concurrently.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .exactgeom import Polytope, mixed_volume
from .linalg import (
    common_denominator,
    det_int,
    dot,
    nullspace,
    primitive,
    rank,
    rat,
    rref,
    solve,
    vec,
)

__all__ = [
    "Fan",
    "TDivisor",
    "AdmissibleFlag",
    "NumClassSpace",
    "CurveModel",
    "FanError",
    "polytope_of_divisor",
    "flag_valuation",
    "intersection_number",
    "flag_corresponds",
    "mu",
    "boundary_membership",
    "star_model",
    "testbed",
    "testbed_names",
    "load_catalog_dir",
    "parse_rational",
]


class FanError(ValueError):
    pass


def parse_rational(x) -> Fraction:
    """Rationals from ints, 'n/d' strings, or [num, den] pairs."""
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise ValueError(f"rational pair must have two entries: {x!r}")
        return Fraction(int(x[0]), int(x[1]))
    return rat(x)


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

class Fan:
    """Complete smooth fan: primitive rays plus full-dimensional cones.

    Validation on load checks primitivity, smoothness (every maximal cone
    unimodular), and completeness: every ridge is shared by exactly two
    maximal cones sitting on opposite sides, the adjacency graph is
    connected, and a deterministic generic point is covered exactly once
    (which rules out fans wrapping around the origin multiple times).
    """

    def __init__(self, name: str, rays, max_cones):
        self.name = name
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        self.max_cones = tuple(tuple(sorted(int(i) for i in c)) for c in max_cones)
        if not self.rays:
            raise FanError("fan without rays")
        self.dim = len(self.rays[0])
        self._classes = None
        self._walls = None
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
        for c in self.max_cones:
            if len(c) != d or len(set(c)) != d:
                raise FanError(f"maximal cone {c} must have {d} distinct rays")
            if not all(0 <= i < len(self.rays) for i in c):
                raise FanError(f"cone {c} references unknown rays")
            if abs(_det([self.rays[i] for i in c])) != 1:
                raise FanError(f"cone {c} is not smooth (|det| != 1)")
        if len(set(self.max_cones)) != len(self.max_cones):
            raise FanError("duplicate maximal cones")
        if d == 1:
            if sorted(self.rays) != [(-1,), (1,)] or len(self.max_cones) != 2:
                raise FanError("a complete smooth curve fan has rays +-1")
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
            normal = nullspace([vec(self.rays[i]) for i in sorted(key)])
            if len(normal) != 1:
                raise FanError(f"ridge {sorted(key)} not of rank {d - 1}")
            s1 = dot(normal[0], vec(self.rays[o1]))
            s2 = dot(normal[0], vec(self.rays[o2]))
            if s1 == 0 or s2 == 0 or (s1 > 0) == (s2 > 0):
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
        self._ridges = ridges

    def _check_generic_point(self):
        for k in (997, 1009, 1013, 1019, 1021):
            p = vec([Fraction(1, k ** j) for j in range(self.dim)])
            hits = 0
            degenerate = False
            for cone in self.max_cones:
                lam = solve([[Fraction(self.rays[i][j]) for i in cone]
                             for j in range(self.dim)], p)
                if lam is None:
                    continue
                if any(x == 0 for x in lam):
                    degenerate = True
                    break
                if all(x > 0 for x in lam):
                    hits += 1
            if degenerate:
                continue
            if hits != 1:
                raise FanError(f"generic point covered {hits} times; fan not complete")
            return
        raise FanError("could not certify completeness with a generic point")

    # -- derived data ----------------------------------------------------------

    @property
    def classes(self) -> "NumClassSpace":
        if self._classes is None:
            self._classes = NumClassSpace(self)
        return self._classes

    def walls(self):
        """Codimension-one cones with their curve intersection data.

        Each wall tau carries the relation v_a + v_b + sum_j b_j u_j = 0
        between the rays of its two adjacent maximal cones; the intersection
        number of D_rho with the invariant curve of tau reads off as 1 for
        rho in {a, b}, b_j for the wall rays, and 0 otherwise.
        """
        if self._walls is not None:
            return self._walls
        out = []
        if self.dim == 1:
            coef = {i: Fraction(1) for i in range(len(self.rays))}
            out.append(Wall(rays=frozenset(), coefficients=coef))
        else:
            for key, inc in sorted(self._ridges.items(), key=lambda kv: sorted(kv[0])):
                (c1, o1), (c2, o2) = inc
                wall_rays = sorted(key)
                rhs = [Fraction(-(self.rays[o1][j] + self.rays[o2][j]))
                       for j in range(self.dim)]
                bs = solve([[Fraction(self.rays[i][j]) for i in wall_rays]
                            for j in range(self.dim)], rhs)
                coef = {o1: Fraction(1), o2: Fraction(1)}
                for i, b in zip(wall_rays, bs):
                    coef[i] = b
                out.append(Wall(rays=frozenset(wall_rays), coefficients=coef))
        self._walls = tuple(out)
        return self._walls

    def to_json(self):
        return {"name": self.name,
                "rays": [list(r) for r in self.rays],
                "max_cones": [list(c) for c in self.max_cones]}

    def __repr__(self):
        return f"Fan({self.name!r}, dim={self.dim}, rays={len(self.rays)})"


@dataclass(frozen=True)
class Wall:
    rays: frozenset
    coefficients: dict

    def curve_intersection(self, coeffs) -> Fraction:
        return sum((rat(coeffs[i]) * c for i, c in self.coefficients.items()),
                   Fraction(0))


def _det(rows):
    return det_int([list(r) for r in rows])


# ---------------------------------------------------------------------------
# divisors and flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TDivisor:
    """Torus-invariant Q-divisor: one rational coefficient per ray."""

    fan: Fan
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))
        if len(self.coeffs) != len(self.fan.rays):
            raise ValueError("coefficient count does not match ray count")

    @property
    def cls(self):
        return self.fan.classes.class_of(self.coeffs)

    def __add__(self, other: "TDivisor") -> "TDivisor":
        if other.fan is not self.fan:
            raise ValueError("divisors on different fans")
        return TDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TDivisor") -> "TDivisor":
        return self + other.scaled(-1)

    def scaled(self, c) -> "TDivisor":
        c = rat(c)
        return TDivisor(self.fan, tuple(c * a for a in self.coeffs))


@dataclass(frozen=True)
class AdmissibleFlag:
    """Ordered rays of one smooth maximal cone: Y_i is the intersection of
    the invariant divisors of the first i rays, down to the fixed point."""

    fan: Fan
    ray_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "ray_indices",
                           tuple(int(i) for i in self.ray_indices))
        if tuple(sorted(self.ray_indices)) not in self.fan.max_cones:
            raise ValueError(
                f"flag rays {self.ray_indices} are not a maximal cone of {self.fan.name}")

    @property
    def dim(self):
        return self.fan.dim

    def label(self) -> str:
        return "cone:" + ",".join(str(i) for i in self.ray_indices)

    def divisor_of_y1(self) -> TDivisor:
        """O(Y_1) as a torus-invariant divisor."""
        coeffs = [0] * len(self.fan.rays)
        coeffs[self.ray_indices[0]] = 1
        return TDivisor(self.fan, tuple(coeffs))


# ---------------------------------------------------------------------------
# numerical classes and cones
# ---------------------------------------------------------------------------

class NumClassSpace:
    """N^1(X) with exact nef / pseudo-effective cone inequalities.

    Classes are coordinates over the rays left free after quotienting the
    ray-coefficient space by the relations u -> (<u, v_rho>)_rho.  The
    pseudo-effective cone is generated by the ray divisor classes; the nef
    cone is cut out by the piecewise-linear convexity functionals, one per
    (maximal cone, outside ray) pair.  Both H-representations are primitive
    integer rows, so membership questions are exact sign tests.
    """

    def __init__(self, fan: Fan):
        self.fan = fan
        n, d = len(fan.rays), fan.dim
        relations = [[Fraction(fan.rays[i][j]) for i in range(n)] for j in range(d)]
        _, pivots = rref(relations)
        if len(pivots) != d:
            raise FanError("rays do not span the ambient lattice")
        self.pivot_rays = tuple(pivots)
        self.free_rays = tuple(i for i in range(n) if i not in pivots)
        self.rank = len(self.free_rays)
        self.eff_generators = tuple(self.class_of(_unit(n, i)) for i in range(n))
        if rank([list(g) for g in self.eff_generators]) != self.rank:
            raise FanError("effective cone is not full-dimensional")
        self.eff_rows = _cone_facets(self.eff_generators, self.rank)
        self.nef_rows = self._nef_facets()

    # -- class map -------------------------------------------------------------

    def class_of(self, coeffs):
        """Numerical class of a ray-coefficient vector, in free-ray coordinates."""
        a = vec(coeffs)
        d = self.fan.dim
        rows = [[Fraction(self.fan.rays[i][j]) for j in range(d)]
                for i in self.pivot_rays]
        u = solve(rows, [a[i] for i in self.pivot_rays])
        rep = [a[i] - dot(u, vec(self.fan.rays[i])) for i in range(len(a))]
        return tuple(rep[i] for i in self.free_rays)

    def divisor_from_class(self, cls) -> TDivisor:
        """Canonical representative: class coordinates on the free rays."""
        cls = vec(cls)
        if len(cls) != self.rank:
            raise ValueError("class coordinate count mismatch")
        coeffs = [Fraction(0)] * len(self.fan.rays)
        for i, c in zip(self.free_rays, cls):
            coeffs[i] = c
        return TDivisor(self.fan, tuple(coeffs))

    def _nef_facets(self):
        rows = set()
        n, d = len(self.fan.rays), self.fan.dim
        for cone in self.fan.max_cones:
            crows = [[Fraction(self.fan.rays[i][j]) for j in range(d)] for i in cone]
            outside = [r for r in range(n) if r not in cone]
            for rho in outside:
                g = []
                for k in self.free_rays:
                    e = _unit(n, k)
                    u = solve(crows, [-Fraction(e[i]) for i in cone])
                    g.append(dot(u, vec(self.fan.rays[rho])) + e[rho])
                if any(x != 0 for x in g):
                    rows.add(_primitive_row(g))
        return tuple(sorted(rows))

    # -- membership ------------------------------------------------------------

    def is_nef(self, cls) -> bool:
        y = vec(cls)
        return all(dot(g, y) >= 0 for g in self.nef_rows)

    def is_ample(self, cls) -> bool:
        y = vec(cls)
        return all(dot(g, y) > 0 for g in self.nef_rows)

    def is_effective_class(self, cls) -> bool:
        y = vec(cls)
        return all(dot(g, y) >= 0 for g in self.eff_rows)

    def is_big(self, cls) -> bool:
        y = vec(cls)
        return all(dot(g, y) > 0 for g in self.eff_rows)

    def boundary_membership(self, cls) -> str:
        """Exact trichotomy against the pseudo-effective cone."""
        y = vec(cls)
        vals = [dot(g, y) for g in self.eff_rows]
        if any(v < 0 for v in vals):
            return "outside"
        if any(v == 0 for v in vals):
            return "boundary"
        return "interior"

    def mu(self, m_cls, e_cls) -> Fraction:
        """sup{s : M - s E big} for big M, as an exact facet-ratio minimum."""
        m = vec(m_cls)
        e = vec(e_cls)
        if not self.is_big(m):
            raise ValueError("mu requires a big class")
        ratios = [dot(g, m) / dot(g, e) for g in self.eff_rows if dot(g, e) > 0]
        if not ratios:
            raise ValueError("mu is unbounded: E never exits the cone")
        return min(ratios)


def _unit(n, i):
    out = [Fraction(0)] * n
    out[i] = Fraction(1)
    return out


def _primitive_row(g):
    den = common_denominator([g])
    return tuple(Fraction(x) for x in primitive([int(x * den) for x in g]))


def _cone_facets(generators, dim):
    """Facet inequalities of a full-dimensional cone from its generators."""
    gens = [vec(g) for g in generators]
    if dim == 1:
        signs = {1 if g[0] > 0 else -1 for g in gens if g[0] != 0}
        if len(signs) != 1 or any(g[0] == 0 for g in gens):
            raise FanError("degenerate one-dimensional cone")
        return ((Fraction(signs.pop()),),)
    rows = set()
    for sub in combinations(range(len(gens)), dim - 1):
        ns = nullspace([gens[i] for i in sub])
        if len(ns) != 1:
            continue
        normal = ns[0]
        vals = [dot(normal, g) for g in gens]
        if all(v >= 0 for v in vals):
            rows.add(_primitive_row(normal))
        elif all(v <= 0 for v in vals):
            rows.add(_primitive_row([-x for x in normal]))
    if not rows:
        raise FanError("cone facet enumeration failed")
    return tuple(sorted(rows))


# ---------------------------------------------------------------------------
# divisor polytopes, valuations, intersection numbers
# ---------------------------------------------------------------------------

def polytope_of_divisor(fan: Fan, divisor: TDivisor) -> Polytope:
    """P_D = {u : <u, v_rho> >= -a_rho}: sections of mD live on m P_D.

    Completeness of the fan (validated on load) makes the recession cone
    trivial, so P_D is always bounded here; a divisor without sections
    comes back as the empty polytope.
    """
    n, d = len(fan.rays), fan.dim
    a = divisor.coeffs
    verts = []
    for sub in combinations(range(n), d):
        rows = [[Fraction(fan.rays[i][j]) for j in range(d)] for i in sub]
        if rank(rows) != d:
            continue
        u = solve(rows, [-a[i] for i in sub])
        if u is None:
            continue
        if all(dot(u, vec(fan.rays[i])) >= -a[i] for i in range(n)):
            verts.append(u)
    return Polytope.hull(verts, dim=d)


def flag_valuation(flag: AdmissibleFlag, divisor: TDivisor, u):
    """Valuation vector of the monomial section chi^u of O(D).

    For the invariant flag with ordered rays (v_1, ..., v_d) the iterated
    vanishing orders of a monomial section come out as the affine map
    u -> (<u, v_i> + a_{v_i})_i, which is nonnegative exactly on P_D.
    """
    fan = flag.fan
    u = tuple(int(x) for x in u)
    a = divisor.coeffs
    for i, r in enumerate(fan.rays):
        if sum(x * y for x, y in zip(u, r)) < -a[i]:
            raise ValueError(f"lattice point {u} outside P_D")
    return tuple(sum(x * y for x, y in zip(u, fan.rays[i])) + a[i]
                 for i in flag.ray_indices)


def intersection_number(fan: Fan, divisors) -> Fraction:
    """(D_1 . ... . D_d) = d! V(P_{D_1}, ..., P_{D_d}) for nef divisors."""
    divisors = list(divisors)
    d = fan.dim
    if len(divisors) != d:
        raise ValueError(f"need exactly {d} divisors on {fan.name}")
    for dv in divisors:
        if dv.fan is not fan:
            raise ValueError("divisor on a different fan")
        if not fan.classes.is_nef(dv.cls):
            raise ValueError("intersection numbers are only certified for nef inputs")
    bodies = [polytope_of_divisor(fan, dv) for dv in divisors]
    return factorial(d) * mixed_volume(bodies)


def flag_corresponds(fan: Fan, flag: AdmissibleFlag, divisor: TDivisor):
    """Decide Def-style correspondence of the flag with the divisor class.

    For each level i the restricted classes are compared against every
    invariant curve of Y_i (the walls containing the first i flag rays);
    these curves span the curve classes, so proportionality against them
    is exact.  Returns (True, ratios) or (False, None); a zero ratio means
    the restriction of the class to Y_i is numerically trivial.
    """
    d = fan.dim
    walls = fan.walls()
    ratios = []
    for i in range(d - 1):
        tau = set(flag.ray_indices[:i])
        level = [w for w in walls if tau <= set(w.rays)] if d > 1 else []
        if not level:
            raise FanError("no invariant curves found at flag level")
        ey = _unit(len(fan.rays), flag.ray_indices[i])
        avals = [w.curve_intersection(ey) for w in level]
        bvals = [w.curve_intersection(divisor.coeffs) for w in level]
        r = None
        if all(b == 0 for b in bvals):
            r = Fraction(0)
        else:
            for av, bv in zip(avals, bvals):
                if av != 0:
                    r = bv / av
                    break
            if r is None:
                return False, None
            if any(r * av != bv for av, bv in zip(avals, bvals)):
                return False, None
        ratios.append(r)
    return True, tuple(ratios)


def mu(fan: Fan, m: TDivisor, e_cls) -> Fraction:
    """sup{s > 0 : M - s O(E) big}, exact over the effective-cone facets."""
    return fan.classes.mu(m.cls, e_cls)


def boundary_membership(fan: Fan, cls) -> str:
    return fan.classes.boundary_membership(cls)


# ---------------------------------------------------------------------------
# star fans (restriction to Y_1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarModel:
    """Y_1 = D_{v_1} as a smooth complete toric variety of dimension d-1.

    Coordinates on N/Z v_1 are taken in the unimodular basis given by the
    flag's own maximal cone, so the flag rays v_2, ..., v_d map to the
    standard basis and the induced flag is the standard cone.
    """

    fan: Fan
    star_fan: Fan
    flag: AdmissibleFlag
    star_flag: AdmissibleFlag
    ray_map: dict
    u_rows: tuple

    def restrict_divisor(self, divisor: TDivisor) -> TDivisor:
        """(D + div(chi^w))|_{Y_1} with w clearing the v_1 coefficient."""
        v1 = self.flag.ray_indices[0]
        a = divisor.coeffs
        w = tuple(-a[v1] * x for x in self.u_rows[0])
        coeffs = [Fraction(0)] * len(self.star_fan.rays)
        for rho, si in self.ray_map.items():
            coeffs[si] = a[rho] + dot(vec(w), vec(self.fan.rays[rho]))
        return TDivisor(self.star_fan, tuple(coeffs))


@lru_cache(maxsize=None)
def star_model(fan: Fan, flag: AdmissibleFlag) -> StarModel:
    """Memoised on the fan and flag objects (fans compare by identity)."""
    if fan.dim < 2:
        raise ValueError("star models need dimension >= 2")
    d = fan.dim
    cone_rays = [fan.rays[i] for i in flag.ray_indices]
    brows = [[Fraction(cone_rays[i][j]) for i in range(d)] for j in range(d)]
    u_rows = []
    for k in range(d):
        col = solve(brows, [Fraction(1 if j == k else 0) for j in range(d)])
        u_rows.append(col)
    # u_rows[k] is the k-th column of B^{-1} read as ... build actual rows:
    urows = tuple(tuple(int(u_rows[j][k]) for j in range(d)) for k in range(d))
    # urows[k] . v_l = delta_{kl}
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
    return StarModel(fan=fan, star_fan=star_fan, flag=flag,
                     star_flag=star_flag, ray_map=ray_map, u_rows=urows)


# ---------------------------------------------------------------------------
# the curve backend
# ---------------------------------------------------------------------------

class CurveModel:
    """Dimension-one backend: a divisor is just its degree."""

    dim = 1

    @staticmethod
    def body_of(degree) -> Polytope:
        q = rat(degree)
        if q <= 0:
            raise ValueError("body of a non-big degree")
        return Polytope.hull([(0,), (q,)])

    @staticmethod
    def volume_of(degree) -> Fraction:
        return rat(degree)


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

_TESTBED_CACHE: dict[str, Fan] = {}


def testbed_names():
    return sorted(_BUILTIN_SPECS)


def testbed(name: str) -> Fan:
    if name not in _BUILTIN_SPECS:
        raise KeyError(f"unknown testbed {name!r}; known: {', '.join(testbed_names())}")
    if name not in _TESTBED_CACHE:
        spec = _BUILTIN_SPECS[name]
        _TESTBED_CACHE[name] = Fan(name, spec["rays"], spec["max_cones"])
    return _TESTBED_CACHE[name]


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
