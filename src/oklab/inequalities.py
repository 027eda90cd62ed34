"""Intersection-number inequalities through convex bodies.

The bridge is the linear map N = lambda L + mu M  |->  lambda body(L) +
mu body(M) into formal differences of convex bodies.  On a flag
corresponding to L it is compatible with intersection products
((1/d!) M_1...M_d equals the mixed volume of the images), and injective
because Brunn-Minkowski is strict for independent classes.  From there the
Lehmann-Xiao mixed-volume inequality for arbitrary convex bodies yields
the nef intersection-number inequality

    L^d (M . N^{d-1})  <=  d (M . L^{d-1}) (L . N^{d-1}),

which this module checks both directly and along the body-level proof
path whenever the testbed carries a flag corresponding to M.

Irrational d-th roots are never evaluated: the strict Brunn-Minkowski
comparison decides equality exactly, brackets the roots rationally only
when the comparison is strict, and cross-checks the outcome against the
termwise power criterion (L^k M^{d-k})^d vs (L^d)^k (M^d)^{d-k}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

from .additivity import ample_grid_classes
from .exactgeom import FormalBody, Polytope, minkowski_sum, mixed_volume, scale
from .linalg import iroot, rank, solve, vec
from .okounkov import NOBody, nef_body
from .toric import (
    AdmissibleFlag,
    Fan,
    TDivisor,
    flag_corresponds,
    intersection_number,
)

__all__ = [
    "InequalityRecord",
    "DeltaMap",
    "delta_map",
    "delta_map_for_classes",
    "check_cor13",
    "injectivity_check",
    "lemma61_check",
    "lehmann_xiao_check",
    "cor15_check",
    "mixed_volume_derivative_check",
    "find_corresponding_flag",
    "random_polytope",
    "lehmann_xiao_sweep",
    "cor15_sweep",
]


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    lhs: Fraction
    rhs: Fraction
    inputs: dict = field(default_factory=dict)

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= 0

    def to_json(self):
        def enc(x):
            if isinstance(x, Fraction):
                return [x.numerator, x.denominator]
            if isinstance(x, tuple):
                return [enc(v) for v in x]
            return x

        return {
            "name": self.name,
            "lhs": enc(self.lhs),
            "rhs": enc(self.rhs),
            "slack": enc(self.slack),
            "pass": self.passed,
            "seed": self.inputs.get("seed"),
            "inputs": {k: enc(v) for k, v in self.inputs.items()},
        }


# ---------------------------------------------------------------------------
# the linear map into formal bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaMap:
    """N = lambda L + mu M  |->  lambda body(L) + mu body(M).

    The basis classes must be nef with certified exact bodies; on the
    invariant flags of the toric testbeds the anchors corresponding to a
    flag are the prime-divisor classes, which sit on the nef boundary, so
    ampleness of L is not required here (the map itself only needs the
    bodies).  Whether the flag corresponds to L is recorded: that is the
    hypothesis under which the compatibility with intersection products
    is a theorem rather than an observation.  A dependent basis (M a
    multiple of L, forced on Picard-rank-one testbeds) is tolerated in a
    degenerate mode; injectivity is not defined there.
    """

    flag: AdmissibleFlag
    L: TDivisor
    M: TDivisor
    body_l: NOBody
    body_m: NOBody
    dependent: bool
    corresponds_to_l: bool

    @property
    def fan(self) -> Fan:
        return self.flag.fan

    def decompose(self, n: TDivisor):
        rows = [[a, b] for a, b in zip(self.L.cls, self.M.cls)]
        sol = solve(rows, vec(n.cls))
        if sol is None:
            raise ValueError(f"class {n.cls} outside the span of the basis")
        return sol

    def apply(self, n: TDivisor) -> FormalBody:
        lam, m = self.decompose(n)
        pos = FormalBody(scale(self.body_l.body, max(lam, 0)))
        pos = pos + FormalBody(scale(self.body_m.body, max(m, 0)))
        neg = FormalBody(scale(self.body_l.body, max(-lam, 0)))
        neg = neg + FormalBody(scale(self.body_m.body, max(-m, 0)))
        return FormalBody(pos.positive, neg.positive)


def delta_map(l_div: TDivisor, m_div: TDivisor, flag: AdmissibleFlag) -> DeltaMap:
    fan = flag.fan
    if not fan.classes.is_nef(l_div.cls):
        raise ValueError("the anchor class L must be nef")
    if not fan.classes.is_nef(m_div.cls):
        raise ValueError("the companion class M must be nef")
    bl = nef_body(l_div, flag)
    bm = nef_body(m_div, flag)
    if not (bl.exact and bm.exact):
        raise ValueError("basis bodies could not be certified exact")
    dependent = rank([[a, b] for a, b in zip(l_div.cls, m_div.cls)]) < 2
    corresponds = flag_corresponds(fan, flag, l_div)[0]
    return DeltaMap(flag=flag, L=l_div, M=m_div, body_l=bl, body_m=bm,
                    dependent=dependent, corresponds_to_l=corresponds)


def delta_map_for_classes(classes, flag: AdmissibleFlag) -> DeltaMap:
    """Basis selection for r given ample classes spanning a cone.

    Reorders so that the first two generate the cone of all of them (in a
    two-dimensional span the extremes under the angular order do), then
    anchors the map at those; if all classes are proportional, the anchor
    is the first one and the companion is any independent ample class.
    """
    fan = flag.fan
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class")
    for c in classes:
        if not fan.classes.is_ample(c.cls):
            raise ValueError("all classes must be ample")
    first = classes[0]
    indep = [c for c in classes
             if rank([[a, b] for a, b in zip(first.cls, c.cls)]) == 2]
    if not indep:
        companion = _independent_ample(fan, first)
        return delta_map(first, companion, flag)
    # extremes of the planar cone: maximize/minimize the M-coefficient
    # against the L-coefficient in the (first, indep[0]) coordinates
    base2 = indep[0]
    rows = [[a, b] for a, b in zip(first.cls, base2.cls)]
    coords = []
    for c in classes:
        sol = solve(rows, vec(c.cls))
        if sol is None:
            raise ValueError("classes do not span a two-dimensional subspace")
        coords.append(sol)
    lo = min(range(len(classes)), key=lambda i: _slope_key(coords[i]))
    hi = max(range(len(classes)), key=lambda i: _slope_key(coords[i]))
    if lo == hi:
        return delta_map(classes[lo], _independent_ample(fan, classes[lo]), flag)
    return delta_map(classes[lo], classes[hi], flag)


def _slope_key(coord):
    lam, m = coord
    total = abs(lam) + abs(m)
    return m / total if total else Fraction(0)


def _independent_ample(fan: Fan, anchor: TDivisor) -> TDivisor:
    if fan.classes.rank < 2:
        raise ValueError("no independent ample class exists (Picard rank one)")
    for cls in ample_grid_classes(fan, bound=4):
        if rank([[a, b] for a, b in zip(anchor.cls, cls)]) == 2:
            return fan.classes.divisor_from_class(cls)
    raise ValueError("could not find an independent ample class")


# ---------------------------------------------------------------------------
# compatibility with intersection products (polarization bridge)
# ---------------------------------------------------------------------------

def _basis_numbers(dmap: DeltaMap):
    """(1/d!) L^k M^{d-k} and V(body_L^k, body_M^{d-k}) for all k."""
    fan = dmap.fan
    d = fan.dim
    ints = []
    mixed = []
    for k in range(d + 1):
        divisors = [dmap.L] * k + [dmap.M] * (d - k)
        ints.append(intersection_number(fan, divisors))
        bodies = [dmap.body_l.body] * k + [dmap.body_m.body] * (d - k)
        mixed.append(mixed_volume(bodies))
    return ints, mixed


def check_cor13(dmap: DeltaMap, divisors) -> tuple[bool, dict]:
    """(1/d!)(M_1 ... M_d) == V(Delta(M_1), ..., Delta(M_d)), expanded
    multilinearly in the (L, M) basis on both sides."""
    fan = dmap.fan
    d = fan.dim
    divisors = list(divisors)
    if len(divisors) != d:
        raise ValueError(f"need exactly {d} classes")
    decomps = [dmap.decompose(n) for n in divisors]
    ints, mixed = _basis_numbers(dmap)
    lhs = Fraction(0)
    rhs = Fraction(0)
    for picks in product((0, 1), repeat=d):
        coeff = Fraction(1)
        for (lam, m), pick in zip(decomps, picks):
            coeff *= lam if pick else m
        k = sum(picks)
        lhs += coeff * ints[k]
        rhs += coeff * mixed[k]
    lhs /= factorial(d)
    report = {"lhs": lhs, "rhs": rhs,
              "decompositions": [tuple(x) for x in decomps]}
    return lhs == rhs, report


# ---------------------------------------------------------------------------
# injectivity via strict Brunn-Minkowski
# ---------------------------------------------------------------------------

def _root_bracket(a: Fraction, d: int, s: int):
    """lo/s <= a^(1/d) <= hi/s with integer lo, hi."""
    num = a.numerator * s ** d
    lo = iroot(num // a.denominator, d)[0]
    r, exactr = iroot(-((-num) // a.denominator), d)
    hi = r if exactr else r + 1
    return Fraction(lo, s), Fraction(hi, s)


def _power_sum_equals(a: Fraction, b: Fraction, c: Fraction, d: int) -> bool:
    """c == (a^(1/d) + b^(1/d))^d, decided in rational arithmetic.

    For a, b > 0 the right side is rational only when a/b = (p/q)^d for
    integers p, q (linear independence of real radicals, Besicovitch
    1940), and then it equals b (1 + p/q)^d.
    """
    if a == 0 or b == 0:
        return c == a + b
    r = Fraction(a) / b
    p, exact_p = iroot(r.numerator, d)
    q, exact_q = iroot(r.denominator, d)
    return exact_p and exact_q and c == b * (1 + Fraction(p, q)) ** d


def decide_power_inequality(a: Fraction, b: Fraction, c: Fraction, d: int):
    """Exact comparison of c against (a^(1/d) + b^(1/d))^d.

    Returns ('>', certified bound) when c is strictly larger, ('<', bound)
    when strictly smaller, or ('=', None) when equal.  Equality is decided
    exactly first; a strict comparison is then settled by rational root
    bracketing with increasing precision, which ends because the bracket
    closes in on a value different from c.
    """
    if a < 0 or b < 0:
        raise ValueError("needs nonnegative self-intersections")
    if _power_sum_equals(a, b, c, d):
        return "=", None
    s = 10
    while True:
        lo_a, hi_a = _root_bracket(a, d, s)
        lo_b, hi_b = _root_bracket(b, d, s)
        lo = (lo_a + lo_b) ** d
        hi = (hi_a + hi_b) ** d
        if c > hi:
            return ">", hi
        if c < lo:
            return "<", lo
        s *= 10


def injectivity_check(dmap: DeltaMap) -> InequalityRecord:
    """Strict Brunn-Minkowski for the basis pair, hence independence of
    the basis bodies in the formal-body vector space."""
    if dmap.dependent:
        raise ValueError("injectivity is undefined for a dependent basis")
    fan = dmap.fan
    d = fan.dim
    ints, _ = _basis_numbers(dmap)
    a = ints[d]      # L^d
    b = ints[0]      # M^d
    c = intersection_number(fan, [dmap.L + dmap.M] * d)
    termwise_equal = all(ints[k] ** d == a ** k * b ** (d - k)
                         for k in range(1, d))
    side, bound = decide_power_inequality(a, b, c, d)
    if (side == "=") != termwise_equal:
        raise ArithmeticError("bracketing and termwise criteria disagree")
    if side == "=":
        raise ArithmeticError(
            "self-intersections do not separate an independent pair")
    lhs, rhs = (bound, c) if side == ">" else (c, bound)
    return InequalityRecord(
        name="brunn-minkowski-strict",
        lhs=lhs, rhs=rhs,
        inputs={"L^d": a, "M^d": b, "(L+M)^d": c, "side": side,
                "independent_bodies": True})


# ---------------------------------------------------------------------------
# mixed volumes vs intersection numbers (one-sided, tight on matching flags)
# ---------------------------------------------------------------------------

def lemma61_check(l_div: TDivisor, m_div: TDivisor,
                  flag: AdmissibleFlag) -> InequalityRecord:
    """V(body(L), body(M)^{d-1}) <= (1/d!)(L . M^{d-1}) for nef classes,
    with equality whenever the flag corresponds to L or to M."""
    fan = flag.fan
    d = fan.dim
    bl = nef_body(l_div, flag)
    bm = nef_body(m_div, flag)
    if not (bl.exact and bm.exact):
        raise ValueError("bodies could not be certified exact")
    lhs = mixed_volume([bl.body] + [bm.body] * (d - 1))
    rhs = intersection_number(fan, [l_div] + [m_div] * (d - 1)) / factorial(d)
    corresponds = None
    if flag_corresponds(fan, flag, l_div)[0]:
        corresponds = "L"
    elif flag_corresponds(fan, flag, m_div)[0]:
        corresponds = "M"
    return InequalityRecord(
        name="mixed-volume-vs-intersection",
        lhs=lhs, rhs=rhs,
        inputs={"L": l_div.cls, "M": m_div.cls,
                "flag": flag.ray_indices,
                "flag_corresponds_to": corresponds})


def lehmann_xiao_check(k_body: Polytope, l_body: Polytope, m_body: Polytope,
                       k: int) -> InequalityRecord:
    """vol(L) V(K^k, M^{d-k}) <= C(d,k) V(K^k, L^{d-k}) V(L^k, M^{d-k})."""
    d = k_body.dim
    if not 0 <= k <= d:
        raise ValueError(f"k must lie in [0, {d}]")
    if l_body.dim != d or m_body.dim != d:
        raise ValueError("bodies of different ambient dimensions")
    lhs = l_body.volume() * mixed_volume([k_body] * k + [m_body] * (d - k))
    rhs = (comb(d, k)
           * mixed_volume([k_body] * k + [l_body] * (d - k))
           * mixed_volume([l_body] * k + [m_body] * (d - k)))
    return InequalityRecord(name=f"lehmann-xiao-k{k}", lhs=lhs, rhs=rhs,
                            inputs={"k": k, "dim": d})


def find_corresponding_flag(fan: Fan, divisor: TDivisor) -> AdmissibleFlag | None:
    """First invariant flag (cone + ordering) corresponding to the class."""
    return _flag_for_class(fan, divisor.cls)


@lru_cache(maxsize=None)
def _flag_for_class(fan: Fan, target: tuple) -> AdmissibleFlag | None:
    # correspondence is numerical, so any representative of the class will
    # do; memoised on the fan object, which compares by identity
    divisor = fan.classes.divisor_from_class(target)
    for cone in fan.max_cones:
        for perm in permutations(cone):
            y1 = fan.classes.class_of([1 if i == perm[0] else 0
                                       for i in range(len(fan.rays))])
            if rank([[a, b] for a, b in zip(y1, target)]) > 1:
                continue  # level-0 proportionality already fails
            flag = AdmissibleFlag(fan, perm)
            if flag_corresponds(fan, flag, divisor)[0]:
                return flag
    return None


def cor15_check(l_div: TDivisor, m_div: TDivisor, n_div: TDivisor) -> dict:
    """L^d (M . N^{d-1}) <= d (M . L^{d-1}) (L . N^{d-1}) for nef classes.

    Always checks the inequality directly on intersection numbers.  When
    the testbed carries a flag corresponding to M, additionally replays
    the body-level derivation: the Lehmann-Xiao inequality at k=1 on the
    three bodies plus the tight mixed-volume identities for that flag.
    Both routes must pass.
    """
    fan = l_div.fan
    d = fan.dim
    lhs = (intersection_number(fan, [l_div] * d)
           * intersection_number(fan, [m_div] + [n_div] * (d - 1)))
    rhs = (d * intersection_number(fan, [m_div] + [l_div] * (d - 1))
           * intersection_number(fan, [l_div] + [n_div] * (d - 1)))
    direct = InequalityRecord(
        name="cor15-direct", lhs=lhs, rhs=rhs,
        inputs={"L": l_div.cls, "M": m_div.cls, "N": n_div.cls})
    out = {"direct": direct, "proof_path": None,
           "ok": direct.passed}
    flag = find_corresponding_flag(fan, m_div)
    if flag is None:
        return out
    bl = nef_body(l_div, flag)
    bm = nef_body(m_div, flag)
    bn = nef_body(n_div, flag)
    if not (bl.exact and bm.exact and bn.exact):
        return out
    lx = lehmann_xiao_check(bm.body, bl.body, bn.body, 1)
    eq_ml = (mixed_volume([bm.body] + [bl.body] * (d - 1))
             == intersection_number(fan, [m_div] + [l_div] * (d - 1)) / factorial(d))
    eq_mn = (mixed_volume([bm.body] + [bn.body] * (d - 1))
             == intersection_number(fan, [m_div] + [n_div] * (d - 1)) / factorial(d))
    le_ln = (mixed_volume([bl.body] + [bn.body] * (d - 1))
             <= intersection_number(fan, [l_div] + [n_div] * (d - 1)) / factorial(d))
    vol_id = bl.body.volume() == intersection_number(fan, [l_div] * d) / factorial(d)
    path_ok = lx.passed and eq_ml and eq_mn and le_ln and vol_id
    out["proof_path"] = {
        "flag": flag.ray_indices,
        "lehmann_xiao": lx,
        "tight_ML": eq_ml,
        "tight_MN": eq_mn,
        "onesided_LN": le_ln,
        "volume_identity": vol_id,
    }
    out["ok"] = direct.passed and path_ok
    return out


# ---------------------------------------------------------------------------
# the derivative interpretation of the mixed volume
# ---------------------------------------------------------------------------

def derivative_check_bodies(k_body: Polytope, base: Polytope) -> tuple[bool, dict]:
    """d * V(K, B^{d-1}) equals the linear coefficient of t -> vol(tK + B).

    The volume of tK + B is a degree-d polynomial in t >= 0; it is fitted
    exactly from the d+1 integer evaluations t = 0..d.
    """
    d = k_body.dim
    vols = []
    for j in range(d + 1):
        vols.append(minkowski_sum(scale(k_body, j), base).volume())
    rows = [[Fraction(j ** i) for i in range(d + 1)] for j in range(d + 1)]
    coeffs = solve(rows, vols)
    expected = d * mixed_volume([k_body] + [base] * (d - 1))
    return coeffs[1] == expected, {"coefficients": tuple(coeffs),
                                   "d_times_mixed": expected}


def mixed_volume_derivative_check(l_div: TDivisor, m_div: TDivisor,
                                  flag: AdmissibleFlag) -> bool:
    bl = nef_body(l_div, flag)
    bm = nef_body(m_div, flag)
    if not (bl.exact and bm.exact):
        raise ValueError("bodies could not be certified exact")
    ok, _ = derivative_check_bodies(bl.body, bm.body)
    return ok


# ---------------------------------------------------------------------------
# randomized sweeps (seeded, deterministic)
# ---------------------------------------------------------------------------

def random_polytope(rnd: random.Random, dim: int, max_coord: int = 4,
                    points: int = 5) -> Polytope:
    pts = []
    for _ in range(points):
        pt = []
        for _ in range(dim):
            den = rnd.choice((1, 2, 3, 4))
            pt.append(Fraction(rnd.randint(0, max_coord * den), den))
        pts.append(tuple(pt))
    return Polytope.hull(pts)


def lehmann_xiao_sweep(dim: int, count: int, seed: int) -> list[InequalityRecord]:
    """Seeded random triples of rational polytopes, checked for every k."""
    rnd = random.Random(seed)
    records = []
    for idx in range(count):
        k_body = random_polytope(rnd, dim)
        l_body = random_polytope(rnd, dim)
        m_body = random_polytope(rnd, dim)
        for k in range(dim + 1):
            rec = lehmann_xiao_check(k_body, l_body, m_body, k)
            rec.inputs.update({"triple": idx, "seed": seed})
            records.append(rec)
    return records


def random_nef_divisor(rnd: random.Random, fan: Fan, bound: int = 4) -> TDivisor:
    while True:
        coeffs = tuple(rnd.randint(0, bound) for _ in fan.rays)
        div = TDivisor(fan, coeffs)
        if fan.classes.is_nef(div.cls):
            return div


def cor15_sweep(fan: Fan, count: int, seed: int, bound: int = 4) -> list[dict]:
    rnd = random.Random(seed)
    out = []
    for idx in range(count):
        l_div = random_nef_divisor(rnd, fan, bound)
        m_div = random_nef_divisor(rnd, fan, bound)
        n_div = random_nef_divisor(rnd, fan, bound)
        res = cor15_check(l_div, m_div, n_div)
        res["index"] = idx
        res["seed"] = seed
        out.append(res)
    return out
