"""Intersection-number inequalities through convex bodies.

The bridge is the body map extended linearly, N = lambda L + mu M  |->
lambda body(L) + mu body(M).  On a flag corresponding to L it is
compatible with intersection products: (1/d!) M_1...M_d equals the mixed
volume of the images, which multilinearity expands in the basis bodies,
so no body of a class other than L and M is formed.  It is injective
because Brunn-Minkowski is strict for independent classes.  From there the
Lehmann-Xiao mixed-volume inequality for arbitrary convex bodies yields
the nef intersection-number inequality

    L^d (M . N^{d-1})  <=  d (M . L^{d-1}) (L . N^{d-1}),

which this module checks both directly and along the body-level proof
path whenever the testbed carries a flag corresponding to M.  The direct
check reads its four intersection numbers off two contractions of the
fan's form, L^{d-1} and N^{d-1}, and compares two integers over one
denominator.

Irrational d-th roots are never evaluated: the strict Brunn-Minkowski
comparison decides equality exactly, brackets the roots rationally only
when the comparison is strict, and cross-checks the outcome against the
termwise power criterion (L^k M^{d-k})^d vs (L^d)^k (M^d)^{d-k}.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from functools import cached_property, lru_cache
from math import comb, factorial, gcd
from operator import mul

from .exactgeom import (ENUMERATION_BUDGET, EnumerationBudgetError, Polytope, minkowski_sum,
                        mixed_volume, mixed_volume_by_polarization, scale)
from .additivity import ConeCLM
from .linalg import interpolate, iroot
from .okounkov import NOBody, body, nef_body
from .toric import (
    AdmissibleFlag,
    Fan,
    TDivisor,
    flag_corresponds,
    intersection_number,
    nef_classes,
)


class InequalityRecord:
    """lhs <= rhs, named, with its inputs; `==` compares every field."""

    def __init__(self, name: str, lhs: Fraction, rhs: Fraction, inputs: dict | None = None):
        self.name, self.lhs, self.rhs = name, lhs, rhs
        self.inputs = {} if inputs is None else inputs

    def __eq__(self, other):
        return type(other) is InequalityRecord and vars(self) == vars(other)

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


# ---------------------------------------------------------------------------
# the body map on the span of L and M
# ---------------------------------------------------------------------------

class DeltaMap(ConeCLM):
    """N = lambda L + mu M  |->  lambda body(L) + mu body(M), kept as the
    basis and its two bodies; `check_cor13` reads the map through them.

    The basis classes must be nef, so their bodies are certified; on the
    invariant flags of the toric testbeds the anchors corresponding to a
    flag are the prime-divisor classes, which sit on the nef boundary, so
    ampleness of L is not required here (the map itself only needs the
    bodies).  Nor does it check that the flag corresponds to L, the
    hypothesis under which the compatibility with intersection products
    is a theorem rather than an observation.  A dependent basis (M a
    multiple of L, forced on Picard-rank-one testbeds) is tolerated in a
    degenerate mode; injectivity is not defined there.  (lambda, mu) are
    the basis coordinates of `ConeCLM.coordinates`.
    """

    def __init__(self, L: TDivisor, M: TDivisor, body_l: NOBody, body_m: NOBody):
        super().__init__(L, M)
        self.body_l, self.body_m = body_l, body_m

    @cached_property
    def mixed_volumes(self) -> tuple:
        """V(Delta(L)^k, Delta(M)^(d-k)), k = 0..d, formed once for `check_cor13`."""
        d, bl, bm = self.fan.dim, self.body_l.body, self.body_m.body
        return tuple(mixed_volume([bl] * k + [bm] * (d - k)) for k in range(d + 1))


def delta_map(l_div: TDivisor, m_div: TDivisor, flag: AdmissibleFlag) -> DeltaMap:
    return DeltaMap(L=l_div, M=m_div, body_l=nef_body(l_div, flag), body_m=nef_body(m_div, flag))


# ---------------------------------------------------------------------------
# compatibility with intersection products (polarization bridge)
# ---------------------------------------------------------------------------

def check_cor13(dmap: DeltaMap, divisors) -> tuple[bool, dict]:
    """(1/d!)(M_1 ... M_d) == V(Delta(M_1), ..., Delta(M_d)): the fan's form
    on the classes against the mixed volume expanded multilinearly in the
    (L, M) basis."""
    fan = dmap.fan
    d = fan.dim
    divisors = list(divisors)
    if len(divisors) != d:
        raise ValueError(f"need exactly {d} classes")
    decomps, mixed = [dmap.coordinates(n) for n in divisors], dmap.mixed_volumes
    rhs = Fraction(0)
    for picks in product((0, 1), repeat=d):
        coeff = Fraction(1)
        for (lam, m), pick in zip(decomps, picks):
            coeff *= lam if pick else m
        rhs += coeff * mixed[sum(picks)]
    lhs = fan.classes.form([n.num_class for n in divisors]) / factorial(d)
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


def injectivity_check(cone: ConeCLM) -> InequalityRecord:
    """Strict Brunn-Minkowski for the nef basis pair, hence linear independence
    of the basis bodies and injectivity of the body map on span(L, M).  It
    reads intersection numbers only, which refuse a class that is not nef, so
    a `DeltaMap` serves as well as its cone."""
    if cone.dependent:
        raise ValueError("injectivity is undefined for a dependent basis")
    fan, d, (L, M) = cone.fan, cone.fan.dim, (cone.L, cone.M)
    # L^k M^{d-k} for k = 0..d
    ints = [intersection_number(fan, [L] * k + [M] * (d - k)) for k in range(d + 1)]
    a = ints[d]      # L^d
    b = ints[0]      # M^d
    c = intersection_number(fan, [L + M] * d)
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
    lhs = mixed_volume([bl.body] + [bm.body] * (d - 1))
    rhs = intersection_number(fan, [l_div] + [m_div] * (d - 1)) / factorial(d)
    corresponds = None
    if flag_corresponds(flag, l_div)[0]:
        corresponds = "L"
    elif flag_corresponds(flag, m_div)[0]:
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
    return _lehmann_xiao_record(k, d, l_body.volume(),
                                mixed_volume([k_body] * k + [m_body] * (d - k)),
                                mixed_volume([k_body] * k + [l_body] * (d - k)),
                                mixed_volume([l_body] * k + [m_body] * (d - k)))


def _lehmann_xiao_record(k, d, vol_l, v_km, v_kl, v_lm) -> InequalityRecord:
    """The record from vol(L), V(K^k, M^(d-k)), V(K^k, L^(d-k)), V(L^k, M^(d-k))."""
    return InequalityRecord(name=f"lehmann-xiao-k{k}", lhs=vol_l * v_km,
                            rhs=comb(d, k) * v_kl * v_lm, inputs={"k": k, "dim": d})


def find_corresponding_flag(fan: Fan, divisor: TDivisor) -> AdmissibleFlag | None:
    """First invariant flag (cone + ordering) corresponding to the class;
    memoised on (fan, primitive integer class), as each test compares proportions."""
    y = divisor.num_class[0]
    g = gcd(*y) or 1  # the zero class (gcd 0) is its own ray
    return _corresponding_flag(fan, tuple(a // g for a in y))


@lru_cache(maxsize=None)
def _corresponding_flag(fan: Fan, y: tuple) -> AdmissibleFlag | None:
    classes = fan.classes
    # level 0 asks for Y_1 proportional to the class: every 2x2 minor of the pair vanishes
    firsts = {ray for ray, (y1, _) in enumerate(classes.ray_classes)
              if not any(y1[i] * y[j] != y1[j] * y[i]
                         for i, j in combinations(range(len(y)), 2))}
    if not firsts:
        return None
    divisor = classes.divisor_from_class(y)
    for cone in fan.max_cones:
        for perm in permutations(cone):
            if perm[0] in firsts and flag_corresponds(flag := AdmissibleFlag(fan, perm),
                                                      divisor)[0]:
                return flag
    return None


def cor15_check(l_div: TDivisor, m_div: TDivisor, n_div: TDivisor) -> dict:
    """L^d (M . N^{d-1}) <= d (M . L^{d-1}) (L . N^{d-1}) for nef classes.

    Always checks the inequality directly, after one nef test per class: the
    four numbers pair the integers of L's and M's classes with L^{d-1} and
    N^{d-1}, two contractions of the form (`NumClassSpace.contract`), and
    both sides share one denominator.  When the testbed carries a flag
    corresponding to M, additionally replays the body-level derivation: the
    Lehmann-Xiao inequality at k=1 on the three bodies plus the tight
    mixed-volume identities for that flag.  Both routes must pass.
    """
    fan = l_div.fan
    d, classes = fan.dim, fan.classes
    (yl, ql), (ym, qm), n_class = nef_classes(fan, (l_div, m_div, n_div))
    l_pow, den_l = classes.contract([(yl, ql)] * (d - 1))
    n_pow, den_n = classes.contract([n_class] * (d - 1))
    # L^d over den_l ql, M.L^{d-1} over den_l qm, M.N^{d-1} over den_n qm, L.N^{d-1} over den_n ql
    l_top, m_l = sum(map(mul, yl, l_pow)), sum(map(mul, ym, l_pow))
    m_n, l_n = sum(map(mul, ym, n_pow)), sum(map(mul, yl, n_pow))
    lhs, rhs, den = l_top * m_n, d * m_l * l_n, den_l * den_n * ql * qm
    direct = InequalityRecord(
        name="cor15-direct", lhs=Fraction(lhs, den), rhs=Fraction(rhs, den),
        inputs={"L": l_div.cls, "M": m_div.cls, "N": n_div.cls})
    out = {"direct": direct, "proof_path": None, "ok": lhs <= rhs}
    flag = find_corresponding_flag(fan, m_div)
    if flag is None:
        return out
    bl = body(l_div, flag)
    bm = body(m_div, flag)
    bn = body(n_div, flag)
    # the three mixed volumes of the Lehmann-Xiao check at k = 1, formed once
    v_mn, v_ml, v_ln = (mixed_volume([a.body] + [b.body] * (d - 1))
                        for a, b in ((bm, bn), (bm, bl), (bl, bn)))
    lx = _lehmann_xiao_record(1, d, bl.body.volume(), v_mn, v_ml, v_ln)
    d_fact = factorial(d)
    eq_ml = v_ml == Fraction(m_l, d_fact * den_l * qm)
    eq_mn = v_mn == Fraction(m_n, d_fact * den_n * qm)
    le_ln = v_ln <= Fraction(l_n, d_fact * den_n * ql)
    vol_id = bl.body.volume() == Fraction(l_top, d_fact * den_l * ql)
    path_ok = lx.passed and eq_ml and eq_mn and le_ln and vol_id
    out["proof_path"] = {
        "flag": flag.ray_indices,
        "lehmann_xiao": lx,
        "tight_ML": eq_ml,
        "tight_MN": eq_mn,
        "onesided_LN": le_ln,
        "volume_identity": vol_id,
    }
    out["ok"] = out["ok"] and path_ok
    return out


# ---------------------------------------------------------------------------
# the derivative interpretation of the mixed volume
# ---------------------------------------------------------------------------

def derivative_check_bodies(k_body: Polytope, base: Polytope) -> tuple[bool, dict]:
    """d * V(K, B^{d-1}) equals the linear coefficient of t -> vol(tK + B).

    The volume of tK + B is a degree-d polynomial in t >= 0; it is fitted
    exactly from the d+1 integer evaluations t = 0..d, and the mixed volume
    comes from polarization.  Both sides form Minkowski sums, so neither
    shares code with the facet formula sum_F w_F h_K(n_F) that
    `mixed_volume` uses for V(K, B^{d-1}), and the fit is not compared
    with itself.
    """
    d = k_body.dim
    coeffs = interpolate([minkowski_sum(scale(k_body, j), base).volume()
                          for j in range(d + 1)])
    expected = d * mixed_volume_by_polarization([k_body] + [base] * (d - 1))
    return coeffs[1] == expected, {"coefficients": tuple(coeffs),
                                   "d_times_mixed": expected}


# ---------------------------------------------------------------------------
# randomized sweeps (seeded, deterministic)
# ---------------------------------------------------------------------------

def random_polytope(rnd: random.Random, dim: int) -> Polytope:
    """The hull of 5 points with coordinates k / den in [0, 4], den in 1..4."""
    pts = []
    for _ in range(5):
        pt = []
        for _ in range(dim):
            den = rnd.choice((1, 2, 3, 4))
            pt.append(Fraction(rnd.randint(0, 4 * den), den))
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
    """The first nef divisor among draws from [0, bound]^rays; a fan whose nef
    cone ENUMERATION_BUDGET draws all miss raises EnumerationBudgetError."""
    for _ in range(ENUMERATION_BUDGET):
        div = TDivisor(fan, tuple(rnd.randint(0, bound) for _ in fan.rays))
        if fan.classes.is_nef(div.num_class[0]):
            return div
    raise EnumerationBudgetError(
        f"no nef class on {fan.name} in {ENUMERATION_BUDGET} draws from [0, {bound}]^rays")


def cor15_sweep(fan: Fan, count: int, seed: int) -> list[dict]:
    rnd = random.Random(seed)
    out = []
    for idx in range(count):
        l_div = random_nef_divisor(rnd, fan)
        m_div = random_nef_divisor(rnd, fan)
        n_div = random_nef_divisor(rnd, fan)
        res = cor15_check(l_div, m_div, n_div)
        res["index"] = idx
        res["seed"] = seed
        out.append(res)
    return out
