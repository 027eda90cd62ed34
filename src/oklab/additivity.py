"""Additivity of Newton-Okounkov bodies on two-parameter ample cones.

The central claim under test: for a flag whose Y_1-chain corresponds to a
class L, the body map is Minkowski-additive on C_L(M), the set of ample
classes lambda L + mu M with mu >= 0.  This module verifies that claim
pair by pair in exact arithmetic, replays the slice-wise decomposition
that proves it, checks the necessary condition that the endpoint mu of
the slices adds, and searches coefficient grids for strict inclusions.

The one-sided inclusion sum(bodies) <= body(sum) is a hard invariant,
checked on every pair: a violation means the implementation (not the
mathematics) is broken, and aborts the run with InclusionViolationError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product

from .exactgeom import Polytope, check_enumeration, minkowski_sum, slice_at, sum_relation
from .linalg import rat, vec
from .okounkov import body, no_body_rational, restricted_body
from .toric import (
    AdmissibleFlag,
    Fan,
    TDivisor,
    flag_corresponds,
    mu,
)


class InclusionViolationError(AssertionError):
    """The containment sum(bodies) <= body(sum) failed: implementation bug."""


class UncertifiedBodyError(ValueError):
    pass


class ConeCLM:
    """C_L(M): classes lambda L + mu M with mu >= 0, inside the ample cone;
    `==` is identity."""

    def __init__(self, L: TDivisor, M: TDivisor):
        if L.fan is not M.fan:
            raise ValueError("cone basis divisors on different fans")
        self.L, self.M = L, M

    @property
    def fan(self) -> Fan:
        return self.L.fan

    def member(self, lam, m) -> TDivisor:
        return self.L.scaled(lam) + self.M.scaled(m)

    @cached_property
    def _minor(self):
        """(i, j, det) for the first nonzero 2x2 minor of the integer classes of L, M."""
        yl, ym = self.L.num_class[0], self.M.num_class[0]
        return next(((i, j, det) for i, j in combinations(range(len(yl)), 2)
                     if (det := yl[i] * ym[j] - yl[j] * ym[i])), None)

    @property
    def dependent(self) -> bool:
        return self._minor is None

    def coordinates(self, n: TDivisor):
        """(lambda, mu) with N = lambda L + mu M in N^1: p y_L + r y_M = det y_N
        on the integer classes y / q by Cramer's rule on one minor, then one
        division each.  On a dependent basis mu = 0 and lambda takes the
        class, or lambda = 0 when L is numerically trivial."""
        (yl, ql), (ym, qm), (yn, qn) = self.L.num_class, self.M.num_class, n.num_class
        p, r, det = 0, 0, 1
        if self._minor:
            i, j, det = self._minor
            p, r = yn[i] * ym[j] - yn[j] * ym[i], yl[i] * yn[j] - yl[j] * yn[i]
        elif any(yl):
            p, det = next((c, x) for x, c in zip(yl, yn) if x)
        elif any(ym):
            r, det = next((c, x) for x, c in zip(ym, yn) if x)
        if any(p * a + r * b != det * c for a, b, c in zip(yl, ym, yn)):
            raise ValueError(f"class {n.class_text()} is not in the span of the cone basis")
        return Fraction(p * ql, det * qn), Fraction(r * qm, det * qn)

    def admits(self, n: TDivisor, mu) -> bool:
        """Whether N = lambda L + mu M lies in the cone: N ample and mu >= 0,
        with the sign ignored on a dependent basis (mu is zero there)."""
        return (self.dependent or mu >= 0) and self.fan.classes.is_ample(n.num_class[0])

    def grid_members(self, grid):
        """((a, b), a L + b M) for the grid coefficients, rows by a, that lie
        in the cone.  On an independent basis (a, b) are the class's
        coordinates, so no solve is needed."""
        return [((rat(a), rat(b)), n) for a in grid for b in grid
                if self.admits(n := self.member(a, b), b)]


class AdditivityVerdict:
    """`==` compares every field."""

    def __init__(self, status: str, witness: tuple | None, violated: tuple | None,
                 vol_sum_body: Fraction, vol_n1: Fraction, vol_n2: Fraction):
        self.status = status  # "equal" | "strict"
        self.witness = witness  # vertex of body(sum) outside the Minkowski sum
        self.violated = violated  # the (normal, offset) certificate for the witness
        self.vol_sum_body, self.vol_n1, self.vol_n2 = vol_sum_body, vol_n1, vol_n2

    def __eq__(self, other):
        return type(other) is AdditivityVerdict and vars(self) == vars(other)


@lru_cache(maxsize=4096)
def compare_additive_bodies(body1: Polytope, body2: Polytope,
                            body_sum: Polytope) -> AdditivityVerdict:
    """Verdict on body_sum vs body1 + body2, the hard inclusion included,
    decided by `sum_relation` with no Minkowski sum.  Only a strict pair
    forms the sum, for its witness: a vertex of body_sum with one violated
    halfspace (or affine-hull equality) of the sum, which a reader can
    re-check independently.  Memoised on the bodies by value, as `minkowski_sum`
    is: `verify.suite_prop14` decides again the pairs of `suite_additivity`."""
    status = sum_relation(body_sum, body1, body2)
    if status == "outside":
        raise InclusionViolationError("Minkowski sum not contained in the body of the sum")
    witness, violated = minkowski_sum(body1, body2).first_outside(body_sum) \
        if status == "strict" else (None, None)
    return AdditivityVerdict(status, witness, violated,
                             body_sum.volume(), body1.volume(), body2.volume())


def check_additivity(n1: TDivisor, n2: TDivisor,
                     flag: AdmissibleFlag) -> AdditivityVerdict:
    """Compare body(N1 + N2) with body(N1) + body(N2), exactly."""
    b1 = no_body_rational(n1, flag)
    b2 = no_body_rational(n2, flag)
    b12 = no_body_rational(n1 + n2, flag)
    for nb, which in ((b1, "N1"), (b2, "N2"), (b12, "N1+N2")):
        if not nb.exact:
            raise UncertifiedBodyError(f"body of {which} not certified exact")
    try:
        return compare_additive_bodies(b1.body, b2.body, b12.body)
    except InclusionViolationError as exc:
        raise InclusionViolationError(
            f"{exc} (classes {n1.class_text()} and {n2.class_text()})") from None


# ---------------------------------------------------------------------------
# slice decomposition replay
# ---------------------------------------------------------------------------

class ReplayPreconditionError(ValueError):
    pass


def slice_decomposition_replay(n1: TDivisor, n2: TDivisor, flag: AdmissibleFlag,
                               cone: ConeCLM, t):
    """Recompute the slice-wise decomposition at nu_1 = t step by step.

    Splits at t0 = r*lambda_2 - (mu_2/mu_1) r*lambda_1 after ordering the
    pair, replays every displayed polytope identity of the relevant case
    exactly, and finishes with the slice-wise inclusion into the Minkowski
    sum.  Returns (ok, trace) where the trace lists each step with its two
    sides `lhs` and `rhs` as `Polytope`s, which a report serializes through
    `to_json`; ok is False from the first failing step on.
    """
    fan = flag.fan
    d = fan.dim
    if d < 2:
        raise ReplayPreconditionError("replay needs dimension >= 2 (d=1 is the base case)")
    t = rat(t)
    ok_corr, ratios = flag_corresponds(flag, cone.L)
    if not ok_corr:
        raise ReplayPreconditionError("flag does not correspond to the cone class L")
    r = ratios[0]
    (lam1, mu1), (lam2, mu2) = cone.coordinates(n1), cone.coordinates(n2)
    if not (cone.admits(n1, mu1) and cone.admits(n2, mu2)):
        raise ReplayPreconditionError("both classes must lie in C_L(M) and be ample")
    if r * lam1 * mu2 > r * lam2 * mu1:
        n1, n2 = n2, n1
        lam1, lam2 = lam2, lam1
        mu1, mu2 = mu2, mu1
    if mu1 > 0:
        c = mu2 / mu1
    elif mu1 == 0 and mu2 == 0:
        if lam1 == 0:
            raise ReplayPreconditionError("N1 is numerically trivial")
        c = lam2 / lam1
    else:
        raise ReplayPreconditionError("mixed zero/nonzero M-components")
    t0 = r * (lam1 + lam2) - (1 + c) * r * lam1
    if t0 < 0:
        raise ReplayPreconditionError("ordering failed to make t0 nonnegative")
    oy1 = flag.divisor_of_y1()
    endpoint = mu(fan, n1 + n2, oy1)
    if not 0 < t < endpoint:
        raise ReplayPreconditionError(f"t={t} outside (0, {endpoint})")

    trace = []

    def step(name, lhs: Polytope, rhs: Polytope) -> bool:
        okstep = lhs == rhs
        trace.append({"step": name, "equal": okstep, "lhs": lhs, "rhs": rhs})
        return okstep

    def image_body(div):
        # valuations of the sections restricted to Y_1: the nu_1 = 0 slice
        return slice_at(body(div, flag).body, 0)

    # the canonical section of O(Y_1) has valuation vector e_1
    e1 = tuple(int(i == 0) for i in range(d))
    if flag.phi((0,) * d, oy1.ints, 1) != e1:
        raise AssertionError("canonical section of O(Y_1) has valuation != e_1")

    body1, body2, body_n12 = (no_body_rational(x, flag).body for x in (n1, n2, n1 + n2))
    slice_n12 = slice_at(body_n12, t)
    ok = True

    if t >= t0:
        d2 = n1.scaled(1 + c) + oy1.scaled(t0)
        if d2.num_class != (n1 + n2).num_class:
            raise AssertionError("class identity N1+N2 = (1+c)N1 + t0 O(Y_1) failed")
        slice_d2 = slice_at(no_body_rational(d2, flag).body, t)
        ok = step("slice(N1+N2, t) = slice((1+c)N1 + t0*O(Y1), t)",
                  slice_n12, slice_d2) and ok
        shifted = n1.scaled(1 + c) - oy1.scaled(t - t0)
        img = image_body(shifted)
        ok = step("slice((1+c)N1 + t0*O(Y1), t) = restricted((1+c)N1 - (t-t0)*O(Y1))",
                  slice_d2, img) and ok
        lhs_embed = img.embed_prefix(t)
        rhs_embed = img.embed_prefix(t - t0).translate(tuple(t0 * x for x in e1))
        ok = step("{t} x S = t0*e1 + {t-t0} x S", lhs_embed, rhs_embed) and ok
        ok = step("restricted((1+c)N1 - (t-t0)*O(Y1)) = slice((1+c)N1, t-t0)",
                  img, slice_at(no_body_rational(n1.scaled(1 + c), flag).body, t - t0)) and ok
        total = minkowski_sum(body1, body2)
        incl = total.contains(slice_n12.embed_prefix(t))
        trace.append({"step": "slice(N1+N2, t) inside body(N1) + body(N2)",
                      "equal": incl})
        ok = ok and incl
    else:
        if r == 0:
            raise AssertionError("t0 > 0 forces r != 0")
        chat = (mu2 / mu1) * (t / t0)
        combo1 = n1.scaled(1 + chat) + n2.scaled((t0 - t) / t0)
        if combo1.num_class != (n1 + n2 - oy1.scaled(t)).num_class:
            raise AssertionError("class identity for N1+N2 - t O(Y1) failed")
        if not fan.classes.is_ample(combo1.num_class[0]):
            raise AssertionError("N1+N2 - t O(Y1) must be ample for t < t0")
        combo2 = n1.scaled(chat) + n2.scaled((t0 - t) / t0)
        if combo2.num_class != (n2 - oy1.scaled(t)).num_class:
            raise AssertionError("class identity for N2 - t O(Y1) failed")
        img1 = image_body(n1 + n2 - oy1.scaled(t))
        ok = step("slice(N1+N2, t) = restricted(N1+N2 - t*O(Y1))",
                  slice_n12, img1) and ok
        star1 = restricted_body(combo1, flag).body
        ok = step("restricted(N1+N2 - t*O(Y1)) = star body of the ample combination",
                  img1, star1) and ok
        s1 = restricted_body(n1, flag).body
        s2 = restricted_body(combo2, flag).body
        s12 = minkowski_sum(s1, s2)
        ok = step("induction on Y_1: star(N1+N2-t*O(Y1)) = star(N1) + star(combo)",
                  star1, s12) and ok
        lhs_embed = minkowski_sum(s1.embed_prefix(0), s2.embed_prefix(t))
        rhs_embed = s12.embed_prefix(t)
        ok = step("{0} x S1 + {t} x S2 = {t} x (S1 + S2)", lhs_embed, rhs_embed) and ok
        img2 = image_body(n2 - oy1.scaled(t))
        ok = step("restricted(N2 - t*O(Y1)) = star body of the second combination",
                  img2, s2) and ok
        ok = step("slice(N1, 0) = star(N1)", slice_at(body1, 0), s1) and ok
        ok = step("slice(N2, t) = restricted(N2 - t*O(Y1))",
                  slice_at(body2, t), img2) and ok
        ok = step("slice(N1+N2, t) = slice(N1, 0) + slice(N2, t)",
                  slice_n12,
                  minkowski_sum(slice_at(body1, 0), slice_at(body2, t))) and ok
    meta = {"r": r, "t0": t0, "t": t, "case": "t>=t0" if t >= t0 else "t<t0",
            "lambda": (lam1, lam2), "mu": (mu1, mu2)}
    return ok, {"meta": meta, "steps": trace}


# ---------------------------------------------------------------------------
# necessary condition (the endpoint mu adds)
# ---------------------------------------------------------------------------

def necessary_condition_check(l_div: TDivisor, m_div: TDivisor,
                              flag: AdmissibleFlag) -> dict:
    """The condition that additivity of an ample pair implies: the endpoint
    function mu(D) = mu(D; E), E = O(Y_1), must add, mu(L+M) = mu(L) + mu(M).

    That one equation is the whole boundary-cone condition.  mu(D) is the
    least (g.D)/(g.E) over the pseudo-effective facet rows g with g.E > 0
    (Lazarsfeld-Mustata 2009, Sec. 4), so mu is superadditive and adds on
    (L, M) iff one row attains both minima.  The shifted class D - mu(D) E
    vanishes on exactly the rows that attain mu(D) and is positive on the
    others.  So mu adds iff one row vanishes at L - mu_L E and M - mu_M E,
    iff the segment between them lies on the pseudo-effective boundary.
    For a strict pair nothing is owed; the mu defect is reported as
    contrapositive evidence.
    """
    fan = flag.fan
    cls = fan.classes
    if not (cls.is_ample(l_div.num_class[0]) and cls.is_ample(m_div.num_class[0])):
        raise ValueError("necessary condition is stated for ample pairs")
    verdict = check_additivity(l_div, m_div, flag)
    e_div = flag.divisor_of_y1()
    mu_l, mu_m, mu_sum = (mu(fan, n, e_div) for n in (l_div, m_div, l_div + m_div))
    additive = mu_sum == mu_l + mu_m
    return {
        "verdict": verdict.status,
        "mu_L": mu_l, "mu_M": mu_m, "mu_sum": mu_sum,
        "mu_additive": additive,
        "ok": additive or verdict.status != "equal",  # vacuous for strict pairs
    }


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def ample_grid_classes(fan: Fan, bound: int = 5):
    """All ample integer class-coordinate vectors with |coordinate| <= bound."""
    cls = fan.classes
    check_enumeration((2 * bound + 1) ** cls.rank,
                      f"the class grid of bound {bound} in rank {cls.rank}")
    return [vec(coords) for coords in product(range(-bound, bound + 1), repeat=cls.rank)
            if cls.is_ample(coords)]


def theorem_sweep_pairs(cone: ConeCLM, grid):
    """All unordered coefficient pairs from the grid that land in the cone."""
    members = cone.grid_members(grid)
    return [(m1, m2) for i, m1 in enumerate(members) for m2 in members[i:]]


def strict_search(flag: AdmissibleFlag, bound: int = 5):
    """Sweep ample class pairs for a strict inclusion, in a fixed order.

    Returns ("strict", pair, verdict) for the first strict pair found, or
    ("exhausted", count, bound) when the whole bounded grid is additive.
    """
    fan = flag.fan
    classes = ample_grid_classes(fan, bound=bound)
    k = len(classes)
    check_enumeration(k * (k + 1) // 2, f"the pairs of the {k} ample classes of bound {bound}")
    divisors = [fan.classes.divisor_from_class(y) for y in classes]
    checked = 0
    for i in range(k):
        for j in range(i, k):
            verdict = check_additivity(divisors[i], divisors[j], flag)
            checked += 1
            if verdict.status == "strict":
                return "strict", (classes[i], classes[j]), verdict
    return "exhausted", checked, bound
