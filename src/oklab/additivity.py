"""Additivity of Newton-Okounkov bodies on two-parameter ample cones.

The central claim under test: for a flag whose Y_1-chain corresponds to a
class L, the body map is Minkowski-additive on C_L(M), the set of ample
classes lambda L + mu M with mu >= 0.  This module verifies that claim
pair by pair in exact arithmetic, replays the slice-wise decomposition
that proves it, checks the necessary boundary-cone condition on the
projections L - mu_L O(Y_1), and searches coefficient grids for strict
inclusions.

The one-sided inclusion sum(bodies) <= body(sum) is a hard invariant: a
violation means the implementation (not the mathematics) is broken, and
aborts the run with InclusionViolationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exactgeom import Polytope, minkowski_sum, slice_at
from .linalg import dot, rank, rat, solve, vec
from .okounkov import _section_image, no_body_rational, restricted_body
from .toric import (
    AdmissibleFlag,
    Fan,
    TDivisor,
    flag_corresponds,
    flag_valuation,
    mu,
)

__all__ = [
    "ConeCLM",
    "AdditivityVerdict",
    "InclusionViolationError",
    "UncertifiedBodyError",
    "in_cone",
    "check_additivity",
    "compare_additive_bodies",
    "slice_decomposition_replay",
    "necessary_condition_check",
    "ample_grid_classes",
    "theorem_sweep_pairs",
    "strict_search",
]


class InclusionViolationError(AssertionError):
    """The containment sum(bodies) <= body(sum) failed: implementation bug."""


class UncertifiedBodyError(ValueError):
    pass


@dataclass(frozen=True)
class ConeCLM:
    """C_L(M): classes lambda L + mu M with mu >= 0, inside the ample cone."""

    L: TDivisor
    M: TDivisor

    def __post_init__(self):
        if self.L.fan is not self.M.fan:
            raise ValueError("cone basis divisors on different fans")

    @property
    def fan(self) -> Fan:
        return self.L.fan

    def member(self, lam, m) -> TDivisor:
        return self.L.scaled(lam) + self.M.scaled(m)


def in_cone(n: TDivisor, cone: ConeCLM):
    """Solve N = lambda L + mu M in N^1; in-cone iff mu >= 0 and N ample.

    When L and M are dependent the representation is not unique; the free
    coefficient is set to zero (mu picks up the whole class when possible),
    and membership degenerates to ampleness of N inside the span.
    """
    fan = cone.fan
    cl, cm, cn = cone.L.cls, cone.M.cls, n.cls
    rows = [[cl[i], cm[i]] for i in range(len(cn))]
    sol = solve(rows, vec(cn))
    if sol is None:
        raise ValueError(f"class {cn} is not in the span of the cone basis")
    lam, m = sol
    dependent = rank(rows) < 2
    ample = fan.classes.is_ample(cn)
    if dependent:
        return ample, lam, m
    return (m >= 0 and ample), lam, m


@dataclass(frozen=True)
class AdditivityVerdict:
    status: str  # "equal" | "strict"
    witness: tuple | None  # vertex of body(sum) outside the Minkowski sum
    violated: tuple | None  # the (normal, offset) certificate for the witness
    vol_sum_body: Fraction
    vol_minkowski: Fraction
    vol_n1: Fraction
    vol_n2: Fraction

    def to_json(self):
        def fr(x):
            return [x.numerator, x.denominator]

        out = {
            "status": self.status,
            "vol_sum_body": fr(self.vol_sum_body),
            "vol_minkowski": fr(self.vol_minkowski),
            "vol_n1": fr(self.vol_n1),
            "vol_n2": fr(self.vol_n2),
        }
        if self.witness is not None:
            out["witness"] = [fr(x) for x in self.witness]
            n, c = self.violated
            out["violated"] = {"normal": [fr(x) for x in n], "offset": fr(c)}
        return out


def compare_additive_bodies(body1: Polytope, body2: Polytope,
                            body_sum: Polytope, context: str = "") -> AdditivityVerdict:
    """Verdict on body_sum vs body1 + body2 (the hard inclusion included).

    The strictness witness is a vertex of body_sum together with one
    violated halfspace (or affine-hull equality) of the Minkowski sum, so
    a reader can re-check it independently.
    """
    msum = minkowski_sum(body1, body2)
    if not body_sum.contains(msum):
        raise InclusionViolationError(
            f"Minkowski sum not contained in the body of the sum {context}")
    if msum == body_sum:
        return AdditivityVerdict("equal", None, None, body_sum.volume(),
                                 msum.volume(), body1.volume(), body2.volume())
    witness = next(v for v in body_sum.vertices if not msum.contains_point(v))
    eqs, ineqs = msum.halfspaces()
    violated = next(((n, c) for n, c in eqs if dot(n, witness) != c), None)
    if violated is None:
        violated = next((n, c) for n, c in ineqs if dot(n, witness) > c)
    return AdditivityVerdict("strict", witness, violated, body_sum.volume(),
                             msum.volume(), body1.volume(), body2.volume())


def check_additivity(n1: TDivisor, n2: TDivisor,
                     flag: AdmissibleFlag) -> AdditivityVerdict:
    """Compare body(N1 + N2) with body(N1) + body(N2), exactly."""
    b1 = no_body_rational(n1, flag)
    b2 = no_body_rational(n2, flag)
    b12 = no_body_rational(n1 + n2, flag)
    for nb, which in ((b1, "N1"), (b2, "N2"), (b12, "N1+N2")):
        if not nb.exact:
            raise UncertifiedBodyError(f"body of {which} not certified exact")
    return compare_additive_bodies(
        b1.body, b2.body, b12.body,
        context=f"(classes {n1.cls} and {n2.cls})")


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
    sum.  Returns (ok, trace) where the trace lists each step with both
    sides serialized; ok is False from the first failing step on.
    """
    fan = flag.fan
    d = fan.dim
    if d < 2:
        raise ReplayPreconditionError("replay needs dimension >= 2 (d=1 is the base case)")
    t = rat(t)
    ok_corr, ratios = flag_corresponds(fan, flag, cone.L)
    if not ok_corr:
        raise ReplayPreconditionError("flag does not correspond to the cone class L")
    r = ratios[0]
    in1, lam1, mu1 = in_cone(n1, cone)
    in2, lam2, mu2 = in_cone(n2, cone)
    if not (in1 and in2):
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
    endpoint = mu(fan, n1 + n2, oy1.cls)
    if not 0 < t < endpoint:
        raise ReplayPreconditionError(f"t={t} outside (0, {endpoint})")

    trace = []

    def step(name, lhs: Polytope, rhs: Polytope) -> bool:
        okstep = lhs == rhs
        trace.append({"step": name, "equal": okstep,
                      "lhs": lhs.to_json(), "rhs": rhs.to_json()})
        return okstep

    def body(div):
        nb = no_body_rational(div, flag)
        if not nb.exact:
            raise UncertifiedBodyError(f"body of class {div.cls} not certified")
        return nb.body

    def image_body(div):
        # valuations of the sections restricted to Y_1: the nu_1 = 0 slice
        return slice_at(_section_image(div, flag).body, 0)

    # the canonical section of O(Y_1) has valuation vector e_1
    e1 = tuple(Fraction(1 if i == 0 else 0) for i in range(d))
    if tuple(flag_valuation(flag, oy1, (0,) * d)) != e1:
        raise AssertionError("canonical section of O(Y_1) has valuation != e_1")

    body_n12 = body(n1 + n2)
    slice_n12 = slice_at(body_n12, t)
    ok = True

    if t >= t0:
        d2 = n1.scaled(1 + c) + oy1.scaled(t0)
        if d2.cls != (n1 + n2).cls:
            raise AssertionError("class identity N1+N2 = (1+c)N1 + t0 O(Y_1) failed")
        ok = step("slice(N1+N2, t) = slice((1+c)N1 + t0*O(Y1), t)",
                  slice_n12, slice_at(body(d2), t)) and ok
        shifted = n1.scaled(1 + c) - oy1.scaled(t - t0)
        img = image_body(shifted)
        ok = step("slice((1+c)N1 + t0*O(Y1), t) = restricted((1+c)N1 - (t-t0)*O(Y1))",
                  slice_at(body(d2), t), img) and ok
        lhs_embed = img.embed_prefix(t)
        rhs_embed = img.embed_prefix(t - t0).translate(e1_scaled(t0, d))
        ok = step("{t} x S = t0*e1 + {t-t0} x S", lhs_embed, rhs_embed) and ok
        ok = step("restricted((1+c)N1 - (t-t0)*O(Y1)) = slice((1+c)N1, t-t0)",
                  img, slice_at(body(n1.scaled(1 + c)), t - t0)) and ok
        total = minkowski_sum(body(n1), body(n2))
        incl = total.contains(slice_n12.embed_prefix(t))
        trace.append({"step": "slice(N1+N2, t) inside body(N1) + body(N2)",
                      "equal": incl})
        ok = ok and incl
    else:
        if r == 0:
            raise AssertionError("t0 > 0 forces r != 0")
        chat = (mu2 / mu1) * (t / t0)
        combo1 = n1.scaled(1 + chat) + n2.scaled((t0 - t) / t0)
        if combo1.cls != (n1 + n2 - oy1.scaled(t)).cls:
            raise AssertionError("class identity for N1+N2 - t O(Y1) failed")
        if not fan.classes.is_ample(combo1.cls):
            raise AssertionError("N1+N2 - t O(Y1) must be ample for t < t0")
        combo2 = n1.scaled(chat) + n2.scaled((t0 - t) / t0)
        if combo2.cls != (n2 - oy1.scaled(t)).cls:
            raise AssertionError("class identity for N2 - t O(Y1) failed")
        img1 = image_body(n1 + n2 - oy1.scaled(t))
        ok = step("slice(N1+N2, t) = restricted(N1+N2 - t*O(Y1))",
                  slice_n12, img1) and ok
        star1 = restricted_body(combo1, flag)
        if not star1.exact:
            raise UncertifiedBodyError("star body of the ample combination not certified")
        ok = step("restricted(N1+N2 - t*O(Y1)) = star body of the ample combination",
                  img1, star1.body) and ok
        s1 = restricted_body(n1, flag)
        s2 = restricted_body(combo2, flag)
        if not (s1.exact and s2.exact):
            raise UncertifiedBodyError("star bodies for the induction step not certified")
        ok = step("induction on Y_1: star(N1+N2-t*O(Y1)) = star(N1) + star(combo)",
                  star1.body, minkowski_sum(s1.body, s2.body)) and ok
        lhs_embed = minkowski_sum(s1.body.embed_prefix(0), s2.body.embed_prefix(t))
        rhs_embed = minkowski_sum(s1.body, s2.body).embed_prefix(t)
        ok = step("{0} x S1 + {t} x S2 = {t} x (S1 + S2)", lhs_embed, rhs_embed) and ok
        img2 = image_body(n2 - oy1.scaled(t))
        ok = step("restricted(N2 - t*O(Y1)) = star body of the second combination",
                  img2, s2.body) and ok
        ok = step("slice(N1, 0) = star(N1)",
                  slice_at(body(n1), 0), s1.body) and ok
        ok = step("slice(N2, t) = restricted(N2 - t*O(Y1))",
                  slice_at(body(n2), t), img2) and ok
        ok = step("slice(N1+N2, t) = slice(N1, 0) + slice(N2, t)",
                  slice_n12,
                  minkowski_sum(slice_at(body(n1), 0), slice_at(body(n2), t))) and ok
    meta = {"r": r, "t0": t0, "t": t, "case": "t>=t0" if t >= t0 else "t<t0",
            "lambda": (lam1, lam2), "mu": (mu1, mu2)}
    return ok, {"meta": meta, "steps": trace}


def e1_scaled(t, d):
    return tuple(rat(t) if i == 0 else Fraction(0) for i in range(d))


# ---------------------------------------------------------------------------
# necessary condition (projections to the pseudo-effective boundary)
# ---------------------------------------------------------------------------

def necessary_condition_check(l_div: TDivisor, m_div: TDivisor,
                              flag: AdmissibleFlag, grid_den: int = 12) -> dict:
    """Boundary-cone condition implied by additivity of an ample pair.

    For an additive pair the endpoint function must be additive,
    mu(L+M) = mu(L) + mu(M), and every convex combination of the shifted
    classes L - mu_L O(Y_1) and M - mu_M O(Y_1) must sit on the boundary
    of the pseudo-effective cone.  For a strict pair nothing is owed; the
    mu defect is reported as contrapositive evidence.
    """
    fan = flag.fan
    cls = fan.classes
    if not (cls.is_ample(l_div.cls) and cls.is_ample(m_div.cls)):
        raise ValueError("necessary condition is stated for ample pairs")
    verdict = check_additivity(l_div, m_div, flag)
    e_cls = flag.divisor_of_y1().cls
    mu_l = cls.mu(l_div.cls, e_cls)
    mu_m = cls.mu(m_div.cls, e_cls)
    mu_sum = cls.mu(vec((l_div + m_div).cls), e_cls)
    report = {
        "verdict": verdict.status,
        "mu_L": mu_l, "mu_M": mu_m, "mu_sum": mu_sum,
        "mu_additive": mu_sum == mu_l + mu_m,
    }
    if verdict.status != "equal":
        report["ok"] = True  # vacuous: nothing is claimed for strict pairs
        return report
    lshift = tuple(a - mu_l * b for a, b in zip(vec(l_div.cls), vec(e_cls)))
    mshift = tuple(a - mu_m * b for a, b in zip(vec(m_div.cls), vec(e_cls)))
    segment_ok = True
    for k in range(grid_den + 1):
        s = Fraction(k, grid_den)
        point = tuple(s * a + (1 - s) * b for a, b in zip(lshift, mshift))
        if cls.boundary_membership(point) != "boundary":
            segment_ok = False
            break
    report.update({
        "L_shift": lshift, "M_shift": mshift,
        "L_shift_membership": cls.boundary_membership(lshift),
        "M_shift_membership": cls.boundary_membership(mshift),
        "segment_on_boundary": segment_ok,
    })
    report["ok"] = (report["mu_additive"] and segment_ok
                    and report["L_shift_membership"] == "boundary"
                    and report["M_shift_membership"] == "boundary")
    return report


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def ample_grid_classes(fan: Fan, bound: int = 5):
    """All ample integer class-coordinate vectors with |coordinate| <= bound."""
    cls = fan.classes
    out = []
    for coords in product(range(-bound, bound + 1), repeat=cls.rank):
        y = vec(coords)
        if cls.is_ample(y):
            out.append(y)
    return out


def theorem_sweep_pairs(cone: ConeCLM, grid):
    """All unordered coefficient pairs from the grid that land in the cone."""
    members = []
    for a in grid:
        for b in grid:
            n = cone.member(a, b)
            inside, _, _ = in_cone(n, cone)
            if inside:
                members.append(((rat(a), rat(b)), n))
    pairs = []
    for i in range(len(members)):
        for j in range(i, len(members)):
            pairs.append((members[i], members[j]))
    return pairs


def strict_search(fan: Fan, flag: AdmissibleFlag, bound: int = 5,
                  limit: int | None = None):
    """Sweep ample class pairs for a strict inclusion, in a fixed order.

    Returns ("strict", pair, verdict) for the first strict pair found, or
    ("exhausted", count, bound) when the whole bounded grid is additive.
    """
    classes = ample_grid_classes(fan, bound=bound)
    divisors = [fan.classes.divisor_from_class(y) for y in classes]
    checked = 0
    for i in range(len(divisors)):
        for j in range(i, len(divisors)):
            verdict = check_additivity(divisors[i], divisors[j], flag)
            checked += 1
            if verdict.status == "strict":
                return "strict", (classes[i], classes[j]), verdict
            if limit is not None and checked >= limit:
                return "exhausted", checked, bound
    return "exhausted", checked, bound
