"""Body-map linearity, polarization bridges, and the inequality battery."""

import random
from fractions import Fraction as F
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fraction_oracle
from blowups import blown_up_fans, seeded_blown_up_fans
from oklab import exactgeom, inequalities, verify
from oklab.additivity import ConeCLM
from oklab.exactgeom import Polytope, minkowski_sum, mixed_volume, scale
from oklab.inequalities import (
    InequalityRecord,
    check_cor13,
    cor15_check,
    cor15_sweep,
    decide_power_inequality,
    delta_map,
    derivative_check_bodies,
    find_corresponding_flag,
    injectivity_check,
    lehmann_xiao_check,
    lehmann_xiao_sweep,
    lemma61_check,
    random_polytope,
)
from oklab.linalg import interpolate, iroot
from oklab.okounkov import nef_body, no_body_rational
from oklab.toric import (AdmissibleFlag, Fan, NumClassSpace, TDivisor, flag_corresponds,
                         intersection_number, testbed, testbed_names)


def p1xp1_map():
    fan = testbed("p1xp1")
    flag = AdmissibleFlag(fan, (0, 2))
    return fan, delta_map(TDivisor(fan, (0, 1, 0, 0)),
                          TDivisor(fan, (0, 0, 0, 1)), flag)


# --- the linear map -----------------------------------------------------------

def image_parts(dmap, n):
    """(positive, negative) sides of the image lambda body(L) + mu body(M) of
    N = lambda L + mu M, each coefficient on the side of its sign."""
    lam, mu = dmap.coordinates(n)
    return tuple(minkowski_sum(scale(dmap.body_l.body, max(s * lam, 0)),
                               scale(dmap.body_m.body, max(s * mu, 0))) for s in (1, -1))


def test_delta_map_identity_on_anchor():
    fan, dmap = p1xp1_map()
    positive, negative = image_parts(dmap, dmap.L)
    assert positive == dmap.body_l.body and negative.vertices == ((F(0), F(0)),)


def test_delta_map_matches_direct_body():
    fan, dmap = p1xp1_map()
    n = TDivisor(fan, (0, 2, 0, 3))
    positive, negative = image_parts(dmap, n)
    flag = AdmissibleFlag(fan, (0, 2))
    assert positive == no_body_rational(n, flag).body and negative.vertices == ((F(0), F(0)),)


def test_delta_map_negative_coefficient():
    fan, dmap = p1xp1_map()
    positive, negative = image_parts(dmap, dmap.M.scaled(-1))
    assert positive.vertices == ((F(0), F(0)),)
    assert negative == dmap.body_m.body


def test_delta_map_rejects_outside_span():
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, (3, 0))
    dmap = delta_map(bl.classes.divisor_from_class((1, -1, 1)),   # H - E1
                     bl.classes.divisor_from_class((1, 0, 1)),    # H
                     flag)
    with pytest.raises(ValueError):
        dmap.coordinates(bl.classes.divisor_from_class((0, 0, 1)))


def test_delta_map_rejects_a_non_nef_basis_class():
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, (3, 0))
    nef, bad = (bl.classes.divisor_from_class(y) for y in ((1, 0, 1), (0, 0, 1)))
    for l_div, m_div in ((bad, nef), (nef, bad), (nef.scaled(-1), nef)):
        with pytest.raises(ValueError, match="is not nef on blpq-p2"):
            delta_map(l_div, m_div, flag)


# --- cor13 ---------------------------------------------------------------------

def test_cor13_examples():
    fan, dmap = p1xp1_map()
    o11 = TDivisor(fan, (0, 1, 0, 1))
    ok, rep = check_cor13(dmap, [o11, o11])
    assert ok and rep["lhs"] == rep["rhs"] == 1
    p2 = testbed("p2")
    flag2 = AdmissibleFlag(p2, (1, 2))
    dmap2 = delta_map(TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0)), flag2)
    assert dmap2.dependent
    ok, rep = check_cor13(dmap2, [TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0))])
    assert ok and rep["lhs"] == 1


def test_cor13_scaling_invariance():
    fan, dmap = p1xp1_map()
    a = TDivisor(fan, (0, 1, 0, 2))
    b = TDivisor(fan, (0, 3, 0, 1))
    ok1, rep1 = check_cor13(dmap, [a, b])
    ok2, rep2 = check_cor13(dmap, [b, a])
    ok3, rep3 = check_cor13(dmap, [a.scaled(2), b])
    assert ok1 and ok2 and ok3
    assert rep1["lhs"] == rep2["lhs"]
    assert rep3["lhs"] == 2 * rep1["lhs"]


def test_cor13_with_negative_coefficients_in_span():
    fan, dmap = p1xp1_map()
    n = dmap.L.scaled(2) - dmap.M  # class (2, -1), not effective
    ok, _ = check_cor13(dmap, [n, n])
    assert ok


def test_cor13_forms_each_mixed_volume_once(monkeypatch):
    # the d + 1 mixed volumes of the map, over every call of `suite_cor13`'s d + 2
    calls = []
    real = inequalities.mixed_volume
    monkeypatch.setattr(inequalities, "mixed_volume", lambda bodies: calls.append(1) or real(bodies))
    fan = testbed("p1xp1xp1")
    dmap = delta_map(TDivisor(fan, (1, 0, 1, 0, 1, 0)), TDivisor(fan, (0, 1, 0, 1, 0, 0)),
                     AdmissibleFlag(fan, (0, 2, 4)))
    for k in range(4):
        assert check_cor13(dmap, [dmap.L] * k + [dmap.M] * (3 - k))[0]
    assert check_cor13(dmap, [dmap.L + dmap.M, dmap.L.scaled(2) + dmap.M, dmap.M])[0]
    assert len(calls) == 4 and dmap.mixed_volumes == (0, F(1, 3), F(2, 3), 1)


# --- injectivity ------------------------------------------------------------------

def test_power_inequality_decisions():
    assert decide_power_inequality(F(4), F(4), F(18), 2)[0] == ">"
    assert decide_power_inequality(F(4), F(4), F(16), 2) == ("=", None)
    assert decide_power_inequality(F(4), F(4), F(15), 2)[0] == "<"
    # irrational roots: (sqrt(2) + sqrt(3))^2 = 5 + 2 sqrt(6) = 9.898...
    assert decide_power_inequality(F(2), F(3), F(10), 2)[0] == ">"
    assert decide_power_inequality(F(2), F(3), F(9), 2)[0] == "<"
    side, bound = decide_power_inequality(F(1), F(8), F(28), 3)
    assert side == ">" and bound < 28  # (1 + 2)^3 = 27 < 28


def test_power_inequality_equality_with_irrational_roots():
    # sqrt(2) + sqrt(8) = sqrt(18)
    assert decide_power_inequality(2, 8, 18, 2) == ("=", None)
    assert decide_power_inequality(F(2), F(8), F(18) - F(1, 10 ** 9), 2)[0] == "<"
    assert decide_power_inequality(F(0), F(8), F(8), 3) == ("=", None)


def _strictly_above_root(q, d):
    """A rational m with m^d > q."""
    n = 10
    return F(iroot(q.numerator * n ** d // q.denominator, d)[0] + 1, n)


def test_power_inequality_agrees_with_termwise_criterion():
    # c = sum_k C(d,k) m_k with m_0 = b, m_d = a and m_k^d >= a^k b^(d-k), the
    # shape of mixed intersection numbers; c equals (a^(1/d) + b^(1/d))^d
    # exactly when every middle term is tight
    rnd = random.Random(17)
    sides = {"=": 0, ">": 0, "<": 0}
    for _ in range(200):
        d = rnd.choice((2, 3))
        b = F(rnd.randint(1, 30), rnd.randint(1, 4))
        ratio = None
        if rnd.random() < 0.5:
            ratio = F(rnd.randint(1, 5), rnd.randint(1, 5))
            a = b * ratio ** d
        else:
            a = F(rnd.randint(1, 30), rnd.randint(1, 4))
        terms = []
        for k in range(1, d):
            if ratio is not None and rnd.random() < 0.7:
                terms.append(b * ratio ** k)
            else:
                terms.append(_strictly_above_root(a ** k * b ** (d - k), d))
        termwise_equal = all(m ** d == a ** k * b ** (d - k)
                             for k, m in enumerate(terms, start=1))
        c = a + b + sum(comb(d, k) * m for k, m in enumerate(terms, start=1))
        side, bound = decide_power_inequality(a, b, c, d)
        sides[side] += 1
        assert (side == "=") == termwise_equal, (a, b, c, d)
        if termwise_equal:
            assert bound is None
            c -= F(1, rnd.randint(1, 1000))
            side, bound = decide_power_inequality(a, b, c, d)
            sides[side] += 1
            assert side == "<" and bound > c
        else:
            assert side == ">" and bound < c
    assert all(sides.values()), sides


def test_injectivity_18_vs_16():
    fan = testbed("p1xp1")
    flag = AdmissibleFlag(fan, (0, 2))
    dmap = delta_map(TDivisor(fan, (0, 2, 0, 1)), TDivisor(fan, (0, 1, 0, 2)), flag)
    rec = injectivity_check(dmap)
    assert (rec.lhs, rec.rhs, rec.slack) == (16, 18, 2)
    assert rec.passed


def test_injectivity_f1_pair():
    f1 = testbed("f1")
    flag = AdmissibleFlag(f1, (1, 0))
    dmap = delta_map(TDivisor(f1, (0, 0, 1, 1)),   # 2H - E
                     TDivisor(f1, (0, 0, 1, 2)),   # 3H - E
                     flag)
    rec = injectivity_check(dmap)
    assert rec.slack != 0 and rec.passed


def test_injectivity_computes_no_mixed_volume(monkeypatch):
    fan = testbed("p1xp1")
    flag = AdmissibleFlag(fan, (0, 2))
    dmap = delta_map(TDivisor(fan, (0, 2, 0, 1)), TDivisor(fan, (0, 1, 0, 2)), flag)

    def forbidden(bodies):
        raise AssertionError("injectivity needs intersection numbers only")

    monkeypatch.setattr(inequalities, "mixed_volume", forbidden)
    monkeypatch.setattr(exactgeom, "mixed_volume", forbidden)
    assert injectivity_check(dmap).slack == 2


def test_injectivity_reads_only_the_cone():
    # the cor13 pairs give the same record from their cone as from the body
    # map on any flag; a basis that is not nef has no bodies and is refused
    for name, (lco, mco) in verify.INJECTIVITY_PAIRS.items():
        fan = testbed(name)
        L, M = TDivisor(fan, lco), TDivisor(fan, mco)
        record = injectivity_check(ConeCLM(L, M))
        assert record == injectivity_check(delta_map(L, M, AdmissibleFlag(fan, fan.max_cones[0])))
        assert record.passed and record.slack != 0
    f1 = testbed("f1")
    not_nef = TDivisor(f1, (0, 1, 0, 0))  # E, the (-1)-curve
    assert not f1.classes.is_nef(not_nef.num_class[0])
    with pytest.raises(ValueError, match="only certified for nef inputs"):
        injectivity_check(ConeCLM(not_nef, TDivisor(f1, (0, 0, 1, 2))))


def test_injectivity_rejects_dependent_basis():
    p2 = testbed("p2")
    flag = AdmissibleFlag(p2, (1, 2))
    dmap = delta_map(TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0)), flag)
    with pytest.raises(ValueError):
        injectivity_check(dmap)


# --- lemma 6.1 ---------------------------------------------------------------------

def test_lemma61_closed_form_equality():
    fan = testbed("p1xp1")
    flag = AdmissibleFlag(fan, (0, 2))  # corresponds to O(1,0)
    a, b = 3, 5
    rec = lemma61_check(TDivisor(fan, (0, a, 0, b)), TDivisor(fan, (0, 1, 0, 0)),
                        flag)
    assert rec.lhs == rec.rhs == F(b, 2)
    assert rec.inputs["flag_corresponds_to"] == "M"


def test_lemma61_p2_equality():
    p2 = testbed("p2")
    rec = lemma61_check(TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0)),
                        AdmissibleFlag(p2, (1, 2)))
    assert rec.slack == 0 and rec.lhs == 1
    assert rec.inputs["flag_corresponds_to"] == "L"


def test_lemma61_non_corresponding_flag_nonnegative():
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, (3, 0))
    rec = lemma61_check(TDivisor(bl, (1, 1, 1, 1, 1)),
                        TDivisor(bl, (2, 2, 2, 2, 2)), flag)
    assert rec.inputs["flag_corresponds_to"] is None
    assert rec.slack >= 0


def test_lemma61_rhs_is_the_intersection_number(monkeypatch):
    # a mixed volume forced to 0 leaves the right side L . M^(d-1) / d!
    monkeypatch.setattr(inequalities, "mixed_volume", lambda bodies: F(0))
    for name, l_co, m_co, rays in (("p1xp1", (0, 3, 0, 5), (0, 1, 0, 0), (0, 2)),
                                   ("p2", (1, 0, 0), (2, 0, 0), (1, 2)),
                                   ("p1xp1xp1", (1, 0, 1, 0, 1, 0), (1, 0, 2, 0, 3, 0), (0, 2, 4))):
        fan = testbed(name)
        l_div, m_div, d = TDivisor(fan, l_co), TDivisor(fan, m_co), fan.dim
        rec = lemma61_check(l_div, m_div, AdmissibleFlag(fan, rays))
        expected = intersection_number(fan, [l_div] + [m_div] * (d - 1)) / factorial(d)
        assert rec.lhs == 0 < expected == rec.rhs


# --- lehmann-xiao -------------------------------------------------------------------

def test_lx_trivial_cases():
    sq = Polytope.hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    rec = lehmann_xiao_check(sq, sq, sq, 1)
    assert (rec.lhs, rec.rhs, rec.slack) == (1, 2, 1)
    rec = lehmann_xiao_check(sq, sq, sq, 0)
    assert rec.slack == 0


def test_lx_mixed_bodies():
    sq = Polytope.hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    big = scale(sq, 2)
    tri = Polytope.hull([(0, 0), (1, 0), (0, 1)])
    for k in (0, 1, 2):
        assert lehmann_xiao_check(sq, big, tri, k).passed


def test_lx_bad_k():
    sq = Polytope.hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        lehmann_xiao_check(sq, sq, sq, 3)


def test_lx_sweep_deterministic():
    a = lehmann_xiao_sweep(2, 5, seed=11)
    b = lehmann_xiao_sweep(2, 5, seed=11)
    assert a == b and all(r.passed for r in a)


def test_records_compare_by_value():
    rec = InequalityRecord("lx", F(1), F(2), {"k": 1})
    assert rec == InequalityRecord(name="lx", lhs=F(1), rhs=F(2), inputs={"k": 1})
    assert rec != InequalityRecord("lx", F(1), F(2)) != InequalityRecord("lx", F(1), F(3))
    assert InequalityRecord("lx", 0, 0).inputs is not InequalityRecord("lx", 0, 0).inputs


def test_random_polytope_in_box():
    p = random_polytope(random.Random(3), 3)
    assert all(0 <= x <= 4 for v in p.vertices for x in v)


# --- cor15 --------------------------------------------------------------------------

def test_cor15_tight_case_with_proof_path():
    fan = testbed("p1xp1")
    res = cor15_check(TDivisor(fan, (0, 1, 0, 1)), TDivisor(fan, (0, 1, 0, 0)),
                      TDivisor(fan, (0, 0, 0, 1)))
    assert res["ok"]
    assert res["direct"].lhs == res["direct"].rhs == 2
    assert res["proof_path"] is not None
    assert res["proof_path"]["tight_ML"] and res["proof_path"]["tight_MN"]


def test_cor15_onesided_ln_holds_below_the_bound(monkeypatch):
    # V(L, N^(d-1)) is owed only <= L . N^(d-1) / d!; the tight triple meets
    # the bound, so lower that one mixed volume and the check must still hold
    fan = testbed("p1xp1")
    l_div, m_div, n_div = (TDivisor(fan, co) for co in ((0, 1, 0, 1), (0, 1, 0, 0), (0, 0, 0, 1)))
    flag = find_corresponding_flag(fan, m_div)
    ln = [nef_body(l_div, flag).body] + [nef_body(n_div, flag).body] * (fan.dim - 1)
    real = inequalities.mixed_volume
    monkeypatch.setattr(inequalities, "mixed_volume",
                        lambda bodies: real(bodies) - F(1, 4) * (bodies == ln))
    path = cor15_check(l_div, m_div, n_div)["proof_path"]
    assert path["lehmann_xiao"].rhs < F(1, 2)  # the lowered V(L, N) reached the record
    assert path["onesided_LN"] and path["tight_ML"] and path["tight_MN"]


def test_cor15_computes_each_product_once(monkeypatch):
    # L^(d-1) and N^(d-1) are the only contractions of the form; the four
    # numbers are pairings with them, and no intersection_number is called
    fan = testbed("p1xp1")
    triple = (TDivisor(fan, (0, 1, 0, 1)), TDivisor(fan, (0, 1, 0, 0)),
              TDivisor(fan, (0, 0, 0, 1)))
    cor15_check(*triple)  # the bodies, whose certificates take D^d, are memoised
    contractions, products = [], []

    def counting_contract(self, classes):
        contractions.append(len(classes))
        return real_contract(self, classes)

    def counting(fan, divisors):
        products.append(1)
        return real(fan, divisors)

    real, real_contract = inequalities.intersection_number, NumClassSpace.contract
    monkeypatch.setattr(inequalities, "intersection_number", counting)
    monkeypatch.setattr(NumClassSpace, "contract", counting_contract)
    res = cor15_check(*triple)
    assert contractions == [fan.dim - 1] * 2 and products == []
    assert res == {
        "direct": InequalityRecord(
            name="cor15-direct", lhs=F(2), rhs=F(2),
            inputs={"L": (F(1), F(1)), "M": (F(1), F(0)), "N": (F(0), F(1))}),
        "proof_path": {
            "flag": (0, 2),
            "lehmann_xiao": InequalityRecord(
                name="lehmann-xiao-k1", lhs=F(1, 2), rhs=F(1, 2),
                inputs={"k": 1, "dim": 2}),
            "tight_ML": True, "tight_MN": True, "onesided_LN": True,
            "volume_identity": True},
        "ok": True}


def nef_triples(fan, rnd):
    """Nef triples (L, M, N) built from the nef cone's extreme rays, which are
    not big (rulings, pulled-back hyperplanes), and from fractional nef classes
    over different denominators."""
    rays = [fan.classes.divisor_from_class(r) for r in fan.classes.nef_rays]
    ample = fan.classes.divisor_from_class(fan.classes.ample_class)

    def fractional():
        div = ample.scaled(F(rnd.randint(1, 5), rnd.randint(1, 4)))
        for ray in rnd.sample(rays, min(2, len(rays))):
            div = div + ray.scaled(F(rnd.randint(0, 4), rnd.choice((1, 2, 3, 5, 7))))
        return div

    pool = rays + [fractional() for _ in range(4)]
    return [tuple(rnd.choice(pool) for _ in range(3)) for _ in range(6)]


def test_cor15_direct_route_matches_intersection_numbers():
    # the old route as an oracle: four intersection_number values, each a full
    # contraction of the form; the record's sides are their products, and the
    # proof path compares the same four numbers with its mixed volumes
    rnd = random.Random(15)
    fans = [testbed(name) for name in testbed_names() if testbed(name).dim >= 2]
    fans += list(seeded_blown_up_fans(8, seed=15))
    assert sum(fan.dim == 3 for fan in fans) > 2
    unlike_denominators = 0
    for fan in fans:
        d, df = fan.dim, factorial(fan.dim)
        for l_div, m_div, n_div in nef_triples(fan, rnd):
            l_top = intersection_number(fan, [l_div] * d)
            m_n = intersection_number(fan, [m_div] + [n_div] * (d - 1))
            m_l = intersection_number(fan, [m_div] + [l_div] * (d - 1))
            l_n = intersection_number(fan, [l_div] + [n_div] * (d - 1))
            res = cor15_check(l_div, m_div, n_div)
            direct = res["direct"]
            assert (direct.lhs, direct.rhs) == (l_top * m_n, d * m_l * l_n)
            assert type(direct.lhs) is type(direct.rhs) is F
            assert res["ok"] == (l_top * m_n <= d * m_l * l_n) == direct.passed
            if (path := res["proof_path"]) is not None:
                flag = find_corresponding_flag(fan, m_div)
                bl, bm, bn = (nef_body(dv, flag).body for dv in (l_div, m_div, n_div))
                assert path["tight_ML"] == (mixed_volume([bm] + [bl] * (d - 1)) == m_l / df)
                assert path["tight_MN"] == (mixed_volume([bm] + [bn] * (d - 1)) == m_n / df)
                assert path["onesided_LN"] == (mixed_volume([bl] + [bn] * (d - 1)) <= l_n / df)
                assert path["volume_identity"] == (bl.volume() == l_top / df)
                unlike_denominators += l_div.num_class[1] != m_div.num_class[1]
            # the full contraction is the form, and the last class pairs with the
            # linear form that the other d - 1 leave
            classes = [dv.num_class for dv in (l_div, m_div, n_div) * d][:d]
            (ints, den), (lin, lin_den) = (fan.classes.contract(classes),
                                           fan.classes.contract(classes[:-1]))
            (y, q) = classes[-1]
            assert F(ints[0], den) == fan.classes.form(classes) == F(
                sum(a * b for a, b in zip(y, lin)), lin_den * q)
    assert unlike_denominators  # a proof path that reads M . L^(d-1) over q_M, not q_L


def test_cor15_forms_three_mixed_volumes_per_proof_path(monkeypatch):
    # V(M, N^(d-1)), V(M, L^(d-1)) and V(L, N^(d-1)) serve both the
    # Lehmann-Xiao record and the tight identities
    calls = []

    def counting(bodies, *args):
        calls.append(1)
        return real(bodies, *args)

    real = inequalities.mixed_volume
    monkeypatch.setattr(inequalities, "mixed_volume", counting)
    paths = 0
    for name in ("p2", "p1xp1", "f1", "p1xp1xp1"):
        for res in cor15_sweep(testbed(name), 6, seed=11):
            assert res["ok"]
            paths += res["proof_path"] is not None
    assert paths and len(calls) == 3 * paths


def test_cor15_p2_slack_one():
    p2 = testbed("p2")
    h = TDivisor(p2, (1, 0, 0))
    res = cor15_check(h, h, h)
    assert res["direct"].lhs == 1 and res["direct"].rhs == 2


def test_cor15_zero_top_self_intersection():
    fan = testbed("p1xp1")
    ruling = TDivisor(fan, (0, 1, 0, 0))
    res = cor15_check(ruling, TDivisor(fan, (0, 1, 0, 1)), ruling)
    assert res["direct"].lhs == 0 and res["ok"]


def test_cor15_rejects_non_nef():
    f1 = testbed("f1")
    e = TDivisor(f1, (0, 1, 0, 0))
    amp = TDivisor(f1, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        cor15_check(e, amp, amp)
    # each class is tested once, in the order L, M, N, with intersection_number's
    # messages, on every testbed, the curve p1 included
    for fan in map(testbed, testbed_names()):
        n = len(fan.rays)
        nef, bad = TDivisor(fan, (1,) * n), TDivisor(fan, (-1,) + (0,) * (n - 1))
        other = testbed("p2" if fan.name != "p2" else "p1xp1")
        foreign = TDivisor(other, (1,) * len(other.rays))
        for pos in range(3):
            for wrong, message in ((bad, "only certified for nef"), (foreign, "different fan")):
                triple = [nef, nef, nef]
                triple[pos] = wrong
                if pos < 2:  # a later bad class does not change the message
                    triple[2] = foreign if wrong is bad else bad
                with pytest.raises(ValueError, match=message):
                    cor15_check(*triple)


def test_cor15_sweep_seeded():
    fan = testbed("f1")
    res = cor15_sweep(fan, 10, seed=5)
    assert all(r["ok"] for r in res)
    res2 = cor15_sweep(fan, 10, seed=5)
    assert [r["direct"].lhs for r in res] == [r["direct"].lhs for r in res2]


def test_lehmann_xiao_and_cor15_form_no_minkowski_sum(monkeypatch):
    # for d <= 3 every mixed volume the two checks ask for is a volume or
    # has the form V(A, B^(d-1)), which the facet formula gives without a sum
    def forbidden(*args):
        raise AssertionError("minkowski_sum called")

    monkeypatch.setattr(exactgeom, "minkowski_sum", forbidden)
    monkeypatch.setattr(inequalities, "minkowski_sum", forbidden)
    for dim in (2, 3):
        assert all(r.passed for r in lehmann_xiao_sweep(dim, 10, seed=7))
    replayed = 0
    for name in testbed_names():
        fan = testbed(name)
        if 2 <= fan.dim <= 3:
            res = cor15_sweep(fan, 5, seed=3)
            assert all(r["ok"] for r in res)
            replayed += sum(r["proof_path"] is not None for r in res)
    assert replayed  # the body-level derivation ran


def test_find_corresponding_flag():
    fan = testbed("p1xp1")
    flag = find_corresponding_flag(fan, TDivisor(fan, (0, 1, 0, 0)))
    assert flag is not None
    assert find_corresponding_flag(fan, TDivisor(fan, (0, 1, 0, 1))) is None


# --- derivative identity ---------------------------------------------------------------

def brute_force_flag(fan, divisor):
    """Oracle: the first cone ordering, in `find_corresponding_flag`'s order,
    whose flag corresponds to the divisor, with no pre-filter."""
    return next((AdmissibleFlag(fan, perm) for cone in fan.max_cones
                 for perm in permutations(cone)
                 if flag_corresponds(AdmissibleFlag(fan, perm), divisor)[0]), None)


@seed(2024)
@settings(max_examples=40, deadline=None)
@given(fan=st.one_of(st.sampled_from(testbed_names()).map(testbed),
                     blown_up_fans().map(lambda spec: Fan("blowup", spec[1], spec[2]))),
       data=st.data())
def test_find_corresponding_flag_matches_brute_force(fan, data):
    n = len(fan.rays)
    entry = st.one_of(st.integers(-2, 3), st.fractions(-2, 3, max_denominator=3))
    ray = data.draw(st.integers(0, n - 1))
    c = data.draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    vectors = [data.draw(st.lists(entry, min_size=n, max_size=n)),
               [int(i == ray) for i in range(n)], [0] * n,
               [c * (i == ray) for i in range(n)]]
    # a random divisor, a ray divisor, the zero class, a nonzero multiple of a ray
    # class (negative or fractional) and an ample class
    divisors = [TDivisor(fan, coeffs) for coeffs in vectors]
    divisors.append(fan.classes.divisor_from_class(fan.classes.ample_class))
    for divisor in divisors:
        assert find_corresponding_flag(fan, divisor) == brute_force_flag(fan, divisor)


def test_derivative_square_case():
    sq = Polytope.hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    ok, info = derivative_check_bodies(sq, sq)
    assert ok and info["coefficients"] == (1, 2, 1)  # vol(tK+K) = (1+t)^2


def test_derivative_rectangle_segment():
    rect = Polytope.hull([(0, 0), (3, 0), (0, 5), (3, 5)])
    seg = Polytope.hull([(0, 0), (1, 0)])
    ok, info = derivative_check_bodies(seg, rect)
    assert ok and info["d_times_mixed"] == 5  # 2 V(seg, rect) = 2 * (5/2)


def test_derivative_on_divisor_classes():
    p2 = testbed("p2")
    flag = AdmissibleFlag(p2, (1, 2))
    assert derivative_check_bodies(nef_body(TDivisor(p2, (1, 0, 0)), flag).body,
                                   nef_body(TDivisor(p2, (2, 0, 0)), flag).body)[0]
    fan = testbed("p1xp1")
    flag = AdmissibleFlag(fan, (0, 2))
    assert derivative_check_bodies(nef_body(TDivisor(fan, (0, 3, 0, 5)), flag).body,
                                   nef_body(TDivisor(fan, (0, 1, 0, 0)), flag).body)[0]


@seed(2024)
@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(-50, 50, max_denominator=12), max_size=7))
def test_interpolate_matches_fraction_oracle(values):
    coeffs = interpolate(values)
    assert coeffs == fraction_oracle.interpolate(values)
    assert all(type(c) is F for c in coeffs)
    for s, v in enumerate(values):
        assert sum(c * s ** j for j, c in enumerate(coeffs)) == v


def test_derivative_check_sides_do_not_share_the_fit(monkeypatch):
    # a fit with a wrong linear coefficient must fail the check: the mixed
    # volume side goes through polarization, not through the same fit
    def wrong_fit(values):
        coeffs = interpolate(values)
        coeffs[1] += 1
        return coeffs

    monkeypatch.setattr(inequalities, "interpolate", wrong_fit)
    sq = Polytope.hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    rect = Polytope.hull([(0, 0), (3, 0), (0, 5), (3, 5)])
    for k_body, base in ((sq, sq), (rect, sq), (sq, Polytope.hull([(0, 0), (1, 0)]))):
        ok, _ = derivative_check_bodies(k_body, base)
        assert not ok
