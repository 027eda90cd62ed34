"""Body-map linearity, polarization bridges, and the inequality battery."""

import random
from fractions import Fraction as F
from math import comb

import pytest

from oklab.exactgeom import convex_hull, scale
from oklab.inequalities import (
    check_cor13,
    cor15_check,
    cor15_sweep,
    decide_power_inequality,
    delta_map,
    delta_map_for_classes,
    derivative_check_bodies,
    find_corresponding_flag,
    injectivity_check,
    lehmann_xiao_check,
    lehmann_xiao_sweep,
    lemma61_check,
    mixed_volume_derivative_check,
    random_polytope,
)
from oklab.linalg import iroot
from oklab.okounkov import no_body_rational
from oklab.toric import AdmissibleFlag, TDivisor, testbed


def p1xp1_map():
    fan = testbed("p1xp1")
    flag = AdmissibleFlag(fan, (0, 2))
    return fan, delta_map(TDivisor(fan, (0, 1, 0, 0)),
                          TDivisor(fan, (0, 0, 0, 1)), flag)


# --- the linear map -----------------------------------------------------------

def test_delta_map_identity_on_anchor():
    fan, dmap = p1xp1_map()
    fb = dmap.apply(dmap.L)
    assert fb.is_convex_body() and fb.as_polytope() == dmap.body_l.body


def test_delta_map_matches_direct_body():
    fan, dmap = p1xp1_map()
    n = TDivisor(fan, (0, 2, 0, 3))
    fb = dmap.apply(n)
    flag = AdmissibleFlag(fan, (0, 2))
    assert fb.as_polytope() == no_body_rational(n, flag).body


def test_delta_map_negative_coefficient():
    fan, dmap = p1xp1_map()
    fb = dmap.apply(dmap.M.scaled(-1))
    assert fb.positive.vertices == ((F(0), F(0)),)
    assert fb.negative == dmap.body_m.body


def test_delta_map_rejects_outside_span():
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, (3, 0))
    dmap = delta_map(bl.classes.divisor_from_class((1, -1, 1)),   # H - E1
                     bl.classes.divisor_from_class((1, 0, 1)),    # H
                     flag)
    with pytest.raises(ValueError):
        dmap.apply(bl.classes.divisor_from_class((0, 0, 1)))


def test_delta_map_for_classes_reordering():
    # three ample classes whose cone is generated by the outer two
    fan = testbed("p1xp1")
    flag = AdmissibleFlag(fan, (0, 2))
    classes = [TDivisor(fan, (0, 1, 0, 1)), TDivisor(fan, (0, 2, 0, 1)),
               TDivisor(fan, (0, 1, 0, 2))]
    dmap = delta_map_for_classes(classes, flag)
    assert {dmap.L.cls, dmap.M.cls} == {(2, 1), (1, 2)}
    for cls in classes:
        assert dmap.apply(cls).as_polytope() == \
            no_body_rational(cls, flag).body


def test_delta_map_for_classes_proportional_fallback():
    fan = testbed("p1xp1")
    flag = AdmissibleFlag(fan, (0, 2))
    classes = [TDivisor(fan, (0, 1, 0, 1)), TDivisor(fan, (0, 2, 0, 2))]
    dmap = delta_map_for_classes(classes, flag)
    assert not dmap.dependent  # an independent companion was found


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


# --- lehmann-xiao -------------------------------------------------------------------

def test_lx_trivial_cases():
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    rec = lehmann_xiao_check(sq, sq, sq, 1)
    assert (rec.lhs, rec.rhs, rec.slack) == (1, 2, 1)
    rec = lehmann_xiao_check(sq, sq, sq, 0)
    assert rec.slack == 0


def test_lx_mixed_bodies():
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    big = scale(sq, 2)
    tri = convex_hull([(0, 0), (1, 0), (0, 1)])
    for k in (0, 1, 2):
        assert lehmann_xiao_check(sq, big, tri, k).passed


def test_lx_bad_k():
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        lehmann_xiao_check(sq, sq, sq, 3)


def test_lx_sweep_deterministic():
    a = lehmann_xiao_sweep(2, 5, seed=11)
    b = lehmann_xiao_sweep(2, 5, seed=11)
    assert [(r.lhs, r.rhs) for r in a] == [(r.lhs, r.rhs) for r in b]
    assert all(r.passed for r in a)


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


def test_cor15_sweep_seeded():
    fan = testbed("f1")
    res = cor15_sweep(fan, 10, seed=5)
    assert all(r["ok"] for r in res)
    res2 = cor15_sweep(fan, 10, seed=5)
    assert [r["direct"].lhs for r in res] == [r["direct"].lhs for r in res2]


def test_find_corresponding_flag():
    fan = testbed("p1xp1")
    flag = find_corresponding_flag(fan, TDivisor(fan, (0, 1, 0, 0)))
    assert flag is not None
    assert find_corresponding_flag(fan, TDivisor(fan, (0, 1, 0, 1))) is None


# --- derivative identity ---------------------------------------------------------------

def test_derivative_square_case():
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    ok, info = derivative_check_bodies(sq, sq)
    assert ok and info["coefficients"] == (1, 2, 1)  # vol(tK+K) = (1+t)^2


def test_derivative_rectangle_segment():
    rect = convex_hull([(0, 0), (3, 0), (0, 5), (3, 5)])
    seg = convex_hull([(0, 0), (1, 0)])
    ok, info = derivative_check_bodies(seg, rect)
    assert ok and info["d_times_mixed"] == 5  # 2 V(seg, rect) = 2 * (5/2)


def test_derivative_on_divisor_classes():
    p2 = testbed("p2")
    flag = AdmissibleFlag(p2, (1, 2))
    assert mixed_volume_derivative_check(TDivisor(p2, (1, 0, 0)),
                                         TDivisor(p2, (2, 0, 0)), flag)
    fan = testbed("p1xp1")
    assert mixed_volume_derivative_check(TDivisor(fan, (0, 3, 0, 5)),
                                         TDivisor(fan, (0, 1, 0, 0)),
                                         AdmissibleFlag(fan, (0, 2)))
