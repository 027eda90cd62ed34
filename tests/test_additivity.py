"""Additivity verdicts, proof replay, and the boundary-cone condition."""

import json
import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, seed, settings, strategies as st

from blowups import seeded_blown_up_fans
from fraction_oracle import boundary_membership, rref, segment_on_boundary, solve
from hull_oracle import union_hull_contains
from oklab.additivity import (
    AdditivityVerdict,
    ConeCLM,
    InclusionViolationError,
    ReplayPreconditionError,
    ample_grid_classes,
    check_additivity,
    compare_additive_bodies,
    necessary_condition_check,
    slice_decomposition_replay,
    strict_search,
    theorem_sweep_pairs,
)
from oklab import additivity, exactgeom, okounkov, toric
from oklab.cli import json_default
from oklab.exactgeom import Polytope, minkowski_sum, scale, sum_relation
from oklab.toric import AdmissibleFlag, TDivisor, testbed, testbed_names


def setup_p1xp1():
    fan = testbed("p1xp1")
    flag = AdmissibleFlag(fan, (0, 2))
    cone = ConeCLM(TDivisor(fan, (0, 1, 0, 0)), TDivisor(fan, (0, 0, 0, 1)))
    return fan, flag, cone


# --- membership in C_L(M): cone coordinates, then admits ----------------------

def test_in_cone_examples():
    fan, _, cone = setup_p1xp1()
    n = TDivisor(fan, (0, 2, 0, 3))
    assert cone.coordinates(n) == (2, 3) and cone.admits(n, 3)
    n = cone.member(2, -1)
    assert cone.coordinates(n) == (2, -1) and not cone.admits(n, -1)
    n = cone.member(1, 1)
    assert cone.coordinates(n) == (1, 1) and cone.admits(n, 1)


def test_in_cone_dependent_basis():
    p2 = testbed("p2")
    cone = ConeCLM(TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0)))
    n = TDivisor(p2, (3, 0, 0))
    lam, mu_ = cone.coordinates(n)
    assert cone.admits(n, mu_) and lam * 1 + mu_ * 2 == 3


def test_in_cone_outside_span():
    bl = testbed("blpq-p2")
    cone = ConeCLM(bl.classes.divisor_from_class((1, 0, 0)),
                   bl.classes.divisor_from_class((0, 1, 0)))
    with pytest.raises(ValueError):
        cone.coordinates(bl.classes.divisor_from_class((0, 0, 1)))


@pytest.mark.parametrize("name, l_cls, m_cls", [
    ("p1xp1", (1, 0), (0, 1)),
    ("f1", (1, 1), (2, 1)),
    ("blpq-p2", (1, 0, 1), (1, -1, 1)),    # a plane in rank 3
    ("p2", (1,), (2,)),                    # dependent
    ("blpq-p2", (1, 0, 1), (2, 0, 2)),     # dependent in rank 3
    ("blpq-p2", (0, 0, 0), (1, 1, 0)),     # L numerically trivial
    ("p1xp1", (0, 0), (0, 0)),
])
def test_cone_coordinates_match_solve_oracle(name, l_cls, m_cls):
    classes = testbed(name).classes
    cone = ConeCLM(classes.divisor_from_class(l_cls), classes.divisor_from_class(m_cls))
    rows = [[a, b] for a, b in zip(cone.L.cls, cone.M.cls)]
    assert cone.dependent == (len(rref(rows)[1]) < 2)
    rnd = random.Random(7)
    for _ in range(10):
        n = cone.member(F(rnd.randint(-6, 6), rnd.randint(1, 3)),
                        F(rnd.randint(-6, 6), rnd.randint(1, 3)))
        assert cone.coordinates(n) == solve(rows, n.cls)
    for k in range(classes.rank):  # unit classes, some outside the span
        n = classes.divisor_from_class([int(j == k) for j in range(classes.rank)])
        expected = solve(rows, n.cls)
        if expected is None:
            with pytest.raises(ValueError):
                cone.coordinates(n)
        else:
            assert cone.coordinates(n) == expected


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@seed(2024)
@given(st.sampled_from(testbed_names()), st.data())
@settings(max_examples=80, deadline=None)
def test_integer_cone_coordinates_match_solve_oracle(name, data):
    # bases that are independent, dependent (M a multiple of L) or trivial (L = 0),
    # and classes in their span or drawn freely (outside it on rank >= 3)
    classes = testbed(name).classes
    cls = st.lists(small_rationals, min_size=classes.rank, max_size=classes.rank)
    basis = data.draw(st.sampled_from(("free", "multiple", "trivial")))
    l_cls = [0] * classes.rank if basis == "trivial" else data.draw(cls)
    m_cls = ([data.draw(small_rationals) * x for x in l_cls] if basis == "multiple"
             else data.draw(cls))
    cone = ConeCLM(classes.divisor_from_class(l_cls), classes.divisor_from_class(m_cls))
    n = (cone.member(data.draw(small_rationals), data.draw(small_rationals))
         if data.draw(st.booleans()) else classes.divisor_from_class(data.draw(cls)))
    expected = solve([[a, b] for a, b in zip(cone.L.cls, cone.M.cls)], n.cls)
    if expected is None:
        with pytest.raises(ValueError, match="not in the span") as exc:
            cone.coordinates(n)
        assert "Fraction(" not in str(exc.value)
    else:
        assert cone.coordinates(n) == expected


def test_in_cone_dependent_basis_puts_the_class_on_l():
    p2 = testbed("p2")
    cone = ConeCLM(TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0)))
    n = TDivisor(p2, (3, 0, 0))
    assert cone.coordinates(n) == (3, 0) and cone.admits(n, 0)


# --- check_additivity ---------------------------------------------------------

def test_additivity_simplexes():
    p2 = testbed("p2")
    flag = AdmissibleFlag(p2, (1, 2))
    v = check_additivity(TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0)), flag)
    assert v.status == "equal"
    assert (v.vol_n1, v.vol_n2, v.vol_sum_body) == (F(1, 2), 2, F(9, 2))


def test_additivity_rectangles_and_commutativity():
    fan, flag, cone = setup_p1xp1()
    n1, n2 = cone.member(1, 2), cone.member(3, 1)
    a = check_additivity(n1, n2, flag)
    b = check_additivity(n2, n1, flag)
    assert a.status == b.status == "equal"
    assert a.vol_sum_body == b.vol_sum_body


def test_additivity_d1_base_case():
    p1 = testbed("p1")
    flag = AdmissibleFlag(p1, (0,))
    v = check_additivity(TDivisor(p1, (0, 1)), TDivisor(p1, (0, F(3, 2))), flag)
    assert v.status == "equal" and v.vol_sum_body == F(5, 2)


def test_strict_branch_on_synthetic_bodies():
    # 2*simplex sits strictly inside the 2x2 square: witness must be a
    # square vertex violating one halfspace of the sum
    tri = Polytope.hull([(0, 0), (1, 0), (0, 1)])
    square = Polytope.hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    verdict = compare_additive_bodies(tri, tri, square)
    assert verdict.status == "strict"
    assert verdict.witness == (F(2), F(2))
    normal, offset = verdict.violated
    assert sum(n * w for n, w in zip(normal, verdict.witness)) > offset


def test_verdicts_compare_by_value():
    tri = Polytope.hull([(0, 0), (1, 0), (0, 1)])
    square = Polytope.hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    strict = compare_additive_bodies(tri, tri, square)
    assert strict == AdditivityVerdict("strict", (F(2), F(2)), strict.violated,
                                       F(4), F(1, 2), F(1, 2))
    equal = compare_additive_bodies(tri, tri, Polytope.hull([(0, 0), (2, 0), (0, 2)]))
    assert equal == AdditivityVerdict("equal", None, None, F(2), F(1, 2), F(1, 2)) != strict


def test_inclusion_violation_is_hard_error():
    tri = Polytope.hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(InclusionViolationError):
        compare_additive_bodies(tri, tri, tri)  # sum is bigger than "body"


def test_equal_verdict_runs_no_containment_test(monkeypatch):
    # the vertex sums meet the body's own rows: no formed sum is tested for containment
    def refuse(self, other):
        raise AssertionError("containment tested on an equal pair")

    monkeypatch.setattr(Polytope, "contains", refuse)
    fan, flag, cone = setup_p1xp1()
    assert check_additivity(cone.member(1, 1), cone.member(2, 1), flag).status == "equal"


@pytest.mark.parametrize("name,rays,c1,c2", [
    ("p1xp1", (0, 2), (0, 1, 0, 1), (0, 2, 0, 1)),
    ("p1xp1xp1", (0, 2, 4), (0, 1, 0, 1, 0, 1), (0, 2, 0, 1, 0, 1))])
def test_equal_pair_forms_no_sum_and_no_hull_beyond_its_bodies(monkeypatch, name, rays, c1, c2):
    fan = testbed(name)
    flag, n1, n2 = AdmissibleFlag(fan, rays), TDivisor(fan, c1), TDivisor(fan, c2)
    assert check_additivity(n1, n2, flag).status == "equal"  # the fan's own caches
    monkeypatch.setattr(okounkov, "_BODIES", {})
    compare_additive_bodies.cache_clear()  # the same bodies again: decide, do not recall
    calls = []

    def counting(what, real):
        def wrapped(*args):
            calls.append(what)
            return real(*args)
        return wrapped

    hull, msum = counting("hull", exactgeom.integer_hull), counting("sum", minkowski_sum)
    for module in (exactgeom, okounkov, toric):
        monkeypatch.setattr(module, "integer_hull", hull)
    for module in (exactgeom, additivity):
        monkeypatch.setattr(module, "minkowski_sum", msum)
    assert check_additivity(n1, n2, flag).status == "equal"
    assert calls == ["hull"] * 3  # the bodies of N1, N2 and N1 + N2


rational_coords = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def _flat_body(d, k, data):
    """A body of affine rank k in R^d: a k-simplex on a random flat with unit
    pivots and up to three more points of the flat, mixed denominators."""
    cols = data.draw(st.permutations(range(d)))
    dirs = [[int(j == cols[i]) if j in cols[:i + 1] else data.draw(st.integers(-2, 2))
             for j in range(d)] for i in range(k)]
    p0 = data.draw(st.tuples(*[rational_coords] * d))
    combos = [[F(int(i == j)) for j in range(k)] for i in range(k)] + [[F(0)] * k]
    combos += data.draw(st.lists(st.lists(rational_coords, min_size=k, max_size=k), max_size=3))
    body = Polytope.hull([tuple(x + sum(c * v[j] for c, v in zip(cs, dirs))
                                for j, x in enumerate(p0)) for cs in combos])
    assert body.k == k
    return body


def _relation_by_sum(p, q, r):
    """Oracle: the relation read off the formed Minkowski sum, containment
    by one hull of both vertex sets."""
    msum = minkowski_sum(q, r)
    return "equal" if msum == p else "strict" if union_hull_contains(p, msum) else "outside"


@seed(2024)
@pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(d + 1)])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_sum_relation_matches_the_formed_sum(d, k, data):
    q, r = _flat_body(d, k, data), _flat_body(d, data.draw(st.integers(0, d)), data)
    sums = [tuple(a + b for a, b in zip(u, v)) for u in q.vertices for v in r.vertices]
    msum = Polytope.hull(sums)
    assert sum_relation(msum, q, r) == _relation_by_sum(msum, q, r) == "equal"
    assert compare_additive_bodies(q, r, msum).status == "equal"

    # a point outside Q + R: the old route's witness and halfspace are kept
    x = data.draw(st.tuples(*[rational_coords.map(lambda c: 3 * c)] * d))
    if msum.contains(Polytope.hull([x])):
        x = (max(v[0] for v in msum.vertices) + 1,) + x[1:]
    bigger = Polytope.hull(sums + [x])
    assert sum_relation(bigger, q, r) == _relation_by_sum(bigger, q, r) == "strict"
    verdict = compare_additive_bodies(q, r, bigger)
    assert verdict.status == "strict"
    assert (verdict.witness, verdict.violated) == msum.first_outside(bigger)
    assert verdict.witness in bigger.vertices
    normal, offset = verdict.violated

    def val(y):
        return sum(a * b for a, b in zip(normal, y))

    if val(verdict.witness) > offset:  # an inequality of Q + R, or its equality
        assert all(val(s) <= offset for s in sums)
    else:
        assert val(verdict.witness) != offset and all(val(s) == offset for s in sums)

    # a body that misses a vertex sum of Q + R breaks the inclusion
    dropped = data.draw(st.sampled_from(msum.vertices))
    smaller = Polytope.hull([s for s in sums if s != dropped], dim=d)
    assert sum_relation(smaller, q, r) == _relation_by_sum(smaller, q, r) == "outside"
    with pytest.raises(InclusionViolationError):
        compare_additive_bodies(q, r, smaller)


@seed(2024)
@given(st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_compare_additive_bodies_outcomes_on_random_bodies(d, data):
    point = st.tuples(*[rational_coords] * d)
    k_body, l_body = (Polytope.hull(data.draw(st.lists(point, min_size=1, max_size=5)))
                      for _ in range(2))
    sums = [tuple(a + b for a, b in zip(u, v))
            for u in k_body.vertices for v in l_body.vertices]
    msum = Polytope.hull(sums)
    assert compare_additive_bodies(k_body, l_body, msum).status == "equal"

    # a point outside K + L: drawn from a wider box, pushed past it if inside
    p = data.draw(st.tuples(*[rational_coords.map(lambda x: 3 * x)] * d))
    if msum.contains(Polytope.hull([p])):
        p = (max(v[0] for v in msum.vertices) + 1,) + p[1:]
    verdict = compare_additive_bodies(k_body, l_body, Polytope.hull(sums + [p]))
    assert verdict.status == "strict"
    assert verdict.witness in Polytope.hull(sums + [p]).vertices
    normal, offset = verdict.violated

    def val(x):
        return sum(a * b for a, b in zip(normal, x))

    # re-checked on the vertex sums alone, as the benchmark does
    if val(verdict.witness) > offset:
        assert all(val(s) <= offset for s in sums)
    else:
        assert val(verdict.witness) != offset and all(val(s) == offset for s in sums)

    # a body that misses a vertex of K + L breaks the hard inclusion
    dropped = data.draw(st.sampled_from(msum.vertices))
    smaller = Polytope.hull([s for s in sums if s != dropped], dim=d)
    with pytest.raises(InclusionViolationError):
        compare_additive_bodies(k_body, l_body, smaller)


# --- replay --------------------------------------------------------------------

def test_replay_matches_worked_example():
    fan, flag, cone = setup_p1xp1()
    n1, n2 = cone.member(1, 1), cone.member(2, 1)
    ok, trace = slice_decomposition_replay(n1, n2, flag, cone, F(3, 2))
    assert ok
    assert trace["meta"]["t0"] == 1 and trace["meta"]["case"] == "t>=t0"
    ok, trace = slice_decomposition_replay(n1, n2, flag, cone, F(1, 2))
    assert ok
    assert trace["meta"]["case"] == "t<t0"
    assert all(step["equal"] for step in trace["steps"])
    # the sides are bodies; a report serializes them through to_json
    step = trace["steps"][0]
    assert isinstance(step["lhs"], Polytope) and step["lhs"] == step["rhs"]
    assert json.loads(json.dumps(step, default=json_default))["lhs"] == step["lhs"].to_json()


def test_replay_swaps_to_paper_ordering():
    fan, flag, cone = setup_p1xp1()
    # reversed pair must be reordered so that t0 >= 0
    ok, trace = slice_decomposition_replay(
        cone.member(2, 1), cone.member(1, 1), flag, cone, F(3, 2))
    assert ok and trace["meta"]["t0"] == 1


def test_replay_symmetric_pair_has_t0_zero():
    fan, flag, cone = setup_p1xp1()
    ok, trace = slice_decomposition_replay(
        cone.member(2, 2), cone.member(2, 2), flag, cone, 1)
    assert ok and trace["meta"]["t0"] == 0 and trace["meta"]["case"] == "t>=t0"


def test_replay_dependent_cone_p2():
    p2 = testbed("p2")
    flag = AdmissibleFlag(p2, (1, 2))
    cone = ConeCLM(TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0)))
    ok, trace = slice_decomposition_replay(
        cone.member(1, 1), cone.member(2, 1), flag, cone, F(5, 2))
    assert ok and trace["meta"]["t0"] == 0


def test_replay_f1_with_fractional_t0():
    f1 = testbed("f1")
    flag = AdmissibleFlag(f1, (1, 0))
    cone = ConeCLM(TDivisor(f1, (0, 1, 0, 0)), TDivisor(f1, (1, 1, 1, 1)))
    n1, n2 = cone.member(1, 3), cone.member(F(1, 2), 1)
    ok, trace = slice_decomposition_replay(n1, n2, flag, cone, F(1, 12))
    assert ok and trace["meta"]["t0"] == F(1, 6)
    assert trace["meta"]["case"] == "t<t0"
    ok, trace = slice_decomposition_replay(n1, n2, flag, cone, F(1, 4))
    assert ok and trace["meta"]["case"] == "t>=t0"


def test_replay_rejects_bad_inputs():
    fan, flag, cone = setup_p1xp1()
    with pytest.raises(ReplayPreconditionError):
        slice_decomposition_replay(cone.member(1, 1), cone.member(1, 1),
                                   flag, cone, 5)  # t beyond the endpoint
    with pytest.raises(ReplayPreconditionError):
        slice_decomposition_replay(cone.member(1, -1), cone.member(1, 1),
                                   flag, cone, F(1, 2))  # N1 outside the cone
    bad_cone = ConeCLM(TDivisor(fan, (0, 1, 0, 1)), TDivisor(fan, (0, 0, 0, 1)))
    with pytest.raises(ReplayPreconditionError):
        slice_decomposition_replay(bad_cone.member(1, 1), bad_cone.member(1, 2),
                                   flag, bad_cone, F(1, 2))  # flag not for L
    p1 = testbed("p1")
    with pytest.raises(ReplayPreconditionError):
        slice_decomposition_replay(
            TDivisor(p1, (0, 1)), TDivisor(p1, (0, 1)), AdmissibleFlag(p1, (0,)),
            ConeCLM(TDivisor(p1, (0, 1)), TDivisor(p1, (0, 1))), F(1, 2))


@pytest.mark.parametrize("patched, t, case", [("restricted_body", F(1, 2), "t<t0"),
                                              ("body", F(3, 2), "t>=t0")], ids=("t<t0", "t>=t0"))
def test_replay_reports_a_step_whose_sides_differ(monkeypatch, patched, t, case):
    # the bodies of one kind doubled: each case compares such a body with
    # one built another way, so some step is unequal and the replay fails
    fan, flag, cone = setup_p1xp1()
    real = getattr(additivity, patched)
    monkeypatch.setattr(additivity, patched, lambda div, flag: okounkov.NOBody(
        scale(real(div, flag).body, 2), True))
    ok, trace = slice_decomposition_replay(cone.member(1, 1), cone.member(2, 1), flag, cone, t)
    assert trace["meta"]["case"] == case
    assert not ok and not all(step["equal"] for step in trace["steps"])


# --- necessary condition --------------------------------------------------------

def test_necessary_condition_worked_example():
    fan, flag, cone = setup_p1xp1()
    rep = necessary_condition_check(cone.member(1, 2), cone.member(2, 1), flag)
    assert rep["ok"] and rep["verdict"] == "equal"
    assert (rep["mu_L"], rep["mu_M"], rep["mu_sum"]) == (1, 2, 3)
    e_div = flag.divisor_of_y1()
    lshift = (cone.member(1, 2) - e_div.scaled(rep["mu_L"])).cls
    mshift = (cone.member(2, 1) - e_div.scaled(rep["mu_M"])).cls
    assert lshift == (0, 2) and mshift == (0, 1)
    assert segment_on_boundary(fan.classes, lshift, mshift)


def test_necessary_condition_rank_one():
    p2 = testbed("p2")
    flag = AdmissibleFlag(p2, (1, 2))
    l_div, m_div = TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0))
    rep = necessary_condition_check(l_div, m_div, flag)
    assert rep["ok"]
    e_div = flag.divisor_of_y1()
    lshift, mshift = ((n - e_div.scaled(rep[k])).cls
                      for n, k in ((l_div, "mu_L"), (m_div, "mu_M")))
    assert lshift == (0,) and mshift == (0,)
    assert segment_on_boundary(p2.classes, lshift, mshift)


def test_necessary_condition_requires_ample():
    fan, flag, cone = setup_p1xp1()
    with pytest.raises(ValueError):
        necessary_condition_check(cone.L, cone.member(1, 1), flag)


def test_necessary_condition_fails_when_mu_does_not_add(monkeypatch):
    # mu(L + M) one more than its value on an `equal` pair: mu does not add,
    # and an `equal` verdict owes that it adds
    fan, flag, cone = setup_p1xp1()
    l_div, m_div = cone.member(1, 2), cone.member(2, 1)
    real = additivity.mu
    monkeypatch.setattr(additivity, "mu",
                        lambda fan, div, e: real(fan, div, e) + (div == l_div + m_div))
    rep = necessary_condition_check(l_div, m_div, flag)
    assert rep["verdict"] == "equal" and (rep["mu_L"], rep["mu_M"], rep["mu_sum"]) == (1, 2, 4)
    assert not rep["mu_additive"] and not rep["ok"]


def test_a_decided_pair_is_not_decided_again(monkeypatch):
    # prop14 after the additivity sweep: the memo answers, and the verdict is the same
    fan, flag, cone = setup_p1xp1()
    n1, n2 = cone.member(1, 2), cone.member(3, 1)
    verdict = check_additivity(n1, n2, flag)

    def forbidden(*args):
        raise AssertionError("sum_relation called")

    monkeypatch.setattr(additivity, "sum_relation", forbidden)
    assert check_additivity(n1, n2, flag) is verdict
    assert necessary_condition_check(n1, n2, flag)["verdict"] == verdict.status == "equal"


def test_segment_on_boundary_matches_the_grid():
    # pairs of boundary classes M - mu(M; E) E, on one facet or on two
    rnd = random.Random(11)
    for name in testbed_names():
        classes = testbed(name).classes
        den = classes._class_den
        gens = list(zip(*classes._class_rows))  # the ray classes, integers over den
        ends = []
        for _ in range(6):
            k = rnd.randint(1, 3)
            coeffs = [rnd.randint(0, 2) for _ in gens]
            m = tuple(k * den * a + sum(c * g[i] for c, g in zip(coeffs, gens))
                      for i, a in enumerate(classes.ample_class))
            e = rnd.choice(gens)
            s = classes.mu((m, den), (e, den))
            ends.append(tuple(F(a - s * b, den) for a, b in zip(m, e)))
        for a in ends:
            for b in ends:
                points = [tuple(F(k, 12) * x + (1 - F(k, 12)) * y for x, y in zip(a, b))
                          for k in range(13)]
                grid = all(boundary_membership(classes, p) == "boundary" for p in points)
                assert segment_on_boundary(classes, a, b) == grid


def _minimising_rows(classes, d, e):
    """mu(D; E) as the least (g.D)/(g.E) over the rows g of `eff_rows` with
    g.E > 0, and the set of rows that attain it."""
    ratios = {g: F(sum(map(mul, g, d)), sum(map(mul, g, e))) for g in classes.eff_rows
              if sum(map(mul, g, e)) > 0}
    low = min(ratios.values())
    return low, {g for g, r in ratios.items() if r == low}


def _boundary_condition(fan, l, m, e):
    """The condition on the ample classes (L, M) by three routes, which must
    agree: mu(.; E) adds, the segment between the shifts D - mu(D; E) E lies
    on the pseudo-effective boundary, and one row attains both minima."""
    classes = fan.classes
    mus, rows = [], []
    for d in (l, m, tuple(a + b for a, b in zip(l, m))):
        low, attained = _minimising_rows(classes, d, e)
        assert toric.mu(fan, classes.divisor_from_class(d), e) == low
        mus.append(low)
        rows.append(attained)
    additive = mus[2] == mus[0] + mus[1]
    shifts = [tuple(a - s * b for a, b in zip(d, e)) for d, s in ((l, mus[0]), (m, mus[1]))]
    assert segment_on_boundary(classes, *shifts) == additive
    assert bool(rows[0] & rows[1]) == additive
    return additive


def test_mu_additivity_is_the_boundary_condition():
    # seeded ample pairs of the testbeds and of blown-up fans, with E = D_1 of
    # the flags (every ray divisor, as its integer class) and with E the ample
    # class; rows tie at L = E and at shifts on faces of codimension >= 2
    rnd = random.Random(31)
    fans = [testbed(name) for name in testbed_names()] + list(seeded_blown_up_fans(10, 5))
    with_ample = []
    for fan in fans:
        classes, ample = fan.classes, fan.classes.ample_class
        draws = [ample]
        for _ in range(5):
            c, w = rnd.randint(1, 3), [rnd.randint(0, 2) for _ in classes.nef_rays]
            draws.append(tuple(c * a + sum(x * r[k] for x, r in zip(w, classes.nef_rays))
                               for k, a in enumerate(ample)))
        for e, is_ample in [(y, False) for y, _ in classes.ray_classes] + [(ample, True)]:
            for i, l in enumerate(draws):
                for m in draws[i:]:
                    answer = _boundary_condition(fan, l, m, e)
                    # one answer on the whole open cone spanned by L and M
                    for k, j in ((2, 1), (1, 3)):
                        assert _boundary_condition(fan, tuple(k * a for a in l),
                                                   tuple(j * b for b in m), e) == answer
                    if is_ample:
                        with_ample.append(answer)
                    else:
                        assert answer  # mu(.; D_1) is linear on the nef cone
    assert set(with_ample) == {True, False}


# --- sweeps ----------------------------------------------------------------------

def test_theorem_sweep_pairs_filter():
    fan, flag, cone = setup_p1xp1()
    pairs = theorem_sweep_pairs(cone, (F(1, 2), 1))
    # 4 ample members -> 10 unordered pairs
    assert len(pairs) == 10
    # with negative coefficients, against membership read off each class's
    # cone coordinates, on independent (p1xp1) and dependent (p2) bases;
    # with an ample L some classes a L + b M with b < 0 are ample, and only
    # the independent basis drops them
    classes, p2 = fan.classes, testbed("p2")
    ample_l = ConeCLM(classes.divisor_from_class((2, 1)), classes.divisor_from_class((1, 2)))
    dependent = ConeCLM(TDivisor(p2, (1, 0, 0)), TDivisor(p2, (2, 0, 0)))
    grid = (-1, F(-1, 2), 0, F(1, 2), 1, 2)
    for cone in (cone, ample_l, dependent):
        members = [((F(a), F(b)), cone.member(a, b)) for a in grid for b in grid
                   if cone.admits(n := cone.member(a, b), cone.coordinates(n)[1])]
        assert theorem_sweep_pairs(cone, grid) == [
            (m1, m2) for i, m1 in enumerate(members) for m2 in members[i:]]
        assert any(b < 0 for (_, b), _ in members) == cone.dependent
    assert classes.is_ample(ample_l.member(2, F(-1, 2)).cls)


def test_ample_grid_classes_blpq():
    bl = testbed("blpq-p2")
    classes = ample_grid_classes(bl, bound=3)
    assert (F(3), F(-1), F(2)) in classes  # the anticanonical class
    assert all(bl.classes.is_ample(c) for c in classes)


def test_strict_search_exhausts_on_p2():
    p2 = testbed("p2")
    outcome = strict_search(AdmissibleFlag(p2, (1, 2)), bound=3)
    assert outcome[0] == "exhausted" and outcome[1] > 0
