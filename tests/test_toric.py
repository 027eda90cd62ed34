"""Toric backend: fans, cones, intersection numbers, flags, star models."""

import json
import random
from fractions import Fraction as F
from itertools import combinations, product
from math import factorial, inf

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from blowups import blown_up_fans, seeded_blown_up_fans, star_subdivision
from fraction_oracle import (boundary_membership, common_denominator, dot, nullspace, ray_form,
                             solve, subset_loop_polytope)
from graded_oracle import face_tails, lattice_points
from hull_oracle import cofactor_det
from oklab import exactgeom, okounkov, toric
from oklab.exactgeom import Polytope, mixed_volume
from oklab.linalg import primitive, vec
from oklab.toric import (
    AdmissibleFlag,
    Fan,
    FanError,
    TDivisor,
    flag_corresponds,
    intersection_number,
    load_catalog_dir,
    mu,
    parse_rational,
    polytope_of_divisor,
    star_model,
    testbed,
    testbed_names,
)


def verts(*points):
    return tuple(tuple(F(x) for x in p) for p in points)


# --- fan validation ---------------------------------------------------------

def test_all_testbeds_load_and_are_smooth():
    for name in testbed_names():
        fan = testbed(name)
        for cone in fan.max_cones:
            assert abs(cofactor_det([list(fan.rays[i]) for i in cone])) == 1


def test_testbed_inventory():
    expected = {"p1": (1, 1), "p2": (2, 1), "p3": (3, 1), "p1xp1": (2, 2),
                "p1xp1xp1": (3, 3), "f1": (2, 2), "blpq-p2": (2, 3)}
    for name, (dim, rho) in expected.items():
        fan = testbed(name)
        assert (fan.dim, fan.classes.rank) == (dim, rho)
        assert testbed(name) is fan  # built once per process
    with pytest.raises(KeyError, match="unknown testbed 'p4'"):
        testbed("p4")


def test_fan_rejects_non_primitive_ray():
    with pytest.raises(FanError):
        Fan("bad", [[2, 0], [0, 1], [-2, -1]], [[0, 1], [1, 2], [2, 0]])


def test_fan_rejects_singular_cone():
    with pytest.raises(FanError):
        Fan("bad", [[1, 0], [1, 2], [-1, -1]], [[0, 1], [1, 2], [2, 0]])


def test_fan_rejects_incomplete_fan():
    with pytest.raises(FanError):
        Fan("bad", [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2]])


def test_fan_rejects_duplicate_ray():
    with pytest.raises(FanError):
        Fan("bad", [[1, 0], [1, 0], [0, 1]], [[0, 2], [1, 2]])


def test_fan_rejects_cones_on_one_side_of_a_ridge():
    # every cone is smooth and every ridge lies in two cones, but the cones
    # [0, 1] and [0, 2] both lie above the ridge spanned by ray 0
    with pytest.raises(FanError, match="both sides"):
        Fan("folded", [[1, 0], [0, 1], [1, 1]], [[0, 1], [1, 2], [0, 2]])


def test_fan_rejects_a_fan_that_winds_twice_around_the_origin():
    # every cone is smooth and every ridge lies in two cones on opposite
    # sides, but the fifteen cones go round the origin twice
    rays = [[1, 0], [-3, 1], [-1, 0], [-3, -1], [-2, -1], [-3, -2], [-1, -1], [-2, -3],
            [-1, -2], [-1, -3], [1, 2], [0, 1], [-1, 1], [-3, 2], [1, -1]]
    with pytest.raises(FanError, match="covered 2 times"):
        Fan("twice", rays, [[i, (i + 1) % 15] for i in range(15)])


# --- classes and cones ------------------------------------------------------

def test_p2_class_is_degree():
    p2 = testbed("p2")
    assert TDivisor(p2, (1, 0, 0)).cls == (1,)
    assert TDivisor(p2, (F(1, 2), 1, 1)).cls == (F(5, 2),)


def test_blpq_ray_classes_match_hand_computation():
    bl = testbed("blpq-p2")
    expected = [(1, -1, 1), (1, -1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i, want in enumerate(expected):
        coeffs = [1 if j == i else 0 for j in range(5)]
        assert TDivisor(bl, coeffs).cls == tuple(F(x) for x in want)


def test_nef_and_eff_cones_p1xp1():
    pp = testbed("p1xp1")
    assert pp.classes.is_ample((1, 1))
    assert pp.classes.is_nef((0, 1)) and not pp.classes.is_ample((0, 1))
    assert pp.classes.is_big((1, 1)) and not pp.classes.is_big((0, 1))


def test_f1_cone_structure():
    f1 = testbed("f1")
    e_cls = TDivisor(f1, (0, 1, 0, 0)).cls
    assert e_cls == (-1, 1)
    assert boundary_membership(f1.classes, e_cls) == "boundary"  # E on the eff boundary
    assert f1.classes.is_ample((1, 1))  # 2H - E
    assert not f1.classes.is_nef(e_cls)


def test_boundary_membership_trichotomy():
    pp = testbed("p1xp1")
    assert boundary_membership(pp.classes, (1, 1)) == "interior"
    assert boundary_membership(pp.classes, (0, 1)) == "boundary"
    assert boundary_membership(pp.classes, (-1, 1)) == "outside"
    assert boundary_membership(pp.classes, (0, 0)) == "boundary"  # apex of the cone


def test_divisor_from_class_roundtrip():
    bl = testbed("blpq-p2")
    cls = (F(3), F(-1), F(2))
    assert bl.classes.divisor_from_class(cls).cls == cls


# --- divisor polytopes ------------------------------------------------------

def test_polytope_of_divisor_examples():
    p2 = testbed("p2")
    # O(1): solve u1 >= 0, u2 >= 0, -u1 - u2 >= -1 by hand
    p = polytope_of_divisor(p2, TDivisor(p2, (1, 0, 0)))
    assert p.vertices == verts((0, 0), (0, 1), (1, 0))
    pp = testbed("p1xp1")
    r = polytope_of_divisor(pp, TDivisor(pp, (0, 2, 0, 3)))
    assert r.vertices == verts((0, 0), (0, 3), (2, 0), (2, 3))
    z = polytope_of_divisor(pp, TDivisor(pp, (0, 0, 0, 0)))
    assert z.vertices == verts((0, 0))


def test_polytope_of_non_effective_divisor_is_empty():
    p2 = testbed("p2")
    assert polytope_of_divisor(p2, TDivisor(p2, (-1, 0, 0))).is_empty()


def test_lattice_points_of_doubled_hyperplane():
    p2 = testbed("p2")
    pts = sorted(lattice_points(p2, TDivisor(p2, (2, 0, 0))))
    assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


# --- valuations -------------------------------------------------------------

def test_flag_valuation_examples():
    p2 = testbed("p2")
    flag = AdmissibleFlag(p2, (1, 2))
    o1 = TDivisor(p2, (1, 0, 0)).ints
    assert flag.phi((0, 0), o1, 1) == (0, 0)
    assert flag.phi((1, 0), o1, 1) == (1, 0)
    pp = testbed("p1xp1")
    fl = AdmissibleFlag(pp, (0, 2))
    assert fl.phi((2, 3), TDivisor(pp, (0, 2, 0, 3)).ints, 1) == (2, 3)


def test_flag_valuation_injective_and_nonnegative():
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, (3, 0))
    div = TDivisor(bl, (1, 1, 1, 1, 1))
    pts = lattice_points(bl, div)
    vals = [flag.phi(u, div.ints, 1) for u in pts]
    assert len(set(vals)) == len(pts)
    assert all(x >= 0 for v in vals for x in v)


def test_nef_images_come_from_the_flag_table():
    # phi of `section_points` on every flag of the testbeds and of seeded
    # blow-ups, over a grid of nef classes with halves: the same points in the
    # same order, over the same denominator
    checked = 0
    for fan in [testbed(name) for name in testbed_names()] + list(seeded_blown_up_fans(10, 32)):
        grid = [divisor for y in product(range(-1, 3), repeat=fan.classes.rank)
                if fan.classes.is_nef(y)
                for divisor in (fan.classes.divisor_from_class(y),
                                fan.classes.divisor_from_class([F(a, 2) for a in y]))]
        for flag in (AdmissibleFlag(fan, c) for c in fan.max_cones):
            for div in grid:
                L, points = toric.section_points(fan, div)
                a, s = div.ints, L // div.den
                assert flag.section_image(div) == (L, [flag.phi(p, a, s) for p in points])
                checked += 1
    assert checked > 1000


def test_flag_valuation_is_the_flags_image_of_the_section_points():
    # small integral classes on every flag of every testbed: the lattice
    # points among the section points map to their image points, and the
    # valuations of all lattice points of P_D span the flag's image
    rnd, checked = random.Random(28), 0
    for name in testbed_names():
        fan = testbed(name)
        for flag in (AdmissibleFlag(fan, c) for c in fan.max_cones):
            for _ in range(3):
                div = TDivisor(fan, [F(rnd.randint(-2, 4), rnd.choice((1, 2)))
                                     for _ in fan.rays])
                L, image = flag.section_image(div)
                points = toric.section_points(fan, div)[1]
                assert len(image) == len(points)
                for p, v in zip(points, image):
                    if all(x % L == 0 for x in p):
                        # phi at the lattice point u = p / L, over den
                        value = flag.phi([div.den * x // L for x in p], div.ints, 1)
                        assert tuple(F(x, div.den) for x in value) == tuple(F(x, L) for x in v)
                        checked += 1
                if div.den == 1 and fan.classes.is_nef(div.num_class[0]) and image:
                    assert Polytope.hull([flag.phi(u, div.ints, 1) for u in
                                          lattice_points(fan, div)], dim=fan.dim) \
                        == exactgeom.integer_hull(fan.dim, L, image)
    assert checked > 100


def test_face_lattice_tails_matches_filtered_enumeration():
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, (3, 0))
    div = TDivisor(bl, (2, 1, 2, 1, 1))
    by_filter = sorted(
        flag.phi(u, div.ints, 1)[1:]
        for u in lattice_points(bl, div)
        if flag.phi(u, div.ints, 1)[0] == 0)
    assert sorted(tuple(map(F, t)) for t in face_tails(bl, flag, div)) \
        == by_filter


def test_admissible_flag_requires_maximal_cone():
    pp = testbed("p1xp1")
    with pytest.raises(ValueError):
        AdmissibleFlag(pp, (0, 1))  # opposite rays: not a cone


def test_flags_and_divisors_compare_fans_by_identity():
    fan = testbed("f1")
    twin = Fan(fan.name, fan.rays, fan.max_cones)  # the same spec, another fan
    flag, div = AdmissibleFlag(fan, (1, 0)), TDivisor(fan, (1, F(1, 2), 0, 2))
    same_flag, same_div = AdmissibleFlag(fan, [1, 0]), TDivisor(fan, (2, 1, 0, 4)).scaled(F(1, 2))
    assert flag == same_flag and hash(flag) == hash(same_flag)
    assert div == same_div and hash(div) == hash(same_div)
    assert flag != AdmissibleFlag(twin, (1, 0)) and flag != AdmissibleFlag(fan, (1, 2))
    assert div != TDivisor(twin, div.coeffs) and div != div.coeffs


def test_divisor_and_flag_fields_are_read_only():
    fan = testbed("p2")
    div, flag = TDivisor(fan, (1, 0, 0)), AdmissibleFlag(fan, (1, 2))
    for obj, field in ((div, "fan"), (div, "den"), (div, "ints"),
                       (flag, "fan"), (flag, "ray_indices")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    assert (div.fan, div.den, div.ints, flag.ray_indices) == (fan, 1, (1, 0, 0), (1, 2))


def test_divisor_refuses_coefficients_that_are_not_rational_values():
    fan = testbed("p2")
    for bad in (0.1, "1/2"):
        with pytest.raises(ValueError, match=f"coefficient {bad!r} is neither"):
            TDivisor(fan, (1, bad, F(1, 2)))


# --- intersection numbers ---------------------------------------------------

def test_intersection_examples():
    p2 = testbed("p2")
    h = TDivisor(p2, (1, 0, 0))
    assert intersection_number(p2, [h, h]) == 1
    pp = testbed("p1xp1")
    o11 = TDivisor(pp, (0, 1, 0, 1))
    assert intersection_number(pp, [o11, o11]) == 2
    a, b, c, e = 2, 3, 1, 4
    lhs = intersection_number(pp, [TDivisor(pp, (0, a, 0, b)),
                                   TDivisor(pp, (0, c, 0, e))])
    assert lhs == a * e + b * c


def test_intersection_multilinearity():
    pp = testbed("p1xp1")
    d1 = TDivisor(pp, (0, 1, 0, 2))
    d2 = TDivisor(pp, (0, 3, 0, 1))
    d3 = TDivisor(pp, (0, 1, 0, 1))
    lhs = intersection_number(pp, [d1.scaled(2) + d2.scaled(F(1, 2)), d3])
    rhs = 2 * intersection_number(pp, [d1, d3]) \
        + F(1, 2) * intersection_number(pp, [d2, d3])
    assert lhs == rhs


def test_intersection_volume_identity():
    p3 = testbed("p3")
    h = TDivisor(p3, (0, 0, 0, 2))
    body = polytope_of_divisor(p3, h)
    assert intersection_number(p3, [h, h, h]) == 6 * body.volume() == 8


def test_intersection_rejects_non_nef():
    f1 = testbed("f1")
    e = TDivisor(f1, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        intersection_number(f1, [e, e])


def test_wall_self_intersections_on_f1():
    # E^2 = -1, fiber^2 = 0, (+1)-section^2 = +1, from the intersection form
    f1 = testbed("f1")
    def self_int(ray):
        coeffs = [1 if i == ray else 0 for i in range(4)]
        return f1.classes.form([TDivisor(f1, coeffs).num_class] * 2)
    assert self_int(1) == -1
    assert self_int(0) == 0 and self_int(2) == 0
    assert self_int(3) == 1


def test_exceptional_self_intersections_on_blpq():
    bl = testbed("blpq-p2")
    e3, e4 = (TDivisor(bl, [int(i == ray) for i in range(5)]).num_class for ray in (3, 4))
    assert bl.classes.form([e3, e3]) == bl.classes.form([e4, e4]) == -1


def mixed_volume_intersection(fan, divisors):
    """Oracle: d! V(P_{D_1}, ..., P_{D_d}), valid for nef divisors."""
    return factorial(fan.dim) * mixed_volume(
        [polytope_of_divisor(fan, dv) for dv in divisors])


def support_positivity(fan, coeffs):
    """(nef, ample) from the support function: m_sigma lies in P_D for every
    maximal cone sigma, strictly off the rays of sigma for ampleness."""
    nef = ample = True
    for sigma in fan.max_cones:
        m = solve([vec(fan.rays[i]) for i in sigma], [-coeffs[i] for i in sigma])
        for rho, ray in enumerate(fan.rays):
            if rho not in sigma:
                slack = dot(m, vec(ray)) + coeffs[rho]
                nef = nef and slack >= 0
                ample = ample and slack > 0
    return nef, ample


def seeded_nef_divisors(fan, rnd, den, count):
    out = []
    while len(out) < count:
        coeffs = tuple(F(rnd.randint(0, 3 * den), den) for _ in fan.rays)
        if support_positivity(fan, coeffs)[0]:
            out.append(TDivisor(fan, coeffs))
    return out


@pytest.mark.parametrize("name", testbed_names())
def test_form_matches_mixed_volume_oracle(name):
    fan = testbed(name)
    d = fan.dim
    rnd = random.Random(31)
    for den in (1, 2):
        divs = seeded_nef_divisors(fan, rnd, den, 4)
        for dv, ev, fv in zip(divs, divs[1:] + divs[:1], divs[2:] + divs[:2]):
            products = [[dv] * d]
            if d >= 2:
                products.append([dv, ev] + [dv] * (d - 2))
            if d == 3:
                products.append([dv, ev, fv])
            for factors in products:
                assert intersection_number(fan, factors) \
                    == mixed_volume_intersection(fan, factors)


@pytest.mark.parametrize("name", testbed_names())
def test_nef_and_ample_match_support_function_oracle(name):
    fan = testbed(name)
    rnd = random.Random(37)
    seen = set()
    for _ in range(150):
        shift = rnd.randint(0, 3)
        coeffs = tuple(F(rnd.randint(-9, 9), rnd.choice((1, 2, 3))) + shift
                       for _ in fan.rays)
        cls = TDivisor(fan, coeffs).cls
        want = support_positivity(fan, coeffs)
        assert (fan.classes.is_nef(cls), fan.classes.is_ample(cls)) == want
        seen.add(want)
    assert {(True, True), (False, False)} <= seen


@settings(max_examples=40, deadline=None)
@given(spec=blown_up_fans(), data=st.data())
def test_form_on_blown_up_fans(spec, data):
    name, rays, cones, pulled, tau = spec
    fan = Fan("blowup", rays, cones)
    base = testbed(name)
    n, d = len(rays), fan.dim
    # pulling back keeps -K_base nef with the same top self-intersection
    top = intersection_number(fan, [TDivisor(fan, pulled)] * d)
    assert top == intersection_number(base, [TDivisor(base, [1] * len(base.rays))] * d)
    assert top == mixed_volume_intersection(fan, [TDivisor(fan, pulled)] * d)
    # the form is symmetric and sees classes only, for divisors of any sign
    vectors = [data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
               for _ in range(d)]
    u = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    principal = [sum(x * y for x, y in zip(u, r)) for r in rays]

    def form(vectors):
        return fan.classes.form([TDivisor(fan, v).num_class for v in vectors])

    value = form(vectors)
    assert form(vectors[::-1]) == value
    moved = [[a + b for a, b in zip(vectors[0], principal)]] + vectors[1:]
    assert form(moved) == value
    if tau is not None and len(tau) == d:  # a blown-up point: E^d = (-1)^(d-1)
        e = [0] * (n - 1) + [1]
        assert form([e] * d) == (-1) ** (d - 1)


@seed(2024)
@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(testbed_names()), data=st.data())
def test_divisor_is_an_integer_value(name, data):
    fan = testbed(name)
    n = len(fan.rays)
    entry = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))
    a = data.draw(st.lists(entry, min_size=n, max_size=n))
    b = data.draw(st.one_of(st.just([F(2 * x, 2) for x in a]),
                            st.lists(entry, min_size=n, max_size=n)))
    c = data.draw(entry)
    da, db = TDivisor(fan, a), TDivisor(fan, b)
    assert da.coeffs == tuple(F(x) for x in a)
    assert (da == db) == (da.coeffs == db.coeffs)
    assert da != TDivisor(Fan(name, fan.rays, fan.max_cones), a)  # fans by identity
    if da == db:
        assert hash(da) == hash(db)
    for div, want in ((da + db, [x + y for x, y in zip(a, b)]),
                      (da - db, [x - y for x, y in zip(a, b)]),
                      (da.scaled(c), [c * x for x in a])):
        assert div == TDivisor(fan, want) and hash(div) == hash(TDivisor(fan, want))
        assert div.coeffs == tuple(F(x) for x in want)
        assert div.den == common_denominator([div.coeffs])  # the least one


def test_intersection_numbers_touch_no_polytope(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the intersection form must not use polytopes")

    monkeypatch.setattr(toric, "polytope_of_divisor", forbidden)
    monkeypatch.setattr(exactgeom, "mixed_volume", forbidden)
    p3 = testbed("p3")
    fresh = Fan("p3", p3.rays, p3.max_cones)
    h = TDivisor(fresh, (0, 0, 0, 1))
    assert intersection_number(fresh, [h, h, h]) == 1


# --- flag correspondence ----------------------------------------------------

def test_flag_corresponds_examples():
    p2 = testbed("p2")
    assert flag_corresponds(AdmissibleFlag(p2, (1, 2)),
                            TDivisor(p2, (1, 0, 0))) == (True, (1,))
    pp = testbed("p1xp1")
    fl = AdmissibleFlag(pp, (0, 2))
    assert flag_corresponds(fl, TDivisor(pp, (0, 1, 0, 0))) == (True, (1,))
    ok, ratios = flag_corresponds(fl, TDivisor(pp, (0, 1, 0, 1)))
    assert not ok and ratios is None


def test_flag_corresponds_deeper_levels():
    p3 = testbed("p3")
    assert flag_corresponds(AdmissibleFlag(p3, (0, 1, 2)),
                            TDivisor(p3, (0, 0, 0, 1))) == (True, (1, 1))
    ppp = testbed("p1xp1xp1")
    ok, ratios = flag_corresponds(AdmissibleFlag(ppp, (0, 2, 4)),
                                  TDivisor(ppp, (0, 1, 0, 0, 0, 0)))
    assert ok and ratios == (1, 0)  # restriction to Y_1 is numerically trivial


def test_flag_corresponds_d1_is_vacuous():
    p1 = testbed("p1")
    assert flag_corresponds(AdmissibleFlag(p1, (0,)),
                            TDivisor(p1, (0, 3))) == (True, ())


# --- mu and star models -----------------------------------------------------

def test_mu_examples():
    pp = testbed("p1xp1")
    e_cls = AdmissibleFlag(pp, (0, 2)).divisor_of_y1().cls
    assert mu(pp, TDivisor(pp, (0, 5, 0, 3)), e_cls) == 5
    p2 = testbed("p2")
    line = AdmissibleFlag(p2, (1, 2)).divisor_of_y1().cls
    assert mu(p2, TDivisor(p2, (4, 0, 0)), line) == 4
    assert mu(p2, TDivisor(p2, (1, 0, 0)), line) == 1  # M = O(Y_1) itself


def test_mu_requires_big():
    pp = testbed("p1xp1")
    with pytest.raises(ValueError):
        mu(pp, TDivisor(pp, (0, 1, 0, 0)), (0, 1))


def test_star_model_p1xp1_is_p1():
    pp = testbed("p1xp1")
    sm = star_model(AdmissibleFlag(pp, (0, 2)))
    assert sm.star_fan.dim == 1
    restricted = sm.restrict_divisor(TDivisor(pp, (0, 2, 0, 3)))
    assert sum(restricted.coeffs) == 3  # degree of O(2,3) on a ruling


def test_star_model_f1_exceptional():
    f1 = testbed("f1")
    sm = star_model(AdmissibleFlag(f1, (1, 0)))
    assert sm.star_fan.dim == 1
    restricted = sm.restrict_divisor(TDivisor(f1, (1, 1, 1, 1)))
    assert sum(restricted.coeffs) == 1  # (-K).E = 1 on the (-1)-curve


def test_star_model_is_memoised_per_flag():
    # flags compare by fan identity and rays, so equal flags share one model
    f1 = testbed("f1")
    sm = star_model(AdmissibleFlag(f1, (1, 0)))
    assert star_model(AdmissibleFlag(f1, (1, 0))) is sm
    assert sm.flag == AdmissibleFlag(f1, (1, 0))
    assert star_model(AdmissibleFlag(f1, (1, 2))) is not sm


def test_star_model_threefold():
    ppp = testbed("p1xp1xp1")
    sm = star_model(AdmissibleFlag(ppp, (0, 2, 4)))
    assert sm.star_fan.dim == 2
    assert len(sm.star_fan.rays) == 4  # a quadric surface
    restricted = sm.restrict_divisor(TDivisor(ppp, (0, 2, 0, 1, 0, 3)))
    assert restricted.cls == (1, 3)


# --- catalog loading --------------------------------------------------------

def test_load_catalog_dir(tmp_path):
    spec = {"name": "quadric", "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
            "max_cones": [[0, 2], [1, 2], [1, 3], [0, 3]]}
    (tmp_path / "quadric.json").write_text(json.dumps(spec))
    fans = load_catalog_dir(tmp_path)
    assert set(fans) == {"quadric"}
    assert fans["quadric"].dim == 2


def test_parse_rational_forms():
    assert parse_rational(3) == 3
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational([3, 2]) == F(3, 2)
    with pytest.raises(ValueError):
        parse_rational([1, 2, 3])
    for inexact in (0.1, [1, 2.0], True):  # binary floats and bools are refused
        with pytest.raises(ValueError):
            parse_rational(inexact)


def test_mu_positive_for_ample_with_effective_e():
    for name in ("p2", "p1xp1", "f1", "blpq-p2"):
        fan = testbed(name)
        flag = AdmissibleFlag(fan, fan.max_cones[0])
        e_cls = flag.divisor_of_y1().cls
        amp = next(c for c in __import__("oklab.additivity",
                                         fromlist=["ample_grid_classes"])
                   .ample_grid_classes(fan, bound=4))
        assert mu(fan, fan.classes.divisor_from_class(amp), e_cls) > 0


def _interval_cases(fan, rnd, samples):
    """(M, E) pairs: M random or a boundary class, E a ray divisor, random or zero."""
    n = len(fan.rays)
    units = [TDivisor(fan, [int(i == k) for k in range(n)]) for i in range(n)]
    nef_rays = [fan.classes.divisor_from_class(y) for y in fan.classes.nef_rays]
    for _ in range(samples):
        m = rnd.choice([
            TDivisor(fan, [F(rnd.randint(-2, 4), rnd.randint(1, 3)) for _ in range(n)]),
            rnd.choice(units), rnd.choice(nef_rays), rnd.choice(units) + rnd.choice(units)])
        e = rnd.choice([rnd.choice(units), rnd.choice(units), rnd.choice(nef_rays), m,
                        TDivisor(fan, [rnd.randint(-2, 2) for _ in range(n)]), units[0].scaled(0)])
        yield m, e


def _inside(lo, hi):
    """A point of the nonempty open interval (lo, hi)."""
    if lo == -inf:
        return F(0) if hi == inf else hi - 1
    return lo + 1 if hi == inf else (lo + hi) / 2


def test_the_class_interval_is_the_cone_test():
    # lo < t < hi iff M - t E is big (eff_rows) or ample (nef_rows), at points
    # inside, at each finite end and outside, on every testbed and on ten
    # blown-up fans; empty, one-sided and bounded intervals all occur
    rnd, kinds = random.Random(28), {"big": set(), "ample": set()}
    fans = [(testbed(name), 40) for name in testbed_names()] + [
        (fan, 15) for fan in seeded_blown_up_fans(10, 28)]
    for fan, samples in fans:
        classes = fan.classes
        for m, e in _interval_cases(fan, rnd, samples):
            for kind, rows, test in (("big", classes.eff_rows, classes.is_big),
                                     ("ample", classes.nef_rows, classes.is_ample)):
                lo, hi = classes.interval(rows, m.num_class, e.num_class)
                ends = [x for x in (lo, hi) if x not in (inf, -inf)]
                if lo >= hi:
                    kinds[kind].add("empty")
                    ts = ends + [F(rnd.randint(-6, 6), 2)]
                else:
                    kinds[kind].add("two-sided" if len(ends) == 2
                                    else "one-sided" if ends else "every t")
                    ts = ends + [x + d for x in ends for d in (-1, 1, F(-1, 7), F(1, 7))]
                    ts.append(_inside(lo, hi))
                for t in ts:
                    assert (lo < t < hi) == test((m - e.scaled(t)).num_class[0]), \
                        (fan.rays, kind, m.coeffs, e.coeffs, t)
    for seen in kinds.values():
        assert {"empty", "one-sided", "two-sided"} <= seen, kinds


def test_mu_is_the_upper_end_of_the_big_interval():
    fan = testbed("f1")
    classes, e = fan.classes, TDivisor(fan, (1, 0, 0, 0))
    for m in (TDivisor(fan, (1, 1, 1, 1)), TDivisor(fan, (F(1, 2), 3, 0, F(5, 2)))):
        lo, hi = classes.interval(classes.eff_rows, m.num_class, e.num_class)
        assert lo < 0 < hi == mu(fan, m, e)
    with pytest.raises(ValueError, match="^mu requires a big class$"):
        mu(fan, TDivisor(fan, (0, 1, 0, 0)), e)
    with pytest.raises(ValueError, match="^mu is unbounded: E never exits the cone$"):
        mu(fan, TDivisor(fan, (1, 1, 1, 1)), e.scaled(-1))
    with pytest.raises(ValueError, match="^mu is unbounded: E never exits the cone$"):
        mu(fan, TDivisor(fan, (1, 1, 1, 1)), (0, 0))


# --- per-fan class map, nef vertices, ample class ---------------------------

def class_by_solve(fan, coeffs):
    """Oracle: the class map by one rational solve on the pivot rays."""
    free = fan.classes.free_rays
    pivots = [i for i in range(len(fan.rays)) if i not in free]
    a = vec(coeffs)
    u = solve([vec(fan.rays[i]) for i in pivots], [a[i] for i in pivots])
    return tuple(a[i] - dot(u, vec(fan.rays[i])) for i in free)


# a shipped testbed or a blown-up fan
any_fan = st.one_of(
    st.sampled_from(testbed_names()).map(testbed),
    blown_up_fans().map(lambda spec: Fan("blowup", spec[1], spec[2])))


# the hexagon's first two rays span a sublattice of index 2, so its class
# matrix has denominator 2
HEXAGON = Fan("hexagon", [(1, 1), (1, -1), (1, 0), (0, 1), (-1, 0), (0, -1)],
              [(0, 2), (0, 3), (3, 4), (4, 5), (1, 5), (1, 2)])


@seed(2024)
@settings(max_examples=50, deadline=None)
@given(fan=st.one_of(any_fan, st.just(HEXAGON)), data=st.data())
def test_class_map_matches_solve_oracle(fan, data):
    n = len(fan.rays)
    order = data.draw(st.permutations(range(n)))  # other pivot rays
    fan = Fan(fan.name, [fan.rays[i] for i in order],
              [[order.index(i) for i in cone] for cone in fan.max_cones])
    ints = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    for coeffs in (ints, [F(x, 2) for x in ints], [F(-x, 3) + 1 for x in ints]):
        cls = TDivisor(fan, coeffs).cls
        assert cls == class_by_solve(fan, coeffs)
        assert all(type(x) is F for x in cls)
    units = [TDivisor(fan, [int(i == k) for k in range(n)]).cls for i in range(n)]
    den = fan.classes._class_den
    assert units == [tuple(F(x, den) for x in col) for col in zip(*fan.classes._class_rows)]
    assert [tuple(F(a, q) for a in y) for y, q in fan.classes.ray_classes] == units


@seed(2024)
@settings(max_examples=60, deadline=None)
@given(fan=any_fan, data=st.data())
def test_form_on_classes_matches_ray_support_oracle(fan, data):
    n, d = len(fan.rays), fan.dim
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    vectors = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(d)]
    u = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    principal = [sum(x * y for x, y in zip(u, r)) for r in fan.rays]
    moved = [[a + b for a, b in zip(vectors[-1], principal)]] + vectors[:-1]
    want = ray_form(fan, vectors)
    assert ray_form(fan, moved) == want
    for vs in (vectors, moved):
        assert fan.classes.form([TDivisor(fan, v).num_class for v in vs]) == want


def fraction_route_queries(fan, vectors, flag):
    """Oracle: every class query on the classes of `class_by_solve`, in
    Fractions.  The Kleiman rows are the curve degrees, the effective facets
    come from `facets_by_subsets` on the ray classes, and the flag test
    compares the curve degrees level by level."""
    n, d = len(fan.rays), fan.dim
    classes = fan.classes
    cls = class_by_solve(fan, vectors[0])
    rays = [class_by_solve(fan, [int(i == k) for k in range(n)]) for i in range(n)]
    degrees = [dot(row, cls) for row in classes.curve_rows.values()]
    eff = [dot(g, cls) for g in facets_by_subsets(rays, classes.rank)]
    e = rays[flag.ray_indices[0]]
    out = {"nef": min(degrees) >= 0, "ample": min(degrees) > 0, "big": min(eff) > 0,
           "form": ray_form(fan, vectors[:d]), "mu": None}
    if out["big"]:
        out["mu"] = min(dot(g, cls) / dot(g, e) for g in facets_by_subsets(rays, classes.rank)
                        if dot(g, e) > 0)
    ratios = []
    for i in range(d - 1):
        level = [row for tau, row in classes.curve_rows.items()
                 if set(flag.ray_indices[:i]) <= set(tau)]
        avals = [dot(row, rays[flag.ray_indices[i]]) for row in level]
        bvals = [dot(row, cls) for row in level]
        r = next((b / a for a, b in zip(avals, bvals) if a), F(0))
        if any(r * a != b for a, b in zip(avals, bvals)):
            ratios = None
            break
        ratios.append(r)
    out["corresponds"] = (False, None) if ratios is None else (True, tuple(ratios))
    return out


@seed(2024)
@settings(max_examples=60, deadline=None)
@given(fan=st.one_of(any_fan, st.just(HEXAGON)), data=st.data())
def test_class_queries_match_fraction_route(fan, data):
    n, d = len(fan.rays), fan.dim
    entry = st.one_of(st.integers(-2, 4), st.fractions(-2, 4, max_denominator=4))
    vectors = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(d)]
    cone = data.draw(st.sampled_from(fan.max_cones))
    flag = AdmissibleFlag(fan, data.draw(st.permutations(cone)))
    if data.draw(st.booleans()):  # a multiple of O(Y_1), which level 0 admits
        c = data.draw(st.sampled_from([F(1, 3), 1, 2]))
        vectors[0] = [c * (i == flag.ray_indices[0]) for i in range(n)]
    div = TDivisor(fan, vectors[0])
    classes = fan.classes
    want = fraction_route_queries(fan, vectors, flag)
    for y in (div.num_class[0], div.cls):  # integers or Fractions
        assert classes.is_nef(y) == want["nef"]
        assert classes.is_ample(y) == want["ample"]
        assert classes.is_big(y) == want["big"]
    assert classes.form([TDivisor(fan, v).num_class for v in vectors]) == want["form"]
    if want["mu"] is None:
        with pytest.raises(ValueError):
            mu(fan, div, flag.divisor_of_y1())
    else:
        assert mu(fan, div, flag.divisor_of_y1()) == want["mu"]
        assert mu(fan, div, flag.divisor_of_y1().cls) == want["mu"]
    assert flag_corresponds(flag, div) == want["corresponds"]


def test_class_matrix_with_a_denominator():
    assert HEXAGON.classes._class_den == 2
    for coeffs in ([1, 0, 0, 0, 0, 0], [0, F(1, 2), 3, 0, -1, 2]):
        assert TDivisor(HEXAGON, coeffs).cls == class_by_solve(HEXAGON, coeffs)


@seed(2024)
@settings(max_examples=40, deadline=None)
@given(fan=any_fan, data=st.data())
def test_nef_vertices_match_subset_loop(fan, data):
    classes = fan.classes
    weights = data.draw(st.lists(st.sampled_from([0, F(1, 2), 1, 2]),
                                 min_size=len(classes.nef_rays),
                                 max_size=len(classes.nef_rays)))
    nef = tuple(sum(w * r[k] for w, r in zip(weights, classes.nef_rays))
                for k in range(classes.rank))
    ample = tuple(a + b for a, b in zip(nef, classes.ample_class))
    for cls in (nef, ample):
        div = classes.divisor_from_class(cls)
        assert polytope_of_divisor(fan, div) == subset_loop_polytope(fan, div)
    assert polytope_of_divisor(fan, classes.divisor_from_class(ample)).k == fan.dim


@pytest.mark.parametrize("name, coeffs, rank", [
    ("p1xp1", (1, 0, 0, 0), 1),
    ("p1xp1xp1", (0, 0, F(1, 2), 0, 1, 0), 2),
    ("p1xp1xp1", (0, 0, 0, 0, 0, 3), 1),
    ("f1", (1, 0, 0, 0), 1),
    ("blpq-p2", (0, 0, F(5, 2), 0, 0), 1),
])
def test_non_big_nef_polytopes_match_subset_loop(name, coeffs, rank):
    fan = testbed(name)
    div = TDivisor(fan, coeffs)
    assert fan.classes.is_nef(div.cls) and not fan.classes.is_big(div.cls)
    body = polytope_of_divisor(fan, div)
    assert body == subset_loop_polytope(fan, div)
    assert body.k == rank


def _draw_divisor(fan, data, kind):
    """A divisor of the given kind with weights in {0, 1/3, 1/2, 1, 2}, or None
    when the fan has no class of that kind."""
    classes, n = fan.classes, len(fan.rays)
    weights = st.sampled_from([0, F(1, 3), F(1, 2), 1, 2])
    ray = [TDivisor(fan, [int(i == k) for k in range(n)]) for i in range(n)]
    ample = classes.divisor_from_class(classes.ample_class)
    if kind == "nef":
        w = data.draw(st.lists(weights, min_size=len(classes.nef_rays),
                               max_size=len(classes.nef_rays)))
        return classes.divisor_from_class(
            [sum(a * r[k] for a, r in zip(w, classes.nef_rays)) for k in range(classes.rank)])
    if kind == "big, not nef":
        bad = [i for i in range(n) if not classes.is_nef(ray[i].num_class[0])]
        if not bad:
            return None
        div, step = ample, ray[data.draw(st.sampled_from(bad))].scaled(data.draw(weights) or 1)
        while classes.is_nef(div.num_class[0]):
            div, step = div + step, step.scaled(2)
        return div
    coeffs = data.draw(st.lists(weights, min_size=n, max_size=n))
    if kind == "not big":  # effective on the rays of one pseudo-effective facet
        g = data.draw(st.sampled_from(classes.eff_rows))
        return TDivisor(fan, [0 if dot(g, ray[i].num_class[0]) else a
                              for i, a in enumerate(coeffs)])
    div = TDivisor(fan, coeffs)  # empty: pushed out of the pseudo-effective cone
    while boundary_membership(classes, div.num_class[0]) != "outside":
        div = div - ample
    return div


@seed(2024)
@settings(max_examples=120, deadline=None)
@given(fan=any_fan, kind=st.sampled_from(["nef", "big, not nef", "not big", "empty", "free"]),
       data=st.data())
def test_section_polytope_and_body_match_the_subset_loop(fan, kind, data):
    classes, n, d = fan.classes, len(fan.rays), fan.dim
    if kind == "free":
        div = TDivisor(fan, data.draw(st.lists(st.fractions(-2, 3, max_denominator=3),
                                               min_size=n, max_size=n)))
    else:
        div = _draw_divisor(fan, data, kind)
        assume(div is not None)
    # the same class through another representative: D + div(chi^w)
    w = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    div = TDivisor(fan, [a + dot(w, r) for a, r in zip(div.coeffs, fan.rays)])
    y = div.num_class[0]
    assert {"nef": classes.is_nef(y), "big, not nef": classes.is_big(y) and not classes.is_nef(y),
            "not big": not classes.is_big(y), "free": True,
            "empty": boundary_membership(classes, y) == "outside"}[kind]
    oracle = subset_loop_polytope(fan, div)
    body = polytope_of_divisor(fan, div)
    assert (body.L, body.ipts, body.k, body.cols, body.facets, body.volume()) == \
        (oracle.L, oracle.ipts, oracle.k, oracle.cols, oracle.facets, oracle.volume())
    assert body.is_empty() == (kind == "empty") or kind == "free"
    assert (body.k == d) == classes.is_big(y)
    if kind == "nef":  # the d-subset route on a nef class too
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(toric.NumClassSpace, "is_nef", lambda self, y: False)
            assert polytope_of_divisor(fan, div) == oracle
    flag = AdmissibleFlag(fan, data.draw(st.permutations(data.draw(st.sampled_from(
        fan.max_cones)))))
    image = okounkov.body(div, flag).body
    phi = Polytope.hull([tuple(dot(u, fan.rays[i]) + div.coeffs[i] for i in flag.ray_indices)
                         for u in oracle.vertices], dim=d)
    assert (image, image.facets, image.volume()) == (phi, phi.facets, phi.volume())


def test_divisor_class_is_computed_once(monkeypatch):
    fan = testbed("blpq-p2")
    original = toric.NumClassSpace.class_of
    calls = []

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(toric.NumClassSpace, "class_of", counting)
    div = TDivisor(fan, (1, F(3, 2), 1, 1, 1))
    assert div.cls == div.cls == class_by_solve(fan, div.coeffs)
    intersection_number(fan, [div, div])
    polytope_of_divisor(fan, div)
    assert len(calls) == 1
    twin = TDivisor(fan, div.coeffs)  # equal and hashed alike, a new object
    assert twin == div and hash(twin) == hash(div) and len(calls) == 1
    assert twin.cls == div.cls and len(calls) == 2


@seed(2024)
@settings(max_examples=30, deadline=None)
@given(fan=any_fan)
def test_ample_class_is_the_sum_of_nef_rays(fan):
    classes = fan.classes
    assert classes.is_ample(classes.ample_class)
    for ray in classes.nef_rays:
        assert classes.is_nef(ray) and classes.is_ample(ray) == (classes.rank == 1)


def test_auto_sweep_config_on_rank_six_fan(monkeypatch):
    from oklab import additivity, verify

    def forbidden(*args, **kwargs):
        raise AssertionError("the ample class needs no box scan")

    monkeypatch.setattr(additivity, "ample_grid_classes", forbidden)
    rays = [list(r) for r in testbed("p2").rays]
    cones = list(testbed("p2").max_cones)
    for _ in range(5):  # blow up the first torus-fixed point five times
        rays, cones = star_subdivision(rays, cones, cones[0])
    fan = Fan("blowup", rays, cones)
    assert fan.classes.rank == 6
    with pytest.raises(exactgeom.EnumerationBudgetError):
        exactgeom.check_enumeration(7 ** fan.classes.rank, "a bound-3 class box")
    [(order, l_coeffs, m_coeffs)] = verify.auto_sweep_config(fan)
    assert fan.classes.is_ample(TDivisor(fan, m_coeffs).cls)
    assert TDivisor(fan, l_coeffs) == AdmissibleFlag(fan, order).divisor_of_y1()


def facets_by_subsets(generators, dim):
    """Oracle: a facet normal is the kernel of dim - 1 generators that keeps
    every generator on one side."""
    gens = [vec(g) for g in generators]
    if dim == 1:
        return ((1 if gens[0][0] > 0 else -1,),)
    rows = set()
    for sub in combinations(gens, dim - 1):
        kernel = nullspace(list(sub))
        if len(kernel) == 1:
            normal = [x * common_denominator([kernel[0]]) for x in kernel[0]]
            vals = [dot(normal, g) for g in gens]
            for sign in (1, -1):
                if all(sign * v >= 0 for v in vals):
                    rows.add(primitive([int(sign * x) for x in normal]))
    return tuple(sorted(rows))


@seed(2024)
@settings(max_examples=25, deadline=None)
@given(fan=any_fan)
def test_cone_facets_match_subset_facets(fan):
    classes = fan.classes
    assert classes.eff_rows == facets_by_subsets(list(zip(*classes._class_rows)), classes.rank)
    assert classes.nef_rays == facets_by_subsets(classes.nef_rows, classes.rank)


def test_cone_facets_of_flat_and_full_cones():
    # the facets through the apex of conv({0} u gens): a half-plane has one,
    # the whole plane none, and a flat cone's hull is not of full rank
    assert toric._cone_facets([(1, 0), (-1, 0), (0, 1)], 2) == ((0, 1),)
    assert toric._cone_facets([(2, 1), (1, 2), (1, 1)], 2) == ((-1, 2), (2, -1))
    with pytest.raises(FanError, match="not full-dimensional"):
        toric._cone_facets([(1, 0), (2, 0)], 2)
    with pytest.raises(FanError, match="failed"):
        toric._cone_facets([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
