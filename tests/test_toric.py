"""Toric backend: fans, cones, intersection numbers, flags, star models."""

import json
from fractions import Fraction as F

import pytest

from graded_oracle import face_tails, lattice_points
from oklab.exactgeom import volume
from oklab.linalg import det_int
from oklab.toric import (
    AdmissibleFlag,
    CurveModel,
    Fan,
    FanError,
    TDivisor,
    boundary_membership,
    flag_corresponds,
    flag_valuation,
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
            assert abs(det_int([list(fan.rays[i]) for i in cone])) == 1


def test_testbed_inventory():
    expected = {"p1": (1, 1), "p2": (2, 1), "p3": (3, 1), "p1xp1": (2, 2),
                "p1xp1xp1": (3, 3), "f1": (2, 2), "blpq-p2": (2, 3)}
    for name, (dim, rho) in expected.items():
        fan = testbed(name)
        assert (fan.dim, fan.classes.rank) == (dim, rho)


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


# --- classes and cones ------------------------------------------------------

def test_p2_class_is_degree():
    p2 = testbed("p2")
    assert p2.classes.class_of((1, 0, 0)) == (1,)
    assert p2.classes.class_of((F(1, 2), 1, 1)) == (F(5, 2),)


def test_blpq_ray_classes_match_hand_computation():
    bl = testbed("blpq-p2")
    expected = [(1, -1, 1), (1, -1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i, want in enumerate(expected):
        coeffs = [1 if j == i else 0 for j in range(5)]
        assert bl.classes.class_of(coeffs) == tuple(F(x) for x in want)


def test_nef_and_eff_cones_p1xp1():
    pp = testbed("p1xp1")
    assert pp.classes.is_ample((1, 1))
    assert pp.classes.is_nef((0, 1)) and not pp.classes.is_ample((0, 1))
    assert pp.classes.is_big((1, 1)) and not pp.classes.is_big((0, 1))


def test_f1_cone_structure():
    f1 = testbed("f1")
    e_cls = f1.classes.class_of((0, 1, 0, 0))
    assert e_cls == (-1, 1)
    assert boundary_membership(f1, e_cls) == "boundary"  # E on the eff boundary
    assert f1.classes.is_ample((1, 1))  # 2H - E
    assert not f1.classes.is_nef(e_cls)


def test_boundary_membership_trichotomy():
    pp = testbed("p1xp1")
    assert boundary_membership(pp, (1, 1)) == "interior"
    assert boundary_membership(pp, (0, 1)) == "boundary"
    assert boundary_membership(pp, (-1, 1)) == "outside"
    assert boundary_membership(pp, (0, 0)) == "boundary"  # apex of the cone


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
    o1 = TDivisor(p2, (1, 0, 0))
    assert flag_valuation(flag, o1, (0, 0)) == (0, 0)
    assert flag_valuation(flag, o1, (1, 0)) == (1, 0)
    pp = testbed("p1xp1")
    fl = AdmissibleFlag(pp, (0, 2))
    assert flag_valuation(fl, TDivisor(pp, (0, 2, 0, 3)), (2, 3)) == (2, 3)


def test_flag_valuation_rejects_outside_points():
    p2 = testbed("p2")
    flag = AdmissibleFlag(p2, (1, 2))
    with pytest.raises(ValueError):
        flag_valuation(flag, TDivisor(p2, (1, 0, 0)), (2, 0))


def test_flag_valuation_injective_and_nonnegative():
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, (3, 0))
    div = TDivisor(bl, (1, 1, 1, 1, 1))
    pts = lattice_points(bl, div)
    vals = [flag_valuation(flag, div, u) for u in pts]
    assert len(set(vals)) == len(pts)
    assert all(x >= 0 for v in vals for x in v)


def test_face_lattice_tails_matches_filtered_enumeration():
    bl = testbed("blpq-p2")
    flag = AdmissibleFlag(bl, (3, 0))
    div = TDivisor(bl, (2, 1, 2, 1, 1))
    by_filter = sorted(
        flag_valuation(flag, div, u)[1:]
        for u in lattice_points(bl, div)
        if flag_valuation(flag, div, u)[0] == 0)
    assert sorted(tuple(map(F, t)) for t in face_tails(bl, flag, div)) \
        == by_filter


def test_admissible_flag_requires_maximal_cone():
    pp = testbed("p1xp1")
    with pytest.raises(ValueError):
        AdmissibleFlag(pp, (0, 1))  # opposite rays: not a cone


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
    assert intersection_number(p3, [h, h, h]) == 6 * volume(body) == 8


def test_intersection_rejects_non_nef():
    f1 = testbed("f1")
    e = TDivisor(f1, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        intersection_number(f1, [e, e])


def test_wall_self_intersections_on_f1():
    # E^2 = -1, fiber^2 = 0, (+1)-section^2 = +1, read off the wall relations
    f1 = testbed("f1")
    walls = {tuple(sorted(w.rays)): w for w in f1.walls()}
    def self_int(ray):
        coeffs = [1 if i == ray else 0 for i in range(4)]
        return walls[(ray,)].curve_intersection(coeffs)
    assert self_int(1) == -1
    assert self_int(0) == 0 and self_int(2) == 0
    assert self_int(3) == 1


# --- flag correspondence ----------------------------------------------------

def test_flag_corresponds_examples():
    p2 = testbed("p2")
    assert flag_corresponds(p2, AdmissibleFlag(p2, (1, 2)),
                            TDivisor(p2, (1, 0, 0))) == (True, (1,))
    pp = testbed("p1xp1")
    fl = AdmissibleFlag(pp, (0, 2))
    assert flag_corresponds(pp, fl, TDivisor(pp, (0, 1, 0, 0))) == (True, (1,))
    ok, ratios = flag_corresponds(pp, fl, TDivisor(pp, (0, 1, 0, 1)))
    assert not ok and ratios is None


def test_flag_corresponds_deeper_levels():
    p3 = testbed("p3")
    assert flag_corresponds(p3, AdmissibleFlag(p3, (0, 1, 2)),
                            TDivisor(p3, (0, 0, 0, 1))) == (True, (1, 1))
    ppp = testbed("p1xp1xp1")
    ok, ratios = flag_corresponds(ppp, AdmissibleFlag(ppp, (0, 2, 4)),
                                  TDivisor(ppp, (0, 1, 0, 0, 0, 0)))
    assert ok and ratios == (1, 0)  # restriction to Y_1 is numerically trivial


def test_flag_corresponds_d1_is_vacuous():
    p1 = testbed("p1")
    assert flag_corresponds(p1, AdmissibleFlag(p1, (0,)),
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
    sm = star_model(pp, AdmissibleFlag(pp, (0, 2)))
    assert sm.star_fan.dim == 1
    restricted = sm.restrict_divisor(TDivisor(pp, (0, 2, 0, 3)))
    assert sum(restricted.coeffs) == 3  # degree of O(2,3) on a ruling


def test_star_model_f1_exceptional():
    f1 = testbed("f1")
    sm = star_model(f1, AdmissibleFlag(f1, (1, 0)))
    assert sm.star_fan.dim == 1
    restricted = sm.restrict_divisor(TDivisor(f1, (1, 1, 1, 1)))
    assert sum(restricted.coeffs) == 1  # (-K).E = 1 on the (-1)-curve


def test_star_model_threefold():
    ppp = testbed("p1xp1xp1")
    sm = star_model(ppp, AdmissibleFlag(ppp, (0, 2, 4)))
    assert sm.star_fan.dim == 2
    assert len(sm.star_fan.rays) == 4  # a quadric surface
    restricted = sm.restrict_divisor(TDivisor(ppp, (0, 2, 0, 1, 0, 3)))
    assert sm.star_fan.classes.class_of(restricted.coeffs) == (1, 3)


# --- curve backend ----------------------------------------------------------

def test_curve_model():
    assert CurveModel.body_of(3).vertices == verts((0,), (3,))
    assert CurveModel.body_of(F(3, 2)).vertices == verts((0,), (F(3, 2),))
    assert CurveModel.volume_of(F(5, 2)) == F(5, 2)
    with pytest.raises(ValueError):
        CurveModel.body_of(0)


def test_curve_model_agrees_with_p1_fan():
    p1 = testbed("p1")
    flag = AdmissibleFlag(p1, (0,))
    from oklab.okounkov import no_body_rational
    for q in (1, 2, F(3, 2)):
        assert no_body_rational(TDivisor(p1, (0, q)), flag).body \
            == CurveModel.body_of(q)


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


def test_mu_positive_for_ample_with_effective_e():
    for name in ("p2", "p1xp1", "f1", "blpq-p2"):
        fan = testbed(name)
        flag = AdmissibleFlag(fan, fan.max_cones[0])
        e_cls = flag.divisor_of_y1().cls
        amp = next(c for c in __import__("oklab.additivity",
                                         fromlist=["ample_grid_classes"])
                   .ample_grid_classes(fan, bound=4))
        assert mu(fan, fan.classes.divisor_from_class(amp), e_cls) > 0
