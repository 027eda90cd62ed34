"""Newton-Okounkov engine: bodies, certificates, slices, endpoints."""

import random
from fractions import Fraction as F

import pytest

from graded_oracle import (
    face_tails,
    graded_body,
    level,
    restriction_image,
)
from oklab.exactgeom import Polytope, convex_hull, scale, slice_at
from oklab.inequalities import find_corresponding_flag
from oklab.linalg import common_denominator
from oklab.okounkov import (
    NonBigClassError,
    NotAmpleError,
    mu_endpoint_check,
    nef_body,
    no_body_rational,
    restricted_body,
    slice_formula_check,
)
from oklab.toric import (
    AdmissibleFlag,
    Fan,
    TDivisor,
    flag_corresponds,
    flag_valuation,
    polytope_of_divisor,
    star_model,
    testbed,
)


def verts(*points):
    return tuple(tuple(F(x) for x in p) for p in points)


def flag_of(name, rays):
    fan = testbed(name)
    return fan, AdmissibleFlag(fan, rays)


# --- graded families (the test oracle) -----------------------------------------

def test_family_levels_p2():
    fan, flag = flag_of("p2", (1, 2))
    div = TDivisor(fan, (1, 0, 0))
    assert level(flag, div, 1) == {(0, 0), (1, 0), (0, 1)}
    assert len(level(flag, div, 2)) == 6


def test_family_superadditive():
    fan, flag = flag_of("p1xp1", (0, 2))
    div = TDivisor(fan, (0, 1, 0, 2))
    g1, g2, g3 = (level(flag, div, m) for m in (1, 2, 3))
    sums = {tuple(a + b for a, b in zip(u, v)) for u in g1 for v in g2}
    assert sums <= g3


def test_family_requires_integral_divisor():
    fan, flag = flag_of("p2", (1, 2))
    with pytest.raises(ValueError):
        level(flag, TDivisor(fan, (F(1, 2), 0, 0)), 1)


# --- bodies ------------------------------------------------------------------

def test_curve_segments():
    fan, flag = flag_of("p1", (0,))
    for q in (F(1, 2), 1, 2, 3):
        nb = no_body_rational(TDivisor(fan, (0, q)), flag)
        assert nb.exact
        assert nb.body.vertices == verts((0,), (q,))


def test_p2_body_is_simplex_two_routes():
    fan, flag = flag_of("p2", (1, 2))
    div = TDivisor(fan, (1, 0, 0))
    nb = no_body_rational(div, flag)
    assert nb.exact
    assert nb.body.vertices == verts((0, 0), (0, 1), (1, 0))
    # independent routes: the graded lattice hull, and the affine image of
    # the section polytope's vertices
    assert graded_body(div, flag) == nb.body
    image = convex_hull(
        [flag_valuation(flag, div, u) for u in [(0, 0), (1, 0), (0, 1)]])
    assert nb.body == image


def test_box_body_and_rational_scaling():
    fan, flag = flag_of("p1xp1", (0, 2))
    div = TDivisor(fan, (0, 1, 0, 2))
    nb = no_body_rational(div, flag)
    assert nb.body.vertices == verts((0, 0), (0, 2), (1, 0), (1, 2))
    half = no_body_rational(div.scaled(F(1, 2)), flag)
    assert half.exact
    assert half.body == scale(nb.body, F(1, 2))
    assert no_body_rational(div.scaled(2), flag).body == scale(nb.body, 2)


def test_body_of_rational_p2_class():
    fan, flag = flag_of("p2", (1, 2))
    nb = no_body_rational(TDivisor(fan, (F(1, 2), 0, 0)), flag)
    assert nb.body.vertices == verts((0, 0), (0, F(1, 2)), (F(1, 2), 0))


def test_numerical_invariance():
    fan, flag = flag_of("p1xp1", (0, 2))
    div = TDivisor(fan, (0, 2, 0, 3))
    # add div(chi^w) for w = (1, -2): coefficients shift by <w, v_rho>
    shifted = TDivisor(fan, tuple(
        a + 1 * r[0] + (-2) * r[1] for a, r in zip((0, 2, 0, 3), fan.rays)))
    assert shifted.cls == div.cls
    assert no_body_rational(shifted, flag).body == no_body_rational(div, flag).body


def test_bodies_live_in_nonnegative_orthant():
    fan, flag = flag_of("blpq-p2", (3, 0))
    nb = no_body_rational(TDivisor(fan, (1, 1, 1, 1, 1)), flag)
    assert all(x >= 0 for v in nb.body.vertices for x in v)


def test_no_body_rejects_non_big():
    fan, flag = flag_of("p1xp1", (0, 2))
    with pytest.raises(NonBigClassError):
        no_body_rational(TDivisor(fan, (0, 1, 0, 0)), flag)


def test_nef_body_of_ruling_is_horizontal_segment():
    fan, flag = flag_of("p1xp1", (0, 2))
    nb = nef_body(TDivisor(fan, (0, 1, 0, 0)), flag)
    assert nb.exact
    assert nb.body.vertices == verts((0, 0), (1, 0))
    with pytest.raises(ValueError):
        nef_body(TDivisor(fan, (0, -1, 0, 1)), flag)  # class (-1,1): not nef


def test_f1_nontrivial_body_shape():
    # lambda E + mu(-K) with lambda=1/2, mu=1: trapezoid, checked against
    # the affine image of its section polytope (independent oracle)
    fan, flag = flag_of("f1", (1, 0))
    div = TDivisor(fan, (1, F(3, 2), 1, 1))
    nb = no_body_rational(div, flag)
    assert nb.exact
    p = polytope_of_divisor(fan, div.scaled(2))
    image = convex_hull(
        [flag_valuation(flag, div.scaled(2), tuple(map(int, u)))
         for u in p.vertices])
    assert nb.body == scale(image, F(1, 2))


# --- restricted bodies -------------------------------------------------------

def test_restricted_body_examples():
    fan, flag = flag_of("p1xp1", (0, 2))
    nb = restricted_body(TDivisor(fan, (0, 2, 0, 3)), flag)
    assert nb.body.vertices == verts((0,), (3,))
    p2, flag2 = flag_of("p2", (1, 2))
    nb = restricted_body(TDivisor(p2, (4, 0, 0)), flag2)
    assert nb.body.vertices == verts((0,), (4,))


def test_restricted_body_refuses_non_ample():
    fan, flag = flag_of("p1xp1", (0, 2))
    with pytest.raises(NotAmpleError):
        restricted_body(TDivisor(fan, (0, 1, 0, 0)), flag)
    # the shift can push an ample class out of the ample cone
    with pytest.raises(NotAmpleError):
        restricted_body(TDivisor(fan, (0, 1, 0, 2)), flag, t_shift=1)


def test_restricted_body_needs_dimension_two():
    fan, flag = flag_of("p1", (0,))
    with pytest.raises(ValueError):
        restricted_body(TDivisor(fan, (0, 2)), flag)


def test_restriction_image_matches_star_for_ample():
    fan, flag = flag_of("f1", (1, 0))
    div = TDivisor(fan, (1, 1, 1, 1))
    img, stable = restriction_image(div, flag)
    assert stable
    assert img == restricted_body(div, flag).body
    assert img == slice_at(no_body_rational(div, flag).body, 0)


def test_restriction_image_rational_divisor():
    fan, flag = flag_of("p1xp1", (0, 2))
    div = TDivisor(fan, (-F(1, 2), 2, 0, 3))
    img, stable = restriction_image(div, flag)
    assert stable
    # nu_1 = 0 needs <u, e1> = 1/2: no lattice point at level 1, but level 2
    # contributes; the image is still the segment [0, 3]
    assert img.vertices == verts((0,), (3,))
    assert img == slice_at(no_body_rational(div, flag).body, 0)


# --- slice formula and endpoint ----------------------------------------------

def test_slice_formula_p1xp1():
    fan, flag = flag_of("p1xp1", (0, 2))
    div = TDivisor(fan, (0, 2, 0, 3))
    for t in (0, 1, F(3, 2)):
        ok, witness = slice_formula_check(div, flag, t)
        assert ok and witness is None


def test_slice_formula_p2():
    fan, flag = flag_of("p2", (1, 2))
    ok, _ = slice_formula_check(TDivisor(fan, (2, 0, 0)), flag, 1)
    assert ok


def test_slice_formula_rejects_out_of_range():
    fan, flag = flag_of("p1xp1", (0, 2))
    with pytest.raises(ValueError):
        slice_formula_check(TDivisor(fan, (0, 2, 0, 3)), flag, 2)


def test_mu_endpoint_examples():
    fan, flag = flag_of("p1xp1", (0, 2))
    assert mu_endpoint_check(TDivisor(fan, (0, 4, 0, 7)), flag)
    p2, flag2 = flag_of("p2", (1, 2))
    assert mu_endpoint_check(TDivisor(p2, (3, 0, 0)), flag2)
    assert mu_endpoint_check(TDivisor(p2, (1, 0, 0)), flag2)  # M = O(Y_1)


def test_mu_endpoint_f1():
    fan, flag = flag_of("f1", (1, 0))
    assert mu_endpoint_check(TDivisor(fan, (1, F(1, 2), 1, 1)), flag)


def test_body_serialization():
    fan, flag = flag_of("p1", (0,))
    nb = no_body_rational(TDivisor(fan, (0, F(3, 2))), flag)
    data = nb.to_json()
    assert data["exact"] is True
    assert data["vertices"] == [[[0, 1]], [[3, 2]]]
    assert data["class"] == [[3, 2]]


def test_e1_is_a_valuation_of_o_y1():
    # the canonical section of O(Y_1) has valuation vector e_1; when O(Y_1)
    # is big (P^2) the body itself contains e_1
    p2, flag = flag_of("p2", (1, 2))
    oy1 = flag.divisor_of_y1()
    assert flag_valuation(flag, oy1, (0, 0)) == (1, 0)
    assert no_body_rational(oy1, flag).body.contains_point((1, 0))
    f1, eflag = flag_of("f1", (1, 0))
    assert flag_valuation(eflag, eflag.divisor_of_y1(), (0, 0)) == (1, 0)


def test_bodies_match_section_polytope_images_everywhere():
    # the body against a hand-written affine image of the section polytope
    # under the valuation map, on every testbed
    rnd = random.Random(99)
    for name in ("p2", "p1xp1", "f1", "blpq-p2", "p3", "p1xp1xp1"):
        fan = testbed(name)
        flag = AdmissibleFlag(fan, fan.max_cones[0])
        found = 0
        while found < 5:
            coeffs = tuple(rnd.randint(0, 3) for _ in fan.rays)
            div = TDivisor(fan, coeffs)
            if not (fan.classes.is_nef(div.cls) and fan.classes.is_big(div.cls)):
                continue
            found += 1
            nb = no_body_rational(div, flag)
            p = polytope_of_divisor(fan, div)
            image = convex_hull(
                [tuple(sum(int(u[j]) * fan.rays[i][j] for j in range(fan.dim))
                       + div.coeffs[i] for i in flag.ray_indices)
                 for u in p.vertices])
            assert nb.exact and nb.body == image, (name, coeffs)


def test_flag_corresponds_multiples_of_y1():
    rnd = random.Random(5)
    for name in ("p2", "p1xp1", "f1", "blpq-p2", "p3"):
        fan = testbed(name)
        flag = AdmissibleFlag(fan, fan.max_cones[0])
        r = F(rnd.randint(1, 5), rnd.randint(1, 3))
        ok, ratios = flag_corresponds(fan, flag,
                                      flag.divisor_of_y1().scaled(r))
        assert ok and ratios[0] == r, name


def _random_big_class(rnd, fan, half):
    """Coefficients in {0, .., 2}, or in {0, 1/2, .., 2} with a half, until big."""
    while True:
        if half:
            coeffs = tuple(F(rnd.randint(0, 4), 2) for _ in fan.rays)
            if all(c.denominator == 1 for c in coeffs):
                continue
        else:
            coeffs = tuple(rnd.randint(0, 2) for _ in fan.rays)
        div = TDivisor(fan, coeffs)
        if fan.classes.is_big(div.cls):
            return div


def _contains_scaled(body, points, den):
    """Whether a full-dimensional body holds every v / den, in integers."""
    eqs, ineqs = body.halfspaces()
    assert not eqs
    rows = []
    for n, c in ineqs:
        k = common_denominator([n + (c,)])
        rows.append(([int(x * k) for x in n], int(c * k) * den))
    return all(sum(x * y for x, y in zip(n, v)) <= c
               for v in points for n, c in rows)


def test_closed_form_bodies_match_graded_oracle():
    # differential test against the definition: every maximal cone of every
    # testbed of dimension >= 2, with a shuffled ray order, on integral and
    # half-integral big classes (nef or not)
    rnd = random.Random(2207)
    kinds = {"nef": 0, "not nef": 0}
    for name in ("p2", "p1xp1", "f1", "blpq-p2", "p3", "p1xp1xp1"):
        fan = testbed(name)
        for cone in fan.max_cones:
            order = list(cone)
            rnd.shuffle(order)
            flag = AdmissibleFlag(fan, order)
            for half in (False, True):
                div = _random_big_class(rnd, fan, half)
                body = no_body_rational(div, flag).body
                case = (name, order, div.coeffs)
                p = 2 if half else 1
                # (a) the normalized graded levels m <= 3 lie in the body
                for m in (1, 2, 3):
                    assert _contains_scaled(
                        body, level(flag, div.scaled(p), m), m * p), case
                if not fan.classes.is_nef(div.cls):
                    kinds["not nef"] += 1
                    continue
                kinds["nef"] += 1
                # (b) level one of pD already spans the body of a nef class
                assert scale(graded_body(div.scaled(p), flag, m_max=1),
                             F(1, p)) == body, case
                # (c) the nu_1 = 0 slice is the hull of level-one face points
                face = Polytope.hull(face_tails(fan, flag, div.scaled(p)),
                                     dim=fan.dim - 1)
                assert slice_at(body, 0) == scale(face, F(1, p)), case
    assert kinds["nef"] and kinds["not nef"], kinds


def test_fans_sharing_a_name_share_no_cached_data():
    # a catalog fan may reuse a builtin's name; every memo must tell the two
    # apart, so the alias carrying f1's rays gets f1's bodies
    pp, flag = flag_of("p1xp1", (0, 3))
    first = no_body_rational(TDivisor(pp, (1, 1, 1, 1)), flag)
    assert first.body.vertices == verts((0, 0), (0, 2), (2, 0), (2, 2))
    assert restricted_body(TDivisor(pp, (0, 1, 2, 0)), flag).body.vertices \
        == verts((0,), (2,))
    assert find_corresponding_flag(pp, TDivisor(pp, (1, 0, 0, 0))).ray_indices == (0, 2)
    f1, f1_flag = flag_of("f1", (0, 3))
    alias = Fan("p1xp1", f1.rays, f1.max_cones)
    alias_flag = AdmissibleFlag(alias, (0, 3))
    div = TDivisor(alias, (1, 1, 1, 1))
    nb = no_body_rational(div, alias_flag)
    assert nb.exact
    assert nb.body.vertices == verts((0, 0), (0, 2), (1, 2), (3, 0))
    sm = star_model(alias, alias_flag)
    assert sm.fan is alias and sorted(sm.ray_map) == [1, 3]
    restricted = restricted_body(TDivisor(alias, (0, 1, 2, 0)), alias_flag)
    assert restricted.body.vertices == verts((0,), (1,))
    assert restricted.body == restricted_body(TDivisor(f1, (0, 1, 2, 0)), f1_flag).body
    assert find_corresponding_flag(alias, TDivisor(alias, (1, 0, 0, 0))).ray_indices \
        == (0, 1)
