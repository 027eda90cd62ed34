"""Newton-Okounkov engine: bodies, certificates, slices, endpoints."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction as F
from itertools import permutations, product
from math import ceil, factorial, inf

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blowups import blown_up_fans, seeded_blown_up_fans
from fraction_oracle import dot, subset_loop_polytope
from graded_oracle import (
    face_tails,
    graded_body,
    level,
    restriction_image,
)
from hull_oracle import edge_scan_slice
from oklab import cli, exactgeom, okounkov, toric, verify
from oklab.exactgeom import Polytope, scale, slice_at
from oklab.inequalities import find_corresponding_flag
from oklab.okounkov import (
    NOBody,
    NonBigClassError,
    NotAmpleError,
    ample_interval,
    nef_body,
    no_body_rational,
    restricted_body,
    slice_formula_check,
    slice_formula_checks,
)
from oklab.toric import (
    AdmissibleFlag,
    Fan,
    TDivisor,
    flag_corresponds,
    mu,
    polytope_of_divisor,
    star_model,
    testbed,
    testbed_names,
)
from oklab.verify import SLICE_CONFIGS, SWEEP_CONFIGS


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
    image = Polytope.hull(
        [flag.phi(u, div.ints, 1) for u in [(0, 0), (1, 0), (0, 1)]])
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
    image = Polytope.hull(
        [flag.phi(tuple(map(int, u)), div.scaled(2).ints, 1) for u in p.vertices])
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
    # the shift M - O(Y_1) can push an ample class out of the ample cone
    with pytest.raises(NotAmpleError):
        restricted_body(TDivisor(fan, (0, 1, 0, 2)) - flag.divisor_of_y1(), flag)


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


def per_t_slice_check(m, flag, t):
    """Oracle: the slice formula at t from the body of M and the restricted
    body of the shifted class M - t O(Y_1), each formed from scratch."""
    lhs = slice_at(no_body_rational(m, flag).body, t)
    rhs = restricted_body(m - flag.divisor_of_y1().scaled(t), flag).body
    if lhs == rhs:
        return True, None
    found = rhs.first_outside(lhs) or lhs.first_outside(rhs)
    return False, found[0] if found else None


def assert_grid_matches_per_t(m, flag, ts):
    shifted = [m - flag.divisor_of_y1().scaled(t) for t in ts]
    ample = [t for t, s in zip(ts, shifted) if m.fan.classes.is_ample(s.num_class[0])]
    lo, hi = ample_interval(m, flag)
    assert [t for t in ts if lo < t < hi] == ample
    assert slice_formula_checks(m, flag, ample) \
        == [slice_formula_check(m, flag, t) for t in ample] \
        == [per_t_slice_check(m, flag, t) for t in ample]
    for t in ts:
        if t not in ample:
            with pytest.raises(NotAmpleError):
                slice_formula_check(m, flag, t)
    return ample


@pytest.mark.parametrize("name, flag_rays, mco",
                         [(n, f, m) for n, cases in SLICE_CONFIGS.items() for f, m in cases])
def test_slice_grid_matches_per_t_checks(name, flag_rays, mco):
    fan, flag = flag_of(name, flag_rays)
    m = TDivisor(fan, mco)
    endpoint = mu(fan, m, flag.divisor_of_y1())
    ample = assert_grid_matches_per_t(m, flag, [F(k, 4) for k in range(ceil(endpoint * 4))])
    assert ample and all(ok for ok, _ in slice_formula_checks(m, flag, ample))


@seed(2024)
@settings(max_examples=12, deadline=None)
@given(spec=blown_up_fans(max_blowups=2), data=st.data())
def test_slice_grid_matches_per_t_checks_on_blown_up_fans(spec, data):
    fan = Fan("blowup", spec[1], spec[2])
    flag = AdmissibleFlag(fan, data.draw(st.permutations(data.draw(st.sampled_from(
        fan.max_cones)))))
    m = fan.classes.divisor_from_class(fan.classes.ample_class)
    endpoint = mu(fan, m, flag.divisor_of_y1())
    assert assert_grid_matches_per_t(m, flag, [endpoint * F(k, 5) for k in range(5)])


@pytest.mark.parametrize("name, flag_rays, mco", [
    ("p1xp1", (0, 2), (0, 2, 0, 3)), ("blpq-p2", (4, 1), (2, 1, 2, 1, 1)),
    ("p3", (0, 1, 2), (0, 0, 0, 3)), ("p1xp1xp1", (0, 2, 4), (0, 2, 0, 1, 0, 2))])
def test_a_wrong_ray_body_fails_with_the_per_t_witness(monkeypatch, name, flag_rays, mco):
    # every right side c B gets a vertex beyond its ray body B: the integer
    # comparison must fail at every t, and the witness path must give what
    # the per-t oracle gives from the same wrong bodies
    fan, flag = flag_of(name, flag_rays)
    m = TDivisor(fan, mco)
    monkeypatch.setattr(okounkov, "_BODIES", {})
    ray_body = okounkov._ray_body

    def perturbed(prim, fl):
        if fl.fan.dim == fan.dim:  # the body of M itself
            return ray_body(prim, fl)
        with monkeypatch.context() as aside:  # the true ray body, kept out of the memo
            aside.setattr(okounkov, "_BODIES", {})
            ray = ray_body(prim, fl)
        top = max(ray.body.vertices)
        return NOBody(Polytope.hull(ray.body.vertices + ((top[0] + 1,) + top[1:],)), ray.exact)

    monkeypatch.setattr(okounkov, "_ray_body", perturbed)
    lo, hi = ample_interval(m, flag)
    ts = [t for t in (F(k, 3) for k in range(ceil(mu(fan, m, flag.divisor_of_y1()) * 3)))
          if lo < t < hi]
    results = slice_formula_checks(m, flag, ts)
    assert ts and results == [per_t_slice_check(m, flag, t) for t in ts]
    assert all(not ok and witness is not None for ok, witness in results)


def test_slice_grid_errors():
    fan, flag = flag_of("p1xp1", (0, 2))
    m = TDivisor(fan, (0, 2, 0, 3))  # mu = 2
    for ts in ([-F(1, 2)], [2], [0, F(5, 2)]):
        with pytest.raises(ValueError, match="outside"):
            slice_formula_checks(m, flag, ts)
    assert slice_formula_checks(m, flag, []) == []
    fan, flag = flag_of("f1", (0, 1))
    m = TDivisor(fan, (1, 1, 1, 1))  # mu = 3; M - O(Y_1) is nef, not ample
    with pytest.raises(NotAmpleError):
        slice_formula_check(m, flag, 1)
    with pytest.raises(NotAmpleError):
        slice_formula_checks(m, flag, [0, 1])
    fan, flag = flag_of("f1", (1, 0))
    m = TDivisor(fan, (0, 0, 0, 1))  # nef, not ample; M - t O(Y_1) is ample for 0 < t < 1 = mu
    assert ample_interval(m, flag) == (0, 1)
    assert slice_formula_check(m, flag, F(1, 2)) == (True, None)
    with pytest.raises(NotAmpleError):  # the open end lo = 0
        slice_formula_check(m, flag, 0)


def test_restriction_is_linear_and_the_shift_test_is_the_class_test():
    # the two identities the slice grid rests on, at every flag of every
    # testbed and of ten blown-up fans: restriction is linear, and lo < t < hi
    # for the ample interval iff M - t O(Y_1) is ample, also at finite ends
    rnd, kinds = random.Random(22), set()
    fans = [(testbed(name), 4) for name in testbed_names()] + [
        (fan, 1) for fan in seeded_blown_up_fans(10, 27)]
    for fan, samples in fans:
        if fan.dim < 2:
            continue
        ample = fan.classes.divisor_from_class(fan.classes.ample_class)
        for flag in (AdmissibleFlag(fan, p) for c in fan.max_cones for p in permutations(c)):
            sm, y1 = star_model(flag), flag.divisor_of_y1()
            for _ in range(samples):
                m = ample.scaled(rnd.randint(1, 3)) + TDivisor(
                    fan, [F(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in fan.rays])
                t = F(rnd.randint(-6, 12), rnd.randint(1, 4))
                shifted = m - y1.scaled(t)
                assert sm.restrict_divisor(shifted) \
                    == sm.restrict_divisor(m) - sm.restrict_divisor(y1).scaled(t)
                lo, hi = ample_interval(m, flag)
                for s in [t] + [e for e in (lo, hi) if isinstance(e, F)]:
                    ok = lo < s < hi
                    assert ok == fan.classes.is_ample((m - y1.scaled(s)).num_class[0])
                    kinds.add(ok)
                kinds.add("empty" if lo >= hi else "no lower bound" if lo == -inf else "bounded")
    assert kinds == {True, False, "empty", "no lower bound", "bounded"}


def test_no_divisor_is_built_per_t_on_a_ray_hit(monkeypatch):
    # warm cases: every ray body is memoised, so a grid builds the divisors of
    # its case (the two restrictions) and none per t
    made, misses = [], []
    from_ints, ray_body = TDivisor._from_ints, okounkov._ray_body

    def counting(*args):
        made.append(args)
        return from_ints(*args)

    def missing(prim, fl):
        if ((prim, 1), fl) not in okounkov._BODIES:
            misses.append((prim, fl))
        return ray_body(prim, fl)

    for name, flag_rays, mco in [(n, f, m) for n, cases in SLICE_CONFIGS.items()
                                 for f, m in cases if n in ("p1xp1", "p1xp1xp1")]:
        fan, flag = flag_of(name, flag_rays)
        m = TDivisor(fan, mco)
        lo, hi = ample_interval(m, flag)
        ts = [t for t in (F(k, 6) for k in range(ceil(mu(fan, m, flag.divisor_of_y1()) * 6)))
              if lo < t < hi]
        slice_formula_checks(m, flag, ts)
        counts = []
        for grid in (ts, ts[:1]):
            made.clear()
            with monkeypatch.context() as patched:
                patched.setattr(TDivisor, "_from_ints", staticmethod(counting))
                patched.setattr(okounkov, "_ray_body", missing)
                assert all(ok for ok, _ in slice_formula_checks(m, flag, grid))
            counts.append(len(made))
        assert len(ts) > 3 and misses == [] and counts[0] == counts[1] <= 2


def assert_mu_is_max_nu1(m, flag):
    """The endpoint identity: mu(M; Y_1) from the cone inequalities is the
    largest first coordinate of the certified body of M."""
    nb = no_body_rational(m, flag)
    assert nb.exact
    assert nb.body.first_coordinate_range()[1] == mu(m.fan, m, flag.divisor_of_y1())


def test_mu_endpoint_examples():
    fan, flag = flag_of("p1xp1", (0, 2))
    assert_mu_is_max_nu1(TDivisor(fan, (0, 4, 0, 7)), flag)
    p2, flag2 = flag_of("p2", (1, 2))
    assert_mu_is_max_nu1(TDivisor(p2, (3, 0, 0)), flag2)
    assert_mu_is_max_nu1(TDivisor(p2, (1, 0, 0)), flag2)  # M = O(Y_1)


def test_mu_endpoint_f1():
    fan, flag = flag_of("f1", (1, 0))
    assert_mu_is_max_nu1(TDivisor(fan, (1, F(1, 2), 1, 1)), flag)


def test_slice_case_computes_mu_at_most_twice(monkeypatch):
    # one case: the suite's endpoint record and the grid's own range check
    calls = []
    mu_of_classes = toric.NumClassSpace.mu

    def counting_mu(self, m_class, e_class):
        calls.append((m_class, e_class))
        return mu_of_classes(self, m_class, e_class)

    monkeypatch.setattr(toric.NumClassSpace, "mu", counting_mu)
    monkeypatch.setattr(verify, "SLICE_CONFIGS", {"p2": [((1, 2), (2, 0, 0))]})
    records = verify.suite_slices(verify.RunConfig(fans={"p2": testbed("p2")}))
    assert [r["check"] for r in records][:2] == ["mu-endpoint", "slice-formula"]
    assert all(r["pass"] for r in records)
    assert 1 <= len(calls) <= 2


def body_record(name, flag_rays, coeffs):
    """The body entry of the `oklab body` record of the class."""
    argv = ["body", "--testbed", name, "--flag", "cone:" + ",".join(map(str, flag_rays)),
            "--class=" + ",".join(map(str, coeffs))]
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) in (0, 1)
    return json.loads(out.getvalue())["checks"][0]["body"]


def test_body_serialization():
    data = body_record("p1", (0,), (0, F(3, 2)))
    assert data["exact"] is True
    assert data["vertices"] == [[[0, 1]], [[3, 2]]]
    assert data["class"] == [[3, 2]]


def test_e1_is_a_valuation_of_o_y1():
    # the canonical section of O(Y_1) has valuation vector e_1; when O(Y_1)
    # is big (P^2) the body itself contains e_1
    p2, flag = flag_of("p2", (1, 2))
    oy1 = flag.divisor_of_y1()
    assert flag.phi((0, 0), oy1.ints, 1) == (1, 0)
    assert no_body_rational(oy1, flag).body.contains(Polytope.hull([(1, 0)]))
    f1, eflag = flag_of("f1", (1, 0))
    assert eflag.phi((0, 0), eflag.divisor_of_y1().ints, 1) == (1, 0)


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
            image = Polytope.hull(
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
        ok, ratios = flag_corresponds(flag, flag.divisor_of_y1().scaled(r))
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
    eqs, ineqs = body.integer_halfspaces()
    assert not eqs
    return all(sum(x * y for x, y in zip(n, v)) * body.L <= c * den
               for v in points for n, c, _ in ineqs)


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
    sm = star_model(alias_flag)
    assert sm.flag.fan is alias and sorted(sm.ray_map) == [1, 3]
    assert sm is not star_model(flag)  # the same name and rays (0, 3) on p1xp1
    restricted = restricted_body(TDivisor(alias, (0, 1, 2, 0)), alias_flag)
    assert restricted.body.vertices == verts((0,), (1,))
    assert restricted.body == restricted_body(TDivisor(f1, (0, 1, 2, 0)), f1_flag).body
    assert find_corresponding_flag(alias, TDivisor(alias, (1, 0, 0, 0))).ray_indices \
        == (0, 1)


def test_fans_from_one_spec_keep_separate_bodies(monkeypatch):
    monkeypatch.setattr(okounkov, "_BODIES", {})
    fan = testbed("p1xp1")
    twin = Fan(fan.name, fan.rays, fan.max_cones)
    bodies = [no_body_rational(TDivisor(f, (1, 1, 1, 1)), AdmissibleFlag(f, (0, 2)))
              for f in (fan, twin, fan)]
    assert bodies[0] is bodies[2] and bodies[0] is not bodies[1] and bodies[0] == bodies[1]
    keys = list(okounkov._BODIES)  # the class (2, 2) and its ray (1, 1), per fan
    assert {flag.fan for _, flag in keys} == {fan, twin}
    assert len(keys) == 2 * len({cls for cls, _ in keys}) == 4


# --- the integer image phi(P_D) against the Fraction route ----------------------

def _section_cases():
    for name, specs in SWEEP_CONFIGS.items():
        for flag_rays, lco, mco in specs:
            yield name, flag_rays, lco
            yield name, flag_rays, mco
    for name, specs in SLICE_CONFIGS.items():
        for flag_rays, mco in specs:
            yield name, flag_rays, mco
    # big classes outside the nef cone, with fractional coefficients
    yield "f1", (1, 0), (F(1, 2), 3, 0, F(5, 2))
    yield "blpq-p2", (3, 0), (0, F(1, 3), 1, 1, F(5, 2))


@pytest.mark.parametrize("name, flag_rays, coeffs", list(_section_cases()))
def test_section_image_matches_the_fraction_route(name, flag_rays, coeffs):
    fan = testbed(name)
    flag = AdmissibleFlag(fan, flag_rays)
    div = TDivisor(fan, coeffs)
    if any(isinstance(c, F) for c in coeffs):
        assert fan.classes.is_big(div.cls) and not fan.classes.is_nef(div.cls)
    # phi(u) = (<u, v_i> + a_i)_i over the Fraction vertices of P_D
    oracle = Polytope.hull(
        [tuple(dot(u, fan.rays[i]) + div.coeffs[i] for i in flag.ray_indices)
         for u in subset_loop_polytope(fan, div).vertices], dim=fan.dim)
    body = okounkov.body(div, flag).body
    assert body == oracle
    assert (body.facets, body.volume()) == (oracle.facets, oracle.volume())


def count_hulls(monkeypatch) -> list:
    """The arguments of every `integer_hull` call from here on, in order."""
    hull, calls = exactgeom.integer_hull, []

    def counting(*args):
        calls.append(args)
        return hull(*args)

    for module in (exactgeom, toric, okounkov):
        monkeypatch.setattr(module, "integer_hull", counting)
    return calls


@pytest.mark.parametrize("coeffs", [(1, 1, 1, 1), (0, 1, 0, 0), (F(1, 2), 3, 0, F(5, 2))])
def test_a_cold_body_takes_one_integer_hull(monkeypatch, coeffs):
    # a nef, a non-big nef and a big non-nef class on a fresh fan, so no memo holds it
    f1 = testbed("f1")
    fan = Fan("f1", f1.rays, f1.max_cones)
    fan.classes  # the class space takes its cone facets from hulls of its own
    calls = count_hulls(monkeypatch)
    nb = okounkov.body(TDivisor(fan, coeffs), AdmissibleFlag(fan, (1, 0)))
    assert len(calls) == 1 and nb.body.dim == 2


# --- the ray memo: one hull per (primitive class, flag) --------------------------

RAY_FACTORS = (F(1, 3), F(1, 2), F(2), F(7, 4))


def _principal(fan, m):
    """div(chi^m): the coefficient <m, v_rho> on each ray, of class zero."""
    return TDivisor(fan, [sum(a * x for a, x in zip(m, v)) for v in fan.rays])


def _ray_classes(fan):
    """A nef, a non-big nef, a big non-nef and a zero class of the fan, as
    divisors, where the fan has one; the zero class is a principal divisor."""
    classes = fan.classes
    out = [classes.divisor_from_class(classes.ample_class)]
    out += [classes.divisor_from_class(y) for y in classes.nef_rays if not classes.is_big(y)][:1]
    out += [classes.divisor_from_class(y) for y in product(range(-3, 4), repeat=classes.rank)
            if classes.is_big(y) and not classes.is_nef(y)][:1]
    return out + [_principal(fan, [1 - 2 * j for j in range(fan.dim)])]


def _fresh_body(divisor, flag):
    """phi of the section points of D, hulled here, not through the memo."""
    fan = flag.fan
    L, points = toric.section_points(fan, divisor)
    s = L // divisor.den
    return exactgeom.integer_hull(fan.dim, L, [
        tuple(sum(a * x for a, x in zip(fan.rays[i], p)) + s * divisor.ints[i]
              for i in flag.ray_indices) for p in points])


def _ray_bodies_mismatch(fan, flags):
    """(flag, class) of each c D whose memoised body differs from a fresh
    hull, in its points, facets or volume, or misses d! vol = (c D)^d when
    nef; D runs over `_ray_classes`, c over RAY_FACTORS and 1."""
    bad, d = [], fan.dim
    divisors = [div.scaled(c) for div in _ray_classes(fan) for c in RAY_FACTORS + (1,)]
    for flag in flags:
        for cd in divisors:
            nb, oracle = okounkov.body(cd, flag), _fresh_body(cd, flag)
            ok = (nb.body == oracle
                  and (nb.body.facets, nb.body.volume()) == (oracle.facets, oracle.volume()))
            if fan.classes.is_nef(cd.num_class[0]):
                ok = ok and nb.exact and (factorial(d) * nb.body.volume()
                                          == toric.intersection_number(fan, [cd] * d))
            if not ok:
                bad.append((flag.ray_indices, cd.class_text()))
    return bad


@pytest.mark.parametrize("name", testbed_names())
def test_ray_bodies_match_fresh_hulls_on_every_flag(monkeypatch, name):
    monkeypatch.setattr(okounkov, "_BODIES", {})
    fan = testbed(name)
    kinds = _ray_classes(fan)
    assert kinds[-1].num_class[0] == (0,) * fan.classes.rank and len(kinds) >= 2
    flags = [AdmissibleFlag(fan, order) for cone in fan.max_cones for order in permutations(cone)]
    assert _ray_bodies_mismatch(fan, flags) == []


@seed(2024)
@settings(max_examples=10, deadline=None)
@given(spec=blown_up_fans(max_blowups=2), data=st.data())
def test_ray_bodies_match_fresh_hulls_on_blown_up_fans(spec, data):
    fan = Fan("blowup", spec[1], spec[2])
    flag = AdmissibleFlag(fan, data.draw(st.permutations(data.draw(st.sampled_from(
        fan.max_cones)))))
    assert _ray_bodies_mismatch(fan, [flag]) == []


@pytest.mark.parametrize("name", testbed_names())
def test_the_body_record_states_the_class_of_each_scaled_copy(monkeypatch, name):
    # a cold memo, so each ray is hulled for its first scaled copy, and every
    # later copy is read from the memo: each record states its own class
    monkeypatch.setattr(okounkov, "_BODIES", {})
    fan = testbed(name)
    flag_rays = fan.max_cones[0]
    flag = AdmissibleFlag(fan, flag_rays)
    checked = 0
    for cd in (div.scaled(c) for div in _ray_classes(fan) for c in RAY_FACTORS + (1,)):
        if fan.classes.is_big(cd.num_class[0]):
            data, nb = body_record(name, flag_rays, cd.coeffs), okounkov.body(cd, flag)
            assert data["class"] == [[c.numerator, c.denominator] for c in cd.cls]
            assert data["flag"] == list(flag_rays)
            assert data["vertices"] == [[[x.numerator, x.denominator] for x in v]
                                        for v in nb.body.vertices]
            assert data["exact"] == nb.exact == fan.classes.is_nef(cd.num_class[0])
            checked += 1
    assert checked >= len(RAY_FACTORS) + 1


def test_a_ray_body_returned_unscaled_fails(monkeypatch):
    monkeypatch.setattr(okounkov, "_BODIES", {})
    monkeypatch.setattr(okounkov, "scale", lambda body, c: body)
    fan = testbed("p2")
    assert _ray_bodies_mismatch(fan, [AdmissibleFlag(fan, (1, 2))]) != []


@pytest.mark.parametrize("name, flag_rays, coeffs", [
    ("p1xp1", (0, 2), (0, 2, 0, 3)), ("p2", (1, 2), (2, 0, 0)),
    ("f1", (1, 0), (F(1, 2), 3, 0, F(5, 2))), ("p3", (0, 1, 2), (1, 0, 0, F(3, 2)))])
def test_a_principal_shift_gives_the_same_body(monkeypatch, name, flag_rays, coeffs):
    fan, flag = flag_of(name, flag_rays)
    div = TDivisor(fan, coeffs)
    for m in ([1] * fan.dim, [F(-1, 2)] + [3] * (fan.dim - 1)):
        shifted = div + _principal(fan, m)
        assert shifted != div and shifted.cls == div.cls
        monkeypatch.setattr(okounkov, "_BODIES", {})
        first = okounkov.body(shifted, flag)
        assert okounkov.body(div, flag) == first
        monkeypatch.setattr(okounkov, "_BODIES", {})
        assert okounkov.body(div, flag) == first
        assert first.body.facets == _fresh_body(div, flag).facets


@pytest.mark.parametrize("name, flag_rays, coeffs", [
    ("p1xp1", (0, 2), (0, 1, 0, 2)), ("f1", (1, 0), (1, 1, 1, 1)),
    ("blpq-p2", (3, 0), (0, F(1, 3), 1, 1, F(5, 2))), ("p1xp1xp1", (0, 2, 4), (0, 1, 0, 1, 0, 2))])
def test_ray_bodies_do_not_depend_on_the_order_of_requests(monkeypatch, name, flag_rays, coeffs):
    fan, flag = flag_of(name, flag_rays)
    div = TDivisor(fan, coeffs)
    runs = []
    for order in ((2, 1), (1, 2)):
        monkeypatch.setattr(okounkov, "_BODIES", {})
        bodies = {c: okounkov.body(div.scaled(c), flag) for c in order}
        runs.append({c: (nb, nb.body.facets, nb.body.volume()) for c, nb in bodies.items()})
    assert runs[0] == runs[1]


def test_one_ray_takes_one_hull(monkeypatch):
    fan, flag = flag_of("p3", (0, 1, 2))
    fan.classes
    monkeypatch.setattr(okounkov, "_BODIES", {})
    calls = count_hulls(monkeypatch)
    div = TDivisor(fan, (1, 0, 0, 0))
    bodies = [okounkov.body(div.scaled(c), flag) for c in (1, 2, F(3, 2))]
    assert len(calls) == 1
    assert [nb.body.volume() for nb in bodies] == [F(1, 6), F(8, 6), F(27, 48)]


def test_suite_bodies_slice_as_the_edge_scan():
    # the body of every slices case at every t of its `verify --suite slices`
    # grid and at every vertex level, top level first, so cells are built out of order
    for name, cases in SLICE_CONFIGS.items():
        fan = testbed(name)
        den = 12 if fan.dim < 3 else 4
        for flag_rays, mco in cases:
            body = okounkov.body(TDivisor(fan, mco), AdmissibleFlag(fan, flag_rays)).body
            hi = body.first_coordinate_range()[1]
            ts = {F(j, den) for j in range(ceil(hi * den) + 1)} | {v[0] for v in body.vertices}
            for t in sorted(ts, reverse=True):
                assert exactgeom.slice_vertices(body, t) == edge_scan_slice(body, t)


def test_slices_nef_images_and_moves_take_no_hull(monkeypatch):
    # as only rank >= 4 takes the generic hull loop: a slice reads the cells
    # of its body, a nef image the flag's table, and a moved body the hull
    # data of its source, so none of them takes a hull
    fan, flag = flag_of("p1xp1xp1", (0, 2, 4))
    div = TDivisor(fan, (1, 0, 2, 0, 1, 1))
    body = Polytope.hull(exactgeom.integer_hull(3, *flag.section_image(div)).vertices)

    def forbidden(*args):
        raise AssertionError("section_points called")

    calls = count_hulls(monkeypatch)
    monkeypatch.setattr(toric, "section_points", forbidden)
    assert flag.section_image(div)[1]
    for t in (0, F(1, 2), 1, F(7, 4), 3):
        exactgeom.slice_vertices(body, t)
    moved = body.translate((1, F(1, 2), 0)).embed_prefix(F(1, 3))
    assert moved.edges() == body.edges() and moved.volume() == 0
    assert calls == []


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_one_ray_builds_one_edge_set(monkeypatch, order):
    # D, 2D and (3/2) D are the ray body and its scaled copies: whichever is
    # sliced first builds the edges, and the others read the same tuple
    fan, flag = flag_of("p1xp1", (0, 2))
    monkeypatch.setattr(okounkov, "_BODIES", {})
    div = TDivisor(fan, (0, 1, 0, 2))
    bodies = [okounkov.body(div.scaled(c), flag).body for c in (1, 2, F(3, 2))]
    for i in order:
        exactgeom.slice_vertices(bodies[i], F(1, 2))
    assert len({id(b.edges()) for b in bodies}) == 1


def test_a_cold_slices_suite_takes_few_hulls(monkeypatch):
    # fresh fans, so no memo holds their bodies: 48 hulls, where a slice hull
    # and a body per t took 440
    fans = {name: Fan(name, testbed(name).rays, testbed(name).max_cones)
            for name in testbed_names()}
    calls = count_hulls(monkeypatch)
    records = verify.run_suite("slices", verify.RunConfig(fans=fans))
    assert len(records) > 400 and all(rec["pass"] for rec in records)
    assert len(calls) <= 60


def test_a_cold_cor15_suite_takes_few_hulls(monkeypatch):
    # fresh fans, so no memo holds their bodies: 88 hulls, where a memo per divisor took 708
    fans = {name: Fan(name, testbed(name).rays, testbed(name).max_cones)
            for name in testbed_names()}
    calls = count_hulls(monkeypatch)
    records = verify.run_suite("cor15", verify.RunConfig(fans=fans))
    assert records and all(rec["pass"] for rec in records)
    assert len(calls) <= 100
