"""Exact convex-body arithmetic: frozen examples plus algebraic laws."""

from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import ceil, factorial, floor
from operator import mul

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from fraction_oracle import (adjugate_halfspaces, common_denominator, dot, fraction_halfspaces,
                             nullspace, rref, solve)
from hull_oracle import (all_pairs_slice, cofactor_det, edge_scan_slice, simplicial_hull,
                         union_hull_contains)
from oklab import exactgeom
from oklab.exactgeom import (
    DimensionMismatch,
    Polytope,
    _planar_hull,
    _simplicial_hull,
    _spatial_hull,
    integer_hull,
    minkowski_sum,
    mixed_volume,
    mixed_volume_by_polarization,
    scale,
    slice_at,
    slice_vertices,
)
from oklab.linalg import adjugate, cross_normal_int, independent_rows, integer_row


def rank(rows):
    """Rank of a rational matrix: its rows scaled to integers, then one
    fraction-free elimination."""
    return len(independent_rows(integer_row(row)[0] for row in rows))


def simplicial_hull_from_base(ipts, loop=_simplicial_hull):
    """The hull loop (`_simplicial_hull` by default) on the base simplex
    `integer_hull` passes it: the first point and those of the greedy
    independent differences from it."""
    base = [0] + [i + 1 for i, _, _ in independent_rows(
        [x - y for x, y in zip(p, ipts[0])] for p in ipts[1:])]
    return loop(ipts, base)


UNIT_SQUARE = Polytope.hull([(0, 0), (1, 0), (0, 1), (1, 1)])
UNIT_SIMPLEX = Polytope.hull([(0, 0), (1, 0), (0, 1)])


def verts(*points):
    return tuple(tuple(F(x) for x in p) for p in points)


# --- Polytope.hull ---------------------------------------------------------

def test_hull_removes_interior_point():
    p = Polytope.hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 4))])
    assert p.vertices == verts((0, 0), (0, 1), (1, 0))


def test_hull_single_point():
    p = Polytope.hull([(0, 0)])
    assert p.vertices == verts((0, 0))
    assert p.volume() == 0


def test_hull_of_doubled_simplex_lattice_points():
    # oracle: the six lattice points with i + j <= 2, listed by hand
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]
    p = Polytope.hull(pts)
    assert p.vertices == verts((0, 0), (0, 2), (2, 0))


def test_hull_idempotent_and_pure():
    pts = [(0, 0), (3, 1), (1, 3), (2, 2), (0, 0)]
    a = Polytope.hull(pts)
    b = Polytope.hull(a.vertices)
    assert a == b and a.vertices == b.vertices


def test_hull_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Polytope.hull([(0, 0), (1, 0, 0)])


def test_hull_3d_box_from_many_points():
    pts = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    p = Polytope.hull(pts)
    assert len(p.vertices) == 8
    assert p.volume() == 8


# --- minkowski_sum ---------------------------------------------------------

def test_minkowski_square_plus_square():
    s = minkowski_sum(UNIT_SQUARE, UNIT_SQUARE)
    assert s == scale(UNIT_SQUARE, 2)


def test_minkowski_square_plus_segment():
    seg = Polytope.hull([(0, 0), (1, 0)])
    s = minkowski_sum(UNIT_SQUARE, seg)
    assert s.vertices == verts((0, 0), (0, 1), (2, 0), (2, 1))


def test_minkowski_translation_and_neutral():
    v = Polytope.hull([(F(5, 2), -3)])
    p = Polytope.hull([(0, 0), (1, 2), (2, 0)])
    assert minkowski_sum(p, v).vertices == verts(
        (F(5, 2), -3), (F(7, 2), -1), (F(9, 2), -3))
    zero = Polytope.hull([(0, 0)])
    assert minkowski_sum(p, zero) == p


def test_minkowski_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        minkowski_sum(UNIT_SQUARE, Polytope.hull([(0,), (1,)]))


def test_minkowski_with_empty_is_empty():
    assert minkowski_sum(UNIT_SQUARE, Polytope.empty(2)).is_empty()


# --- scale -----------------------------------------------------------------

def test_scale_examples():
    assert scale(UNIT_SIMPLEX, 3).vertices == verts((0, 0), (0, 3), (3, 0))
    assert scale(UNIT_SIMPLEX, 0).vertices == verts((0, 0))
    rect = Polytope.hull([(0, 0), (2, 0), (0, 3), (2, 3)])
    assert scale(rect, F(1, 2)).vertices == verts(
        (0, 0), (0, F(3, 2)), (1, 0), (1, F(3, 2)))
    assert scale(UNIT_SQUARE, 1) == UNIT_SQUARE


def test_scale_negative_rejected():
    with pytest.raises(ValueError):
        scale(UNIT_SQUARE, -1)


# --- volume ----------------------------------------------------------------

def test_volume_examples():
    assert UNIT_SQUARE.volume() == 1
    assert Polytope.hull([(0, 0), (2, 0), (0, 2)]).volume() == 2
    assert Polytope.hull([(0, 0), (1, 1)]).volume() == 0  # lower-dimensional
    assert Polytope.empty(2).volume() == 0


def test_volume_tetrahedron():
    assert Polytope.hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]).volume() == F(1, 6)


# --- mixed_volume ----------------------------------------------------------

def test_mixed_volume_multilinearity_example():
    assert mixed_volume([UNIT_SQUARE, scale(UNIT_SQUARE, 2)]) == 2


def test_mixed_volume_square_segment():
    # polarization by hand: vol([0,1]x[0,2]) - vol(square) - vol(segment)
    # = 2 - 1 - 0, halved
    seg = Polytope.hull([(0, 0), (0, 1)])
    assert mixed_volume([UNIT_SQUARE, seg]) == F(1, 2)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_mixed_volume_rectangles_closed_form(a, b, c, e):
    # brute-force polarization oracle for boxes: ((a+c)(b+e) - ab - ce)/2
    r1 = Polytope.hull([(0, 0), (a, 0), (0, b), (a, b)])
    r2 = Polytope.hull([(0, 0), (c, 0), (0, e), (c, e)])
    oracle = F((a + c) * (b + e) - a * b - c * e, 2)
    assert oracle == F(a * e + b * c, 2)
    assert mixed_volume([r1, r2]) == oracle


def test_mixed_volume_errors():
    with pytest.raises(ValueError):
        mixed_volume([UNIT_SQUARE])
    with pytest.raises(ValueError):
        mixed_volume([UNIT_SQUARE, Polytope.empty(2)])


def test_mixed_volume_diagonal_is_volume_3d():
    tet = Polytope.hull([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert mixed_volume([tet, tet, tet]) == tet.volume()


# --- slice_at --------------------------------------------------------------

def test_slice_examples():
    rect = Polytope.hull([(0, 0), (2, 0), (0, 3), (2, 3)])
    assert slice_at(rect, 1).vertices == verts((0,), (3,))
    tri = Polytope.hull([(0, 0), (2, 0), (0, 2)])
    # halfspace oracle: {x : (1, x) in tri} = [0, 1]
    assert slice_at(tri, 1).vertices == verts((0,), (1,))
    assert slice_at(rect, F(5, 2)).is_empty()
    assert slice_vertices(Polytope.empty(2), 0) == (1, [])


def test_slice_requires_dim_two():
    with pytest.raises(ValueError):
        slice_at(Polytope.hull([(0,), (1,)]), F(1, 2))


def test_slice_fubini_rectangle():
    # product body: every slice has the same length, so volume = width * slice
    rect = Polytope.hull([(0, 0), (F(7, 2), 0), (0, F(5, 3)), (F(7, 2), F(5, 3))])
    s = slice_at(rect, F(1, 3))
    assert rect.volume() == F(7, 2) * s.volume() == F(35, 6)


# --- equality / membership -------------------------------------------------

def test_equals_examples():
    hull_with_center = Polytope.hull(
        [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))])
    assert UNIT_SQUARE == hull_with_center
    assert UNIT_SIMPLEX != UNIT_SQUARE
    assert UNIT_SQUARE == minkowski_sum(UNIT_SQUARE, Polytope.hull([(0, 0)]))


def test_membership_lower_dimensional():
    seg = Polytope.hull([(0, 0), (2, 2)])
    assert seg.contains(Polytope.hull([(1, 1)]))
    assert not seg.contains(Polytope.hull([(1, 0)]))
    assert not seg.contains(Polytope.hull([(3, 3)]))


def test_halfspace_representation_roundtrip():
    p = Polytope.hull([(0, 0), (4, 0), (0, 4), (3, 3)])
    eqs, ineqs = p.integer_halfspaces()
    assert not eqs
    for v in p.vertices:
        assert p.contains(Polytope.hull([v]))
    assert not p.contains(Polytope.hull([(4, 4)]))


def _h_contains(body, points):
    """Oracle: every point meets the equalities and inequalities that
    `integer_halfspaces` gives, checked on Fractions; no point lies in the empty body."""
    if body.is_empty():
        return not points
    eqs, ineqs = fraction_halfspaces(body)
    return all(all(dot(n, q) == c for n, c in eqs) and all(dot(n, q) <= c for n, c in ineqs)
               for q in points)


def _draw_body_and_other(d, k, data):
    """(P, Q, points of Q): P spans an affine k-flat (k = -1: empty); Q is
    part of P, lies on its flat, lies anywhere, or is empty; coordinates
    carry mixed denominators."""
    cols = data.draw(st.permutations(range(d)))
    dirs = [[int(j == cols[i]) if j in cols[:i + 1] else data.draw(st.integers(-2, 2))
             for j in range(d)] for i in range(max(k, 0))]  # rank k: unit pivots
    p0 = data.draw(st.tuples(*[small_coords] * d))

    def on_flat(combos):
        return [tuple(x + sum(c * v[j] for c, v in zip(cs, dirs)) for j, x in enumerate(p0))
                for cs in combos]

    corners = [[F(int(i == j)) for j in range(k)] for i in range(k)] + [[F(0)] * k]
    combos = st.lists(st.lists(coords, min_size=k, max_size=k), max_size=4)
    pts = on_flat(corners + data.draw(combos)) if k >= 0 else []
    body = Polytope.hull(pts, dim=d)
    assert body.k == k
    kind = data.draw(st.sampled_from(["part", "flat", "anywhere", "empty"]))
    if k < 0 and kind in ("part", "flat"):
        kind = "anywhere"
    if kind == "part":
        chosen = data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))
        others = [tuple((a + b) / 2 for a, b in zip(chosen[0], q)) for q in pts]
        inner = chosen + others[:data.draw(st.integers(0, len(others)))]
    elif kind == "flat":
        inner = on_flat(data.draw(st.lists(st.lists(coords, min_size=k, max_size=k),
                                           min_size=1, max_size=3)))
    elif kind == "empty":
        inner = []
    else:
        inner = data.draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=3))
    other = Polytope.hull(inner, dim=d)
    assert kind != "part" or union_hull_contains(body, other)
    return body, other, inner


rank_cases = pytest.mark.parametrize("d,k", [(d, k) for d in range(1, 5) for k in range(-1, d + 1)])


@seed(2024)
@rank_cases
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_hull_containment_matches_halfspaces(d, k, data):
    body, other, inner = _draw_body_and_other(d, k, data)
    expected = union_hull_contains(body, other)
    assert body.contains(other) == _h_contains(body, other.vertices) == expected
    for q in inner:
        assert body.contains(Polytope.hull([q])) == _h_contains(body, [q]) \
            == union_hull_contains(body, Polytope.hull([q]))
    if not body.is_empty():
        assert fraction_halfspaces(body) == adjugate_halfspaces(body)


@seed(2024)
@rank_cases
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_first_outside_names_a_vertex_and_a_halfspace_it_breaks(d, k, data):
    body, other, _ = _draw_body_and_other(d, k, data)
    found = body.first_outside(other)
    assert (found is None) == union_hull_contains(body, other)
    if found is None:
        return
    x, broken = found
    assert x in other.vertices
    earlier = other.vertices[:other.vertices.index(x)]
    assert all(union_hull_contains(body, Polytope.hull([v])) for v in earlier)
    if body.is_empty():
        assert x == other.vertices[0] and broken is None
        return
    eqs, ineqs = fraction_halfspaces(body)
    n, c = broken
    if broken in eqs:  # the first halfspace x breaks, equalities first
        assert dot(n, x) != c and all(dot(m, x) == e for m, e in eqs[:eqs.index(broken)])
        assert all(dot(n, v) == c for v in body.vertices)
    else:
        assert dot(n, x) > c and all(dot(m, x) == e for m, e in eqs)
        assert all(dot(m, x) <= e for m, e in ineqs[:ineqs.index(broken)])
        assert all(dot(n, v) <= c for v in body.vertices)


def test_containment_takes_no_hull_and_no_sum(monkeypatch):
    bodies = [UNIT_SQUARE, Polytope.hull([(0, 0), (2, 2)]), Polytope.hull([(F(1, 2), F(1, 3))]),
              Polytope.empty(2), Polytope.hull([(0, 0), (F(3, 2), 0), (0, F(3, 2))])]
    points = [Polytope.hull([q]) for q in ((0, 0), (1, 1), (F(1, 2), F(1, 3)), (F(7, 4), 0))]
    calls = []

    def counting(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    monkeypatch.setattr(exactgeom, "integer_hull", counting("hull", exactgeom.integer_hull))
    monkeypatch.setattr(exactgeom, "minkowski_sum", counting("sum", exactgeom.minkowski_sum))
    for body in bodies:
        for other in bodies:
            body.contains(other)
            body.first_outside(other)
        for point in points:
            body.contains(point)
    assert calls == []


def test_containment_refuses_a_dimension_mismatch():
    for body in (UNIT_SQUARE, Polytope.empty(2)):
        with pytest.raises(DimensionMismatch):
            body.contains(Polytope.hull([(0, 0, 0)]))
        with pytest.raises(DimensionMismatch):
            body.contains(Polytope.empty(3))
    assert UNIT_SQUARE.contains(Polytope.empty(2))
    assert not Polytope.empty(2).contains(Polytope.hull([(0, 0)]))


# --- property-based laws ---------------------------------------------------

coords = st.fractions(min_value=-4, max_value=4, max_denominator=4)
points2 = st.tuples(coords, coords)


@given(st.lists(points2, min_size=1, max_size=6),
       st.lists(points2, min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_hull_inclusion_monotone(base, extra):
    small = Polytope.hull(base)
    big = Polytope.hull(base + extra)
    assert big.contains(small)


@given(st.lists(points2, min_size=1, max_size=5),
       st.lists(points2, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_minkowski_volume_expansion_plane(ps, qs):
    k = Polytope.hull(ps)
    l = Polytope.hull(qs)
    lhs = minkowski_sum(k, l).volume()
    rhs = k.volume() + 2 * mixed_volume([k, l]) + l.volume()
    assert lhs == rhs


@given(st.lists(points2, min_size=1, max_size=4),
       st.lists(points2, min_size=1, max_size=4),
       st.lists(points2, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_mixed_volume_symmetric_and_multilinear(ps, qs, rs):
    k = Polytope.hull(ps)
    l = Polytope.hull(qs)
    m = Polytope.hull(rs)
    assert mixed_volume([k, l]) == mixed_volume([l, k])
    assert mixed_volume([k, k]) == k.volume()
    # polarization vs multilinear expansion
    assert mixed_volume([minkowski_sum(k, m), l]) == \
        mixed_volume([k, l]) + mixed_volume([m, l])


@given(st.lists(points2, min_size=2, max_size=5), coords)
@settings(max_examples=40, deadline=None)
def test_scale_volume_and_hull_commute(ps, c):
    if c < 0:
        c = -c
    p = Polytope.hull(ps)
    assert scale(p, c).volume() == c * c * p.volume()
    assert scale(p, c) == Polytope.hull([(c * x, c * y) for x, y in ps])


# --- brute-force oracle fuzzing ---------------------------------------------

def _in_hull_oracle(point, points):
    """Caratheodory brute force: point lies in conv(points) iff it has
    nonnegative barycentric coordinates over some affinely independent
    subset of size <= d+1.  Independent of the incremental hull."""
    from itertools import combinations

    d = len(point)
    pts = list(points)
    for size in range(1, d + 2):
        for sub in combinations(pts, size):
            rows = [[F(sub[j][i]) for j in range(size)] for i in range(d)]
            rows.append([F(1)] * size)
            lam = solve(rows, [F(x) for x in point] + [F(1)])
            if lam is None:
                continue
            if all(l >= 0 for l in lam) and \
                    all(sum(lam[j] * sub[j][i] for j in range(size)) == point[i]
                        for i in range(d)):
                return True
    return False


coords3 = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# degenerate-prone generator: coordinates drawn from a tiny set
flat_coords = st.sampled_from([F(0), F(1), F(2), F(1, 2)])


@given(st.lists(st.tuples(coords3, coords3, coords3), min_size=1, max_size=7))
@settings(max_examples=40, deadline=None)
def test_hull_vertices_match_oracle_3d(pts):
    hull = Polytope.hull(pts)
    pts = list({tuple(map(F, p)) for p in pts})
    for p in pts:
        others = [q for q in pts if q != p]
        expect_vertex = not others or not _in_hull_oracle(p, others)
        assert (p in hull.vertices) == expect_vertex
        assert hull.contains(Polytope.hull([p]))


@given(st.lists(st.tuples(flat_coords, flat_coords, flat_coords),
                min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_hull_handles_degenerate_configurations(pts):
    # many coincident / collinear / coplanar points
    hull = Polytope.hull(pts)
    dedup = {tuple(map(F, p)) for p in pts}
    assert set(hull.vertices) <= dedup
    for p in dedup:
        assert hull.contains(Polytope.hull([p]))
    # every vertex is extreme per the oracle
    for v in hull.vertices:
        others = [q for q in dedup if q != v]
        assert not others or not _in_hull_oracle(v, others)
    # the facets and volume kept from the hull of all the points match the
    # ones recomputed from the vertices alone
    again = hull.translate((0, 0, 0))
    assert again.volume() == hull.volume()
    assert again.integer_halfspaces() == hull.integer_halfspaces()


@given(st.lists(st.tuples(coords3, coords3), min_size=3, max_size=7),
       st.fractions(min_value=-2, max_value=2, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_slice_against_membership_oracle(pts, t):
    hull = Polytope.hull(pts)
    sl = slice_at(hull, t)
    for v in sl.vertices:
        assert hull.contains(Polytope.hull([(t,) + v]))
    for p in {tuple(map(F, q)) for q in pts}:
        if p[0] == t:
            assert sl.contains(Polytope.hull([p[1:]]))


@given(st.lists(st.tuples(coords3, coords3, coords3), min_size=1, max_size=5),
       st.lists(st.tuples(coords3, coords3, coords3), min_size=1, max_size=5),
       st.lists(st.tuples(coords3, coords3, coords3), min_size=1, max_size=5))
@settings(max_examples=20, deadline=None)
def test_mixed_volume_nonnegative_3d(ps, qs, rs):
    bodies = [Polytope.hull(ps), Polytope.hull(qs), Polytope.hull(rs)]
    assert mixed_volume(bodies) >= 0


# --- differential tests against the kept routes ------------------------------

# half- and third-integral coordinates from a small set, so duplicates and
# collinear triples are common
grid_coords = st.sampled_from([F(n, den) for den in (1, 2, 3) for n in range(-3, 4)])
grid_points2 = st.tuples(grid_coords, grid_coords)


def _integer_points(pts):
    pts = sorted({tuple(map(F, p)) for p in pts})
    den = common_denominator(pts)
    return pts, [tuple(x.numerator * (den // x.denominator) for x in p) for p in pts]


def _assert_chain_matches_beneath_beyond(ipts):
    ring, facets, area2 = _planar_hull(ipts)
    keep, oracle_facets, oracle_area2 = simplicial_hull_from_base(ipts)
    assert sorted(ring) == sorted(keep)
    assert facets == oracle_facets
    assert area2 == oracle_area2


@seed(2024)
@given(st.lists(grid_points2, min_size=3, max_size=12))
@settings(max_examples=120, deadline=None)
def test_monotone_chain_matches_beneath_beyond(pts):
    pts, ipts = _integer_points(pts)
    assume(len(pts) >= 3 and rank([[x - y for x, y in zip(p, ipts[0])]
                                   for p in ipts[1:]]) == 2)
    _assert_chain_matches_beneath_beyond(ipts)


@seed(2024)
@given(st.lists(grid_points2, min_size=1, max_size=10),
       st.sampled_from([(1, 0, 2), (0, 1, -1), (1, 1, 0), (2, -1, 1)]),
       st.sampled_from([(0, 1, 1), (1, 0, 0), (1, -1, 3), (-1, 2, 0)]),
       grid_points2.map(lambda q: q + (F(1, 2),)))
@settings(max_examples=80, deadline=None)
def test_planar_sets_embedded_in_space(pts, a, b, offset):
    # x -> x0 a + x1 b + offset is injective: a and b are independent
    def embed(x):
        return tuple(x[0] * u + x[1] * v + o for u, v, o in zip(a, b, offset))

    flat = Polytope.hull(pts)
    space = Polytope.hull([embed(p) for p in pts])
    assert space.vertices == tuple(sorted(embed(v) for v in flat.vertices))
    assert space.k == flat.k and space.volume() == 0
    pts, ipts = _integer_points(pts)
    if flat.k == 2:
        keep, _, _ = simplicial_hull_from_base(ipts)
        assert flat.vertices == tuple(sorted(pts[i] for i in keep))
        # the chain runs on the pivot coordinates of the embedded set
        _, ispace = _integer_points([embed(p) for p in pts])
        cols = space.cols
        _assert_chain_matches_beneath_beyond([tuple(p[c] for c in cols) for p in ispace])
    for p in pts:
        assert space.contains(Polytope.hull([embed(p)]))
    assert not space.contains(Polytope.hull([embed((F(9), F(9)))]))


small_coords = st.integers(-2, 2).map(F) | st.sampled_from([F(1, 2), F(-1, 3)])


@seed(2024)
@given(st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_two_body_mixed_volume_matches_polarization(d, data):
    # sizes 1 and 2 give points and segments; small coordinates often give
    # lower-dimensional bodies
    body = st.lists(st.tuples(*[small_coords] * d), min_size=1, max_size=5).map(Polytope.hull)
    k_body, l_body = data.draw(body), data.draw(body)
    for j in range(d + 1):
        bodies = [k_body] * j + [l_body] * (d - j)
        assert mixed_volume(bodies) == mixed_volume_by_polarization(bodies)


def _body_of_rank(data, d, k):
    """The hull of a few points p0 + sum_i c_i v_i over k integer directions:
    affine rank at most k, usually exactly k."""
    p0 = data.draw(st.tuples(*[small_coords] * d))
    dirs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=k, max_size=k))
    combos = data.draw(st.lists(st.tuples(*[small_coords] * k), min_size=k + 1, max_size=k + 2))
    return Polytope.hull([tuple(x + sum(c * v[i] for c, v in zip(cs, dirs))
                                for i, x in enumerate(p0)) for cs in combos])


scale_factors = st.sampled_from([F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3)])


@seed(2024)
@given(st.integers(2, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_slice_through_the_edges_matches_the_all_pairs_oracle(d, data):
    # every affine rank, and t at a vertex level as often as not
    body = _body_of_rank(data, d, data.draw(st.integers(0, d)))
    lo, hi = body.first_coordinate_range()
    levels = sorted({v[0] for v in body.vertices})
    t = data.draw(st.sampled_from(levels) | st.fractions(lo - 1, hi + 1, max_denominator=6))
    oracle = integer_hull(d - 1, *all_pairs_slice(body, t))
    sliced = slice_at(body, t)
    assert sliced == oracle
    assert (sliced.k, sliced.facets, sliced.volume()) == (oracle.k, oracle.facets, oracle.volume())
    assert slice_vertices(body, t) == (sliced.L, list(sliced.ipts))


@seed(2024)
@given(st.integers(2, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_slice_cells_match_the_edge_scan(d, data):
    # every affine rank, the body or a scaled copy, at every t of the slices
    # grids j/12 and j/4 across its range and at every vertex level, in a
    # drawn order, so the cells are built in any order
    body = _body_of_rank(data, d, data.draw(st.integers(0, d)))
    if data.draw(st.booleans()):
        body = scale(body, data.draw(scale_factors))
    lo, hi = body.first_coordinate_range()
    ts = {F(j, den) for den in (12, 4) for j in range(floor(lo * den) - 1, ceil(hi * den) + 2)}
    for t in data.draw(st.permutations(sorted(ts | {v[0] for v in body.vertices}))):
        assert slice_vertices(body, t) == edge_scan_slice(body, t)


@seed(2024)
@given(st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_translate_and_embed_carry_the_hull_data(d, data):
    # against a fresh hull of the moved vertices.  The echelon rows are a basis,
    # not compared: the body hulled from its vertices has the same rows, so its
    # integer H-representation is equal too, while one hulled from more points
    # may take an equality with the opposite sign (its Fraction view is equal)
    body = _body_of_rank(data, d, data.draw(st.integers(0, d)))
    offset = data.draw(st.tuples(*[grid_coords] * d))
    for source in (body, Polytope.hull(body.vertices)):
        for moved, points in ((source.translate(offset), [tuple(a + b for a, b in zip(v, offset))
                                                          for v in source.vertices]),
                              (source.embed_prefix(offset[0]), [(offset[0],) + v
                                                                for v in source.vertices])):
            ref = Polytope.hull(points)
            assert (moved.dim, moved.L, moved.ipts, moved.k, moved.cols, moved.facets) == \
                (ref.dim, ref.L, ref.ipts, ref.k, ref.cols, ref.facets)
            assert (moved.volume(), moved.edges(), fraction_halfspaces(moved)) == \
                (ref.volume(), ref.edges(), fraction_halfspaces(ref))
            (eqs, ineqs), (ref_eqs, ref_ineqs) = moved.integer_halfspaces(), ref.integer_halfspaces()
            assert ineqs == ref_ineqs and len(eqs) == len(ref_eqs)
            flipped = [(tuple(-x for x in n), -c, -s) for n, c, s in ref_eqs]
            assert eqs == ref_eqs or source is body and all(
                e in (r, f) for e, r, f in zip(eqs, ref_eqs, flipped))


@seed(2024)
@given(st.integers(2, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_edges_of_bodies_of_every_rank(d, data):
    body = _body_of_rank(data, d, data.draw(st.integers(0, d)))
    c = data.draw(scale_factors)
    cold = scale(body, c)  # scaled before the body's edges are built
    edges, k, v = body.edges(), body.k, len(body.ipts)
    assert edges == tuple(sorted(set(edges))) and all(i < j < v for i, j in edges)
    assert len(edges) == {0: 0, 1: 1, 2: v}.get(k, len(edges))  # E = V on polygons
    if k == 3:
        assert v - len(edges) + len(body.facets) == 2
    degree = Counter(i for edge in edges for i in edge)
    assert all(degree[i] >= k for i in range(v))
    warm = scale(body, c)
    assert warm.edges() is edges and cold.edges() == edges


def test_edges_of_a_bipyramid_over_the_four_cube():
    # the square 2-faces of the cube lie in four facets of the bipyramid, as
    # many as an edge's in R^5, so only the rank of their normals rules the
    # square's diagonals out: 32 cube edges and 16 from each apex
    cube = [(0,) + c for c in product((0, 2), repeat=4)]
    body = Polytope.hull(cube + [(1, 1, 1, 1, 1), (-1, 1, 1, 1, 1)])
    assert (body.k, len(body.ipts), len(body.facets), len(body.edges())) == (5, 18, 16, 64)
    for t in (-1, F(-1, 2), 0, F(2, 3)):
        assert slice_at(body, t) == integer_hull(4, *all_pairs_slice(body, t))
    assert slice_at(body, 0) == Polytope.hull([c[1:] for c in cube])


@seed(2024)
@given(st.integers(2, 4), st.data())
@settings(max_examples=120, deadline=None)
def test_facet_mixed_volume_matches_polarization(d, data):
    # L of every affine rank: full, a hyperplane body (its own facet twice)
    # and lower (V = 0).  Scaling multiplies the weights by a^(k-1), and the
    # half- and third-integral points make Polytope.__init__ divide them by
    # g^(k-1), both in the hull and after a scaling.
    l_body = scale(_body_of_rank(data, d, data.draw(st.integers(0, d))), data.draw(scale_factors))
    k_body = scale(_body_of_rank(data, d, d), data.draw(scale_factors))
    assume(k_body != l_body)
    for bodies in ([k_body] + [l_body] * (d - 1), [l_body] + [k_body] * (d - 1)):
        assert mixed_volume(bodies) == mixed_volume_by_polarization(bodies)


@seed(2024)
@given(st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_mixed_volume_of_any_bodies_matches_polarization(d, data):
    # n distinct bodies of every affine rank, each listed at least once and
    # in any order, so every route is met: three or more distinct bodies
    # (the facet route polarized over d - 1 bodies), two (the facet formula,
    # or in R^4 the fit over one sum) and one (its volume)
    n = data.draw(st.integers(1, d))
    pool = [scale(_body_of_rank(data, d, data.draw(st.integers(0, d))), data.draw(scale_factors))
            for _ in range(n)]
    picks = data.draw(st.permutations(
        list(range(n)) + data.draw(st.lists(st.integers(0, n - 1), min_size=d - n,
                                            max_size=d - n))))
    bodies = [pool[i] for i in picks]
    assert mixed_volume(bodies) == mixed_volume_by_polarization(bodies)


def _with_weight(body, i, delta):
    """The body with the weight of its i-th facet moved by delta."""
    facets = list(body.facets)
    n, c, w = facets[i]
    facets[i] = (n, c, w + delta)
    return Polytope(body.dim, body.L, body.ipts,
                    (body.k, body.rows, body.cols, facets, body.volume()), _trusted=True)


@pytest.mark.parametrize("l_body", [
    Polytope.hull([(0, 0), (2, 0), (F(1, 2), 3)]),
    Polytope.hull([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, F(3, 2))]),
    scale(Polytope.hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), F(4, 3)),
])
def test_every_facet_weight_enters_the_facet_route(l_body):
    # K holds the origin in its interior, so h_K(n) > 0 for every n != 0 and
    # a wrong weight on any one facet changes the mixed volume
    # (L listed first: in the plane it is then the body whose facets are read)
    d = l_body.dim
    k_body = Polytope.hull(product((-1, 1), repeat=d))
    bodies = [l_body] * (d - 1) + [k_body]
    expected = mixed_volume_by_polarization(bodies)
    assert mixed_volume(bodies) == expected
    for i in range(len(l_body.facets)):
        for delta in (1, -1):
            assert mixed_volume([_with_weight(l_body, i, delta)] * (d - 1) + [k_body]) != expected


def test_facet_route_forms_no_minkowski_sum(monkeypatch):
    def forbidden(*args):
        raise AssertionError("minkowski_sum called")

    monkeypatch.setattr(exactgeom, "minkowski_sum", forbidden)
    cube = Polytope.hull(product((0, 1), repeat=3))
    seg = Polytope.hull([(0, 0, 0), (1, 2, 3)])
    tri = Polytope.hull([(0, 0, 0), (2, 0, 0), (0, 1, 1)])  # in the plane y = z, area sqrt 2
    # 3 V(seg, K, K) = |v| area(K projected along v): 6 for the unit cube
    assert mixed_volume([seg, cube, cube]) == mixed_volume([cube, cube, seg]) == 2
    # 3 V(K, T, T) = area(T) times the width of K across the plane of T
    assert mixed_volume([cube, tri, tri]) == F(2, 3)
    assert mixed_volume([seg, tri, tri]) == F(1, 3)
    assert mixed_volume([cube, seg, seg]) == 0  # a segment twice: rank 1 <= d - 2


def test_mixed_volume_budgets_only_the_sums_its_route_forms(monkeypatch):
    seen = []
    monkeypatch.setattr(exactgeom, "check_enumeration", lambda points, what: seen.append(points))
    simplex = Polytope.hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    box = Polytope.hull(product((0, 2), repeat=4))
    mixed_volume([simplex, box, box, box])
    mixed_volume([simplex, simplex, simplex, box])
    assert seen == []  # the facet route
    mixed_volume([simplex, simplex, box, box])
    assert seen == [5 * 16]  # the fit: sK + L for s = 1
    mixed_volume([simplex, box, scale(simplex, 2), box])
    assert seen == [5 * 16, 5 * 16 * 5 * 16]  # three bodies: the product of all four


def test_mixed_volume_refuses_sums_over_the_budget_before_forming_any(monkeypatch):
    sums = []
    real_sum = exactgeom.minkowski_sum
    monkeypatch.setattr(exactgeom, "minkowski_sum", lambda *a: sums.append(a) or real_sum(*a))
    tet = Polytope.hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    cube = Polytope.hull(product((0, 1), repeat=3))
    tri = Polytope.hull([(0, 0, 0), (2, 0, 0), (0, 1, 1)])
    three = [tet, cube, tri]
    monkeypatch.setattr(exactgeom, "ENUMERATION_BUDGET", 4 * 8 * 3 - 1)
    with pytest.raises(exactgeom.EnumerationBudgetError, match="Minkowski sum"):
        mixed_volume(three)
    assert sums == []
    monkeypatch.setattr(exactgeom, "ENUMERATION_BUDGET", 4 * 8 * 3)
    value = mixed_volume(three)
    assert sums and value == mixed_volume_by_polarization(three)
    # the fit's sK + L in R^4: |V(K)| |V(L)| vertex sums
    simplex = Polytope.hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    box = Polytope.hull(product((0, 2), repeat=4))
    fit = [simplex, simplex, box, box]
    sums.clear()
    monkeypatch.setattr(exactgeom, "ENUMERATION_BUDGET", 5 * 16 - 1)
    with pytest.raises(exactgeom.EnumerationBudgetError, match="Minkowski sum"):
        mixed_volume(fit)
    assert sums == []
    monkeypatch.setattr(exactgeom, "ENUMERATION_BUDGET", 5 * 16)
    assert mixed_volume(fit) == mixed_volume_by_polarization(fit)
    # V(K, L^(d-1)) and vol K form no sum, so no budget refuses them
    monkeypatch.setattr(exactgeom, "ENUMERATION_BUDGET", 0)
    for bodies in ([simplex, box, box, box], [box, box, box, simplex], [box] * 4,
                   [tet, cube, cube], [cube, cube, tet]):
        assert mixed_volume(bodies) == mixed_volume_by_polarization(bodies)


rational_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@seed(2024)
@given(st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_integer_rank_matches_fraction_rref(ncols, data):
    row = st.lists(rational_entries, min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=0, max_size=4))
    extra = []
    for c in data.draw(st.lists(st.tuples(rational_entries, rational_entries),
                                max_size=3)):
        if rows:  # a dependent row: a combination of the first two
            other = rows[1] if len(rows) > 1 else rows[0]
            extra.append([c[0] * x + c[1] * y for x, y in zip(rows[0], other)])
    extra.append([F(0)] * ncols)
    matrix = data.draw(st.permutations(rows + extra))
    assert rank(matrix) == len(rref(matrix)[1])


@seed(2024)
@given(st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_adjugate_matches_fraction_solve(n, data):
    entry = st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):  # singular: the last row a combination
        a, b = data.draw(entry), data.draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[min(1, n - 2)])]
    adj, det = adjugate(rows)
    assert det == cofactor_det(rows)
    for k, a in enumerate(adj):
        pairings = [sum(x * y for x, y in zip(a, r)) for r in rows]
        assert pairings == [det * (k == l) for l in range(n)]
        x = solve(rows, [F(int(l == k)) for l in range(n)])
        if det:
            assert x == tuple(F(y, det) for y in a)
    if not det:
        assert len(rref(rows)[1]) < n
        assert any(solve(rows, [F(int(l == k)) for l in range(n)]) is None for k in range(n))


@seed(2024)
@pytest.mark.parametrize("n", range(8))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_bareiss_det_matches_cofactor_expansion(n, data):
    entry = st.sampled_from([0, 0, 1, -1]) | st.integers(-5, 5)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):  # singular: the last row a combination
        a, b = data.draw(entry), data.draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[min(1, n - 2)])]
    if n > 1 and data.draw(st.booleans()):  # a zero pivot: a singular leading block
        j = data.draw(st.integers(1, n - 1))
        rows[0][0] *= data.draw(st.sampled_from([0, 1]))
        for r in rows[1:j + 1]:
            c = data.draw(entry)
            r[:j] = [c * x for x in rows[0][:j]]
    assert adjugate(rows)[1] == cofactor_det(rows)


@seed(2024)
@given(st.integers(2, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_halfspace_equalities_match_nullspace_oracle(d, data):
    # points on a random affine subspace of dimension < d
    k = data.draw(st.integers(0, d - 1))
    p0 = data.draw(st.tuples(*[small_coords] * d))
    dirs = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                              min_size=k, max_size=k))
    combos = data.draw(st.lists(st.lists(small_coords, min_size=k, max_size=k),
                                min_size=1, max_size=6))
    body = Polytope.hull([tuple(x + sum(c * v[j] for c, v in zip(cs, dirs))
                                for j, x in enumerate(p0)) for cs in combos])
    v0 = body.vertices[0]
    diffs = [[a - b for a, b in zip(v, v0)] for v in body.vertices[1:]]
    eqs, _ = fraction_halfspaces(body)
    assert eqs == [(w, dot(w, v0)) for w in nullspace(diffs or [[0] * d])]


def test_minkowski_memo_is_bounded_and_transparent():
    maxsize = minkowski_sum.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < 10 ** 6
    seg = Polytope.hull([(0, 0), (F(1, 2), 1)])
    first = minkowski_sum(UNIT_SIMPLEX, seg)
    assert minkowski_sum(UNIT_SIMPLEX, seg) is first
    minkowski_sum.cache_clear()
    again = minkowski_sum(UNIT_SIMPLEX, seg)
    assert again is not first and again == first
    assert again.volume() == first.volume()
    assert again.integer_halfspaces() == first.integer_halfspaces()


# --- conflict-list hull against the brute-force oracle ------------------------

def _assert_matches_hull_oracle(ipts):
    """Compare the generic loop and, at k = 3, the spatial loop with the
    brute-force oracle, weights included, and check sum_F w_F (c_F - n_F.q0)
    = k! vol; return the oracle's."""
    oracle = simplicial_hull(ipts)
    for loop in [_simplicial_hull] + [_spatial_hull] * (len(ipts[0]) == 3):
        keep, facets, kvol = simplicial_hull_from_base(ipts, loop)
        assert (sorted(keep), facets, kvol) == oracle, loop.__name__
        assert sum(w * (c - dot(n, ipts[0])) for n, c, w in facets) == kvol
    return oracle


def _lattice_box(data, d):
    # every lattice point of a box: points on edges and in facet interiors
    lows = data.draw(st.tuples(*[st.integers(-2, 1)] * d))
    sides = data.draw(st.tuples(*[st.integers(1, 2)] * d))
    return list(product(*[range(a, a + s + 1) for a, s in zip(lows, sides)]))


def _coplanar_clusters(data, d):
    # a few clusters, each on one hyperplane through a small base point
    small = st.integers(-2, 2)
    pts = []
    for _ in range(data.draw(st.integers(2, 4))):
        base = data.draw(st.tuples(*[small] * d))
        dirs = data.draw(st.lists(st.tuples(*[small] * d), min_size=d - 1, max_size=d - 1))
        for cs in data.draw(st.lists(st.tuples(*[small] * (d - 1)), min_size=2, max_size=6)):
            pts.append(tuple(b + sum(c * v[j] for c, v in zip(cs, dirs))
                             for j, b in enumerate(base)))
    return pts


def _one_denominator(data, d):
    # rational points, scaled below to integers over their common denominator
    return data.draw(st.lists(st.tuples(*[grid_coords] * d), min_size=d + 1, max_size=30))


# coordinates like those of perfbench's `geometry` bodies: in [0, 4], denominators 1-4
bench_coords = st.integers(1, 4).flatmap(lambda den: st.integers(0, 4 * den).map(
    lambda n: F(n, den)))


def _cloud(data, d, size=5):
    return data.draw(st.lists(st.tuples(*[bench_coords] * d), min_size=size, max_size=size))


def _box_corners(data, d):
    # the 2^d corners of a box, the shape of the bodies of P^1 x P^1 x P^1
    lo, hi = _cloud(data, d, 2)
    return list(product(*zip(lo, hi)))


def _vertex_sums(data, d):
    # the 25 pairwise sums of two 5-point clouds, as `mixedvol` sums its bodies
    return [tuple(x + y for x, y in zip(u, v)) for u in _cloud(data, d) for v in _cloud(data, d)]


def _simplex(data, d):
    return _cloud(data, d, d + 1)


def _coplanar_with_apex(data, d):
    # many points on one hyperplane and one point off it
    grid = st.integers(-3, 3)
    dirs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d - 1,
                              max_size=d - 1))
    pts = [tuple(sum(c * v[j] for c, v in zip(cs, dirs)) for j in range(d))
           for cs in data.draw(st.lists(st.tuples(*[grid] * (d - 1)), min_size=3, max_size=20))]
    return pts + [data.draw(st.tuples(*[grid] * d))]


def _lattice_simplex(data, d):
    # every lattice point of s times the standard simplex, mapped by a unimodular
    # shear: points on its edges and in its facets
    s, a = data.draw(st.integers(1, 3)), data.draw(st.integers(-2, 2))
    return [(x[0] + a * x[1],) + x[1:] for x in product(range(s + 1), repeat=d) if sum(x) <= s]


def _far_negative(data, d):
    # another shape moved to coordinates near -2^40
    make = data.draw(st.sampled_from([_cloud, _box_corners, _coplanar_with_apex, _lattice_box]))
    shift = [-2 ** 40 + data.draw(st.integers(-3, 3)) for _ in range(d)]
    return [tuple(x + y for x, y in zip(p, shift)) for p in make(data, d)]


@seed(2024)
@pytest.mark.parametrize("make", [_lattice_box, _coplanar_clusters, _one_denominator, _cloud,
                                  _box_corners, _vertex_sums, _simplex, _coplanar_with_apex,
                                  _lattice_simplex, _far_negative])
@given(st.sampled_from([3, 4]), st.data())
@settings(max_examples=40, deadline=None)
def test_conflict_list_hull_matches_oracle(make, d, data):
    pts, ipts = _integer_points(make(data, d))
    assume(rank([[x - y for x, y in zip(p, ipts[0])] for p in ipts[1:]]) == d)
    keep, facets, kvol = _assert_matches_hull_oracle(ipts)
    body = Polytope.hull(pts)
    assert body.vertices == tuple(pts[i] for i in keep)
    # the body keeps its offsets over the least common denominator of its
    # vertices, and its weights for the points over that denominator
    den = common_denominator(pts)
    s = den // body.L
    assert [(n, c * s, w * s ** (d - 1)) for n, c, w in body.facets] == facets
    assert body.volume() * factorial(d) * den ** d == kvol


@seed(2024)
@given(st.data(), st.sampled_from([
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
    ((2, -1, 0), (0, 1, 3), (1, 0, -1), (0, 2, 1)),
    ((1, 2, 0), (0, 0, 1), (-1, 1, 1), (3, 0, 2))]))
@settings(max_examples=60, deadline=None)
def test_conflict_list_hull_of_rank_three_sets_in_four_space(data, rows):
    # x -> A x + b is injective (A has rank 3), so the image has affine rank 3
    flat = data.draw(st.sampled_from([_lattice_box, _coplanar_clusters, _one_denominator]))(data, 3)
    offset = data.draw(st.tuples(*[grid_coords] * 4))
    pts, ipts = _integer_points([tuple(sum(map(mul, r, x)) + o for r, o in zip(rows, offset))
                                 for x in flat])
    space = Polytope.hull(pts)
    assume(space.k == 3)
    cols = space.cols
    proj = [tuple(p[c] for c in cols) for p in ipts]
    keep, facets, _ = _assert_matches_hull_oracle(proj)
    assert space.vertices == tuple(pts[i] for i in keep)
    s = common_denominator(pts) // space.L
    assert [(n, c * s, w * s ** 2) for n, c, w in space.facets] == facets
    assert space.volume() == 0


def test_only_rank_four_and_above_take_the_generic_loop(monkeypatch):
    calls = []
    monkeypatch.setattr(exactgeom, "_simplicial_hull",
                        lambda pts, base: calls.append(len(pts[0])) or _simplicial_hull(pts, base))
    cube = list(product((0, 1), repeat=3))
    assert Polytope.hull(cube).volume() == 1
    assert Polytope.hull([p + (sum(p),) for p in cube]).k == 3  # rank 3 in R^4
    assert calls == []
    assert Polytope.hull(list(product((0, 1), repeat=4))).volume() == 1
    assert calls == [4]


@seed(2024)
@given(st.tuples(*[st.integers(-50, 50)] * 3), st.tuples(*[st.integers(-50, 50)] * 3))
@settings(max_examples=100, deadline=None)
def test_cross_normal_closed_form_matches_minors(u, v):
    minors = tuple((-1) ** j * cofactor_det([[r[c] for c in range(3) if c != j] for r in (u, v)])
                   for j in range(3))
    assert cross_normal_int([u, v]) == minors
    assert dot(minors, u) == dot(minors, v) == 0


@seed(2024)
@pytest.mark.parametrize("k", [1, 2, 4, 5, 6, 7])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_cross_normal_from_one_elimination_matches_minors(k, data):
    # every signed maximal minor against the Laplace oracle, with zero pivots
    # and every rank up to k - 1
    entry = st.sampled_from([0, 0, 1, -1]) | st.integers(-5, 5)
    rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                              min_size=k - 1, max_size=k - 1))
    if k > 2 and data.draw(st.booleans()):  # rank deficient: the last row a combination
        a, b = data.draw(entry), data.draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[min(1, k - 3)])]
    if k > 2 and data.draw(st.booleans()):  # a zero leading column
        rows = [[0] + r[1:] for r in rows]
    minors = tuple((-1) ** j * cofactor_det([r[:j] + r[j + 1:] for r in rows]) for j in range(k))
    assert cross_normal_int(rows) == minors
    assert all(dot(minors, r) == 0 for r in rows)


def test_edge_points_of_the_cross_polytope_in_four_space():
    # an edge of the 4D cross-polytope lies in four facets whose normals span
    # only R^3, so its lattice midpoint has four distinct normals and is no vertex
    tips = [tuple(s * 2 * (j == i) for j in range(4)) for i in range(4) for s in (1, -1)]
    mids = {tuple((a + b) // 2 for a, b in zip(p, q))
            for p in tips for q in tips if dot(p, q) == 0}
    pts, ipts = _integer_points(tips + sorted(mids))
    _assert_matches_hull_oracle(ipts)
    body = Polytope.hull(pts)
    assert sorted(body.vertices) == sorted(tuple(map(F, p)) for p in tips)
    assert len(body.integer_halfspaces()[1]) == 16 and body.volume() == F(2 ** 4 * 16, 24)


# --- integer vertices over one denominator ------------------------------------

def _assert_canonical(body):
    """The body is the hull of its own vertices, kept over their least common
    denominator with the same points, facets and volume."""
    again = Polytope.hull(body.vertices, dim=body.dim)
    assert body.L == common_denominator(body.vertices)
    assert (body.L, body.ipts, body.k, body.cols, body.facets, body.volume()) == \
        (again.L, again.ipts, again.k, again.cols, again.facets, again.volume())
    assert body == again and hash(body) == hash(again)


@seed(2024)
@given(st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_every_operation_keeps_the_canonical_integer_body(d, data):
    point_sets = st.lists(st.tuples(*[grid_coords] * d), min_size=1, max_size=8)
    p, q = Polytope.hull(data.draw(point_sets)), Polytope.hull(data.draw(point_sets))
    offset = data.draw(st.tuples(*[grid_coords] * d))
    empty = Polytope.empty(d)
    bodies = [p, q, empty, Polytope.hull([offset]), p.translate(offset), empty.translate(offset),
              p.embed_prefix(offset[0]), minkowski_sum(p, q), minkowski_sum(p, empty)]
    bodies += [scale(b, c) for b in (p, q, empty) for c in (0, F(1, 3), 2, F(5, 2))]
    for body in bodies:
        _assert_canonical(body)
    for a in bodies:
        for b in bodies:
            assert (a == b) == (a.dim == b.dim and a.vertices == b.vertices)
            assert a != b or hash(a) == hash(b)


@seed(2024)
@given(st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_translate_is_the_sum_with_a_point_and_forms_no_sum(d, data):
    pts = data.draw(st.lists(st.tuples(*[grid_coords] * d), max_size=8))
    body = Polytope.hull(pts, dim=d)
    offset = data.draw(st.tuples(*[grid_coords] * d))
    before = minkowski_sum.cache_info().currsize
    moved = body.translate(offset)
    assert minkowski_sum.cache_info().currsize == before
    assert moved == minkowski_sum(body, Polytope.hull([offset]))
    _assert_canonical(moved)
    with pytest.raises(DimensionMismatch):
        body.translate(offset + (F(0),))
