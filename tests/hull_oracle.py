"""Brute-force beneath-beyond hull on integer points, and containment by
hull equality: test-only oracles.

The package takes hulls of affine rank k >= 3 by a conflict-list
beneath-beyond and reads the vertices off the facet incidences.  This
oracle inserts the points in index order, tests every live face against
every point, and then finds the vertices by a rank test of the facets
active at each corner, so the tests can check the fast hull against it.
The package decides containment on a body's integer H-representation;
`union_hull_contains` decides it by one hull of both vertex sets instead.
The package slices a body through its edges; `all_pairs_slice` crosses
every pair of vertices on opposite sides of the hyperplane instead, and
`edge_scan_slice` scans every vertex and edge at each level instead of
reading the cell of the level that the body keeps.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from oklab.exactgeom import integer_hull
from oklab.linalg import cross_normal_int, independent_rows


def incremental_hull(pts):
    """Facet simplices of the hull of affinely spanning integer points.

    Returns triples (vertex indices, outward integer normal n, offset c)
    with the hull contained in n.x <= c.  Input must be distinct points
    of affine rank k = len(pts[0]) >= 2.
    """
    k = len(pts[0])
    q0 = pts[0]
    base = [0] + [i + 1 for i, _, _ in independent_rows(
        [x - y for x, y in zip(p, q0)] for p in pts[1:])]
    if len(base) != k + 1:
        raise ValueError("points do not affinely span")
    zsum = tuple(sum(pts[i][j] for i in base) for j in range(k))

    def make_face(verts):
        q0 = pts[verts[0]]
        diffs = [tuple(x - y for x, y in zip(pts[v], q0)) for v in verts[1:]]
        n = cross_normal_int(diffs)
        if all(x == 0 for x in n):
            raise ValueError("degenerate face")
        c = sum(a * b for a, b in zip(n, q0))
        side = sum(a * b for a, b in zip(n, zsum)) - (k + 1) * c
        if side > 0:
            n = tuple(-x for x in n)
            c = -c
        elif side == 0:
            raise ValueError("interior reference on a face plane")
        return tuple(sorted(verts)), n, c

    faces = {}
    for sub in combinations(base, k):
        key, n, c = make_face(tuple(sub))
        faces[key] = (n, c)

    in_base = set(base)
    for i in range(len(pts)):
        if i in in_base:
            continue
        p = pts[i]
        visible = [key for key, (n, c) in faces.items()
                   if sum(a * b for a, b in zip(n, p)) > c]
        if not visible:
            continue
        ridges = Counter()
        for key in visible:
            for ridge in combinations(key, k - 1):
                ridges[ridge] += 1
        for key in visible:
            del faces[key]
        for ridge, cnt in ridges.items():
            if cnt == 1:
                fkey, n, c = make_face(ridge + (i,))
                faces[fkey] = (n, c)
    return [(key, n, c) for key, (n, c) in sorted(faces.items())]


def extreme_indices(int_pts, facets, k):
    """Vertices = points whose active facet normals span R^k."""
    out = []
    for i, p in enumerate(int_pts):
        active = [n for n, c, _ in facets
                  if sum(a * b for a, b in zip(n, p)) == c]
        if len(active) >= k and len(independent_rows(active)) == k:
            out.append(i)
    return out


def simplicial_hull(pts):
    """(vertex indices, primitive facets (n, c, w), k! times the k-volume) of
    distinct integer points of affine rank k = len(pts[0]) >= 2.

    w is (k-1)! times the lattice volume of the facet: the sum, over the
    facet's simplices in this oracle's own triangulation, of the gcd of
    their cross normals."""
    k = len(pts[0])
    faces = incremental_hull(pts)
    weights = Counter()
    for _, n, c in faces:
        g = gcd(*n)  # divides c, an integer combination of n
        weights[tuple(x // g for x in n), c // g] += g
    facets = sorted((n, c, w) for (n, c), w in weights.items())
    corners = sorted({i for verts, _, _ in faces for i in verts})
    keep = [corners[i] for i in extreme_indices([pts[i] for i in corners], facets, k)]
    q0 = pts[0]  # a hull point: cones over the face simplices tile the body
    kvol = sum(abs(cofactor_det([[x - y for x, y in zip(pts[v], q0)] for v in verts]))
               for verts, _, _ in faces if 0 not in verts)
    return keep, facets, kvol


def cofactor_det(rows):
    """Oracle: the determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def union_hull_contains(body, other):
    """Q inside P iff conv(P u Q) = P: one integer hull of both vertex sets
    over lcm(L, L'), compared with the canonical body P."""
    if other.is_empty():
        return True
    if body.is_empty():
        return False
    L = lcm(body.L, other.L)
    a, b = L // body.L, L // other.L
    return body == integer_hull(body.dim, L, [tuple(a * x for x in p) for p in body.ipts]
                                + [tuple(b * x for x in p) for p in other.ipts])


def all_pairs_slice(body, t):
    """(L, points) spanning the slice {x : (t, x) in body}: the vertices u
    with h(u) = u_0 t_den - t_num L = 0, and for every pair with
    h(u) < 0 < h(w), edge or not, the crossing (h(w) u - h(u) w) / (h(w) - h(u)),
    all over one denominator m L (pairs that are not edges only add
    interior points)."""
    t = Fraction(t)
    h = [(u[0] * t.denominator - t.numerator * body.L, u[1:]) for u in body.ipts]
    below = [(a, u) for a, u in h if a < 0]
    above = [(b, w) for b, w in h if b > 0]
    m = lcm(*{b - a for a, _ in below for b, _ in above})
    pts = [tuple(m * x for x in u) for a, u in h if a == 0]
    for a, u in below:
        for b, w in above:
            f = m // (b - a)
            pts.append(tuple(f * (b * x - a * y) for x, y in zip(u, w)))
    return m * body.L, pts


def edge_scan_slice(p, t):
    """(L, points) as `slice_vertices` gives them, by one scan per level:
    with h(u) = u_0 t_den - t_num L, the vertices u with h(u) = 0 and the
    crossing (h(w) u - h(u) w) / (h(w) - h(u)) of each edge uw with
    h(u) h(w) < 0, over one denominator m L, divided by their gcd and sorted."""
    t, vs = Fraction(t), p.ipts
    h = [v[0] * t.denominator - t.numerator * p.L for v in vs]
    cross = [(i, j) for i, j in p.edges() if h[i] * h[j] < 0]
    m = lcm(*{abs(h[j] - h[i]) for i, j in cross})
    pts = [tuple(m * x for x in v[1:]) for a, v in zip(h, vs) if a == 0]
    for i, j in cross:
        f = m // (h[j] - h[i])
        pts.append(tuple(f * (h[j] * x - h[i] * y) for x, y in zip(vs[i][1:], vs[j][1:])))
    g = gcd(m * p.L, *(x for q in pts for x in q))
    return m * p.L // g, sorted(tuple(x // g for x in q) for q in pts)
