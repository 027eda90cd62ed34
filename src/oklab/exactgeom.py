"""Exact convex-body arithmetic over the rationals.

Polytopes live in Q^d and are stored by their canonical V-representation:
the lexicographically sorted extreme points, as integer points over the
least common denominator of their coordinates.  Every operation
(hulls, Minkowski sums, scalings, slices, volumes, mixed volumes) is pure
and exact; no floating point appears anywhere.  Lower-dimensional bodies
(segments in the plane, faces of slices, ...) are first-class values with
d-volume 0.

The hull core is integer-only.  Points are scaled by their common
denominator; one fraction-free elimination over their differences gives
the affine rank k and pivot coordinates onto which the affine hull
projects bijectively.  The hull is taken there: Andrew's monotone chain
for k = 2 (vertices, edge inequalities and the shoelace area in one
pass), a conflict-list beneath-beyond for k >= 3 with the vertices read
off the facet incidences, so all orientation predicates are exact integer
determinants.  The beneath-beyond is written out on three coordinates for
k = 3, which every body, mixed volume and sum in R^3 takes; the generic
loop runs only for k >= 4 (bodies in R^4 and above, and the cone facets
of class groups of rank >= 4).  Facets, volume and vertices come out of
that one pass and are kept with the body, and so are its edges, once read
off the facet incidences.  `integer_hull` builds every body but the scaled,
translated and embedded copies, which keep their source's hull data, moved,
and its edges; `Polytope.hull` alone scales rational points to integers.  A
slice reads one cell of its body, kept per vertex level and per gap between
levels from the first slice there on: the vertices there and a crossing per edge.
The same data give each body one integer H-representation, built on
demand: an affine-hull equality per free column and an inequality per
facet (Minkowski-Weyl).  Containment, the witnesses of `first_outside`,
the hyperplane of a facet body and `sum_relation` (P = Q + R on vertex
sums) read it with no hull.

Mixed volumes take one of two routes, both built on Minkowski's formula
d! V(K, L^(d-1)) = sum_F w_F h_K(n_F) over the facets of L, whose weights
w_F the hull keeps with each facet.  Two distinct bodies in the form
V(K, L^(d-1)) take it directly, with no Minkowski sum.  Every other mixed
volume polarizes the formula over the d - 1 bodies after the first, so the
largest sum has d - 1 bodies.  `mixed_volume_by_polarization`, over sums
of up to all d bodies, is the independent route that checks them.
`mixed_volume` refuses a polarization whose sums would be too large to
form before it forms any (`check_enumeration`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, prod
from operator import gt, mul, ne

from .linalg import (
    Vec,
    adjugate,
    cross_normal_int,
    independent_rows,
    primitive,
    rat,
)


class DimensionMismatch(ValueError):
    pass


# The most points one enumeration may visit: the (2 bound + 1)^rank class
# vectors of `ample_grid_classes`, the k(k + 1)/2 pairs of its k classes in
# `strict_search`, the grid_den + 1 parameters of --grid-den and the
# ceil(mu den) of each t-grid, and the vertex sums of the largest Minkowski
# sum a `mixed_volume` route forms: none on the facet route, and on the
# polarization the product of all d vertex counts, which bounds the vertex
# sums of a sum of all d bodies.  Larger requests are refused before
# anything is enumerated.
ENUMERATION_BUDGET = 100_000


class EnumerationBudgetError(ValueError):
    pass


def check_enumeration(points: int, what: str) -> None:
    if points > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{what} enumerates {points} points, over the budget of {ENUMERATION_BUDGET}")


def _check_same_dim(points) -> int:
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise DimensionMismatch(f"points of mixed ambient dimensions {sorted(dims)}")
    return dims.pop()


# ---------------------------------------------------------------------------
# hull core (integer coordinates)
# ---------------------------------------------------------------------------

def _planar_hull(pts: list[tuple[int, int]]) -> tuple[list[int], list, int]:
    """Andrew's monotone chain on distinct integer points of affine rank 2.

    Returns the indices of the vertices (counter-clockwise, collinear
    points dropped), the primitive facet inequalities (n, c) with
    n.x <= c and the lattice length w of their edge, one per ring edge,
    and twice the area (shoelace).
    """
    order = sorted(range(len(pts)), key=pts.__getitem__)
    ring = []
    for seq in (order, order[::-1]):
        chain = []
        for i in seq:
            x, y = pts[i]
            while len(chain) >= 2:
                (ax, ay), (bx, by) = pts[chain[-2]], pts[chain[-1]]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                chain.pop()
            chain.append(i)
        ring += chain[:-1]
    facets, area2 = [], 0
    for i, j in zip(ring, ring[1:] + ring[:1]):
        (ax, ay), (bx, by) = pts[i], pts[j]
        g = gcd(bx - ax, by - ay)
        n = ((by - ay) // g, (ax - bx) // g)
        facets.append((n, n[0] * ax + n[1] * ay, g))
        area2 += ax * by - ay * bx
    return ring, sorted(facets), area2


class _Face:
    """Oriented facet simplex of a growing hull: n.x <= c holds on the hull,
    nbrs[j] lies across the ridge opposite verts[j], and `above` holds the
    pairs (height, index) of the pending points strictly above it."""

    __slots__ = ("verts", "n", "c", "nbrs", "above", "dead")

    def __init__(self, pts, verts, zsum):
        a = pts[verts[0]]
        n = cross_normal_int([[x - y for x, y in zip(pts[v], a)] for v in verts[1:]])
        c = sum(map(mul, n, a))
        if sum(map(mul, n, zsum)) > (len(a) + 1) * c:  # orient away from zsum / (k + 1)
            n, c = tuple(-x for x in n), -c
        self.verts, self.n, self.c, self.nbrs = verts, n, c, [None] * len(verts)
        self.above, self.dead = [], False


def _simplicial_hull(pts: list[tuple[int, ...]], base: list[int]) -> tuple[list[int], list, int]:
    """Conflict-list beneath-beyond (Clarkson-Shor) on distinct integer points
    of affine rank k = len(pts[0]) >= 2, the counterpart of `_planar_hull`:
    vertex indices, primitive facets (n, c, w) and k! times the k-volume.
    Here w = (k-1)! times the lattice volume of the facet: the gcd of a
    simplex's cross normal is (k-1)! times its lattice volume, summed over
    the facet's simplices, so sum_F w (c - n.pts[0]) = k! vol.  base indexes
    the k + 1 affinely independent points of the first simplex, pts[0] first.

    Each facet simplex keeps the points strictly above it.  The highest
    point above a face goes in next (Quickhull order); the faces it sees
    are found by walking the adjacency from that face and are replaced by
    the simplices joining it to the horizon ridges; only their orphaned
    points are tested again, against the new faces alone.  A corner is a
    vertex iff the distinct facet normals at it span R^k.
    """
    k = len(pts[0])
    zsum = tuple(map(sum, zip(*(pts[i] for i in base))))
    faces = [_Face(pts, tuple(base[:j] + base[j + 1:]), zsum) for j in range(k + 1)]
    for j, f in enumerate(faces):
        f.nbrs = faces[:j] + faces[j + 1:]  # face i lies across from base[i]

    def assign(indices, new):  # each point to the first new face it is above
        for i in indices:
            p = pts[i]
            for f in new:
                h = sum(map(mul, f.n, p)) - f.c
                if h > 0:
                    f.above.append((h, i))
                    break

    assign(set(range(len(pts))).difference(base), faces)
    for face in faces:  # the list grows as new faces are made
        if face.dead or not face.above:
            continue
        top = max(face.above)[1]
        p = pts[top]
        face.dead, visible, horizon = True, [face], []
        for f in visible:
            for j, g in enumerate(f.nbrs):
                if g.dead:
                    continue
                if sum(map(mul, g.n, p)) > g.c:
                    g.dead = True
                    visible.append(g)
                else:
                    horizon.append((f.verts[:j] + f.verts[j + 1:], g, f))
        new, open_ridges = [], {}
        for ridge, g, f in horizon:
            h = _Face(pts, ridge + (top,), zsum)
            h.nbrs[-1] = g
            g.nbrs[g.nbrs.index(f)] = h
            for j in range(k - 1):  # the other ridges contain p: shared with new faces
                key = tuple(sorted(ridge[:j] + ridge[j + 1:]))
                if key in open_ridges:
                    h2, j2 = open_ridges.pop(key)
                    h.nbrs[j], h2.nbrs[j2] = h2, h
                else:
                    open_ridges[key] = (h, j)
            new.append(h)
        assign((i for f in visible for _, i in f.above if i != top), new)
        faces += new
    normals, facets, kvol = {}, {}, 0
    for f in faces:
        if not f.dead:
            g = gcd(*f.n)  # divides c, an integer combination of n
            n = tuple(x // g for x in f.n)
            key = (n, f.c // g)
            facets[key] = facets.get(key, 0) + g
            kvol += f.c - sum(map(mul, f.n, pts[0]))  # |det| of the cone from pts[0]
            for v in f.verts:
                normals.setdefault(v, set()).add(n)
    keep = [v for v, ns in normals.items()
            if len(ns) >= k and (k <= 3 or len(independent_rows(list(ns))) == k)]
    return keep, sorted((n, c, w) for (n, c), w in facets.items()), kvol


def _spatial_hull(pts: list[tuple[int, int, int]], base: list[int]) -> tuple[list[int], list, int]:
    """`_simplicial_hull` for k = 3, with the same steps and outputs, on flat
    face lists [nx, ny, nz, c, a, b, e, g_a, g_b, g_e, above]: g_x lies
    across the edge opposite x, and above is None once the face is dead.
    The cross product and the heights n.p - c are written out, and the two
    edges of a new face through the apex are keyed by their horizon vertex."""
    zx, zy, zz = map(sum, zip(*(pts[i] for i in base)))

    def make(a, b, e):
        (ax, ay, az), (bx, by, bz), (ex, ey, ez) = pts[a], pts[b], pts[e]
        bx, by, bz, ex, ey, ez = bx - ax, by - ay, bz - az, ex - ax, ey - ay, ez - az
        nx, ny, nz = by * ez - bz * ey, bz * ex - bx * ez, bx * ey - by * ex
        c = nx * ax + ny * ay + nz * az
        if nx * zx + ny * zy + nz * zz > 4 * c:  # orient away from zsum / 4
            nx, ny, nz, c = -nx, -ny, -nz, -c
        return [nx, ny, nz, c, a, b, e, None, None, None, []]

    def assign(indices, new):  # each point to the first new face it is above
        planes = [(f[0], f[1], f[2], f[3], f[10]) for f in new]
        for i in indices:
            x, y, z = pts[i]
            for nx, ny, nz, c, above in planes:
                h = nx * x + ny * y + nz * z - c
                if h > 0:
                    above.append((h, i))
                    break

    a, b, e, o = base
    faces = [make(b, e, o), make(a, e, o), make(a, b, o), make(a, b, e)]
    for j, f in enumerate(faces):
        f[7:10] = faces[:j] + faces[j + 1:]
    assign(set(range(len(pts))).difference(base), faces)
    for face in faces:  # the list grows as new faces are made
        if not face[10]:
            continue
        top = max(face[10])[1]
        px, py, pz = pts[top]
        orphans, face[10], visible, horizon = face[10], None, [face], []
        for f in visible:
            _, _, _, _, a, b, e, ga, gb, ge, _ = f
            for g, u, v in ((ga, b, e), (gb, a, e), (ge, a, b)):
                if g[10] is None:
                    continue
                if g[0] * px + g[1] * py + g[2] * pz > g[3]:
                    orphans += g[10]
                    g[10] = None
                    visible.append(g)
                else:
                    horizon.append((f, g, u, v))
        new, side = [], {}
        for f, g, u, v in horizon:
            h = make(u, v, top)
            h[9] = g
            g[7 if g[7] is f else 8 if g[8] is f else 9] = h
            for x, j in ((v, 7), (u, 8)):  # the edge {x, top}, opposite the other of u, v
                if x in side:
                    h2, j2 = side.pop(x)
                    h[j], h2[j2] = h2, h
                else:
                    side[x] = (h, j)
            new.append(h)
        assign((i for _, i in orphans if i != top), new)
        faces += new
    normals, facets, kvol = {}, {}, 0
    qx, qy, qz = pts[0]
    for nx, ny, nz, c, a, b, e, _, _, _, above in faces:
        if above is not None:
            g = gcd(nx, ny, nz)  # divides c, an integer combination of n
            n = (nx // g, ny // g, nz // g)
            facets[n, c // g] = facets.get((n, c // g), 0) + g
            kvol += c - nx * qx - ny * qy - nz * qz  # |det| of the cone from pts[0]
            for v in (a, b, e):
                normals.setdefault(v, set()).add(n)
    keep = [v for v, ns in normals.items() if len(ns) >= 3]
    return keep, sorted((n, c, w) for (n, c), w in facets.items()), kvol


def integer_hull(d: int, L: int, ipts) -> "Polytope":
    """Hull of the integer points ipts / L in R^d, in any order and with
    repeats; no points give the empty body.

    The affine hull comes from one fraction-free elimination over the
    differences from the least point.  Its direction projects bijectively
    onto the pivot columns, so the hull is taken there, in k = affine rank
    coordinates: an interval for k = 1, the monotone chain for k = 2 and
    the beneath-beyond for k >= 3, from the simplex of the echelon rows'
    points: `_spatial_hull` for k = 3, the generic `_simplicial_hull` for
    k >= 4.  The body keeps k, the echelon rows, the pivot columns, the
    primitive facets (n, c, w) of the projection, w being (k-1)! times the
    facet's lattice volume, and its volume.
    """
    ipts = sorted(set(ipts))  # L > 0, so the points sort like the rationals they scale
    if not ipts:
        return Polytope.empty(d)
    q0 = ipts[0]
    echelon = independent_rows([x - y for x, y in zip(p, q0)] for p in ipts[1:])
    k = len(echelon)
    cols = sorted(c for _, c, _ in echelon)
    coords = ipts if k == d else [tuple(p[c] for c in cols) for p in ipts]
    if k == 0:
        keep, facets, kvol = [0], [], 1
    elif k == 1:
        keep = [coords.index(min(coords)), coords.index(max(coords))]
        (lo,), (hi,) = coords[keep[0]], coords[keep[1]]
        facets, kvol = [((1,), hi, 1), ((-1,), -lo, 1)], hi - lo
    elif k == 2:
        keep, facets, kvol = _planar_hull(coords)
    else:
        base = [0] + [i + 1 for i, _, _ in echelon]
        keep, facets, kvol = (_spatial_hull if k == 3 else _simplicial_hull)(coords, base)
    volume = Fraction(kvol, factorial(d) * L ** d) if k == d else Fraction(0)
    return Polytope(d, L, [ipts[i] for i in sorted(keep)],
                    (k, [e for _, _, e in echelon], cols, facets, volume), _trusted=True)


# ---------------------------------------------------------------------------
# Polytope
# ---------------------------------------------------------------------------

class Polytope:
    """Canonical exact polytope: its sorted vertices as integer points `ipts`
    over L, the least common denominator of their coordinates, kept with the
    hull data of those points (see `integer_hull`) and its edges."""

    __slots__ = ("dim", "L", "ipts", "k", "rows", "cols", "facets", "_volume", "_edges", "_cells")

    def __init__(self, dim: int, L: int, ipts, hull, _trusted=False):
        """hull = (k, echelon rows, pivot columns, facets, volume) of the
        sorted vertices ipts / L, or None for the empty body.  The points and
        facet offsets are divided by g = gcd(L, coordinates), and the facet
        weights by g^(k-1), so that `==` and `hash` compare (dim, L, points);
        g divides every offset, which is n.x at some vertex x, and g^(k-1)
        every weight, which the divided lattice points give again."""
        if not _trusted:
            raise TypeError("use Polytope.hull / Polytope.empty")
        k, rows, cols, facets, volume = hull or (-1, None, None, None, Fraction(0))
        g = gcd(L, *(x for p in ipts for x in p))
        if g > 1:
            L //= g
            ipts = [tuple(x // g for x in p) for p in ipts]
            facets = [(n, c // g, w // g ** (k - 1)) for n, c, w in facets]
        self.dim, self.L, self.ipts = dim, L, tuple(ipts)
        self.k, self.rows, self.cols, self.facets, self._volume = k, rows, cols, facets, volume
        self._edges = self._cells = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "Polytope":
        return Polytope(dim, 1, (), None, _trusted=True)

    @staticmethod
    def hull(points, dim: int | None = None) -> "Polytope":
        pts = [[rat(x).as_integer_ratio() for x in p] for p in points]
        if not pts:
            if dim is None:
                raise ValueError("empty hull needs an explicit ambient dimension")
            return Polytope.empty(dim)
        d = _check_same_dim(pts)
        if dim is not None and dim != d:
            raise DimensionMismatch(f"expected dimension {dim}, got {d}")
        L = lcm(*(b for p in pts for _, b in p))
        return integer_hull(d, L, [tuple(a * (L // b) for a, b in p) for p in pts])

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polytope) and self.dim == other.dim
                and self.L == other.L and self.ipts == other.ipts)

    def __hash__(self):
        return hash((self.dim, self.L, self.ipts))

    def __repr__(self):
        if self.is_empty():
            return f"Polytope(empty, R^{self.dim})"
        return f"Polytope({len(self.ipts)} vertices, R^{self.dim})"

    def is_empty(self) -> bool:
        return not self.ipts

    @property
    def vertices(self) -> tuple[Vec, ...]:
        """The sorted vertices as Fractions, built on each access."""
        return tuple(tuple(Fraction(x, self.L) for x in p) for p in self.ipts)

    # -- derived geometry ----------------------------------------------------

    def edges(self) -> tuple:
        """The edges as index pairs i < j into `ipts`, built once: v lies on the
        facet (n, c) iff n.v = c on the pivot columns, and two vertices span
        an edge iff the facets through both have rank k - 1, for k <= 4 iff
        there are k - 1 of them (a face of dimension >= k - 2 is in <= 2 facets)."""
        if isinstance(self._edges, Polytope):  # a scaled copy: its source builds them
            self._edges = self._edges.edges()
        if self._edges is None:
            k, shared = self.k, {}
            vs = self.ipts if k == self.dim else [[v[c] for c in self.cols] for v in self.ipts]
            for n, c, _ in self.facets or ():  # the normals through each pair of vertices
                for pair in combinations([i for i, v in enumerate(vs)
                                          if sum(map(mul, n, v)) == c], 2):
                    shared.setdefault(pair, []).append(n)
            self._edges = tuple(combinations(range(len(vs)), 2)) if k <= 1 else tuple(sorted(
                pair for pair, ns in shared.items()
                if len(ns) >= k - 1 and (k <= 4 or len(independent_rows(ns)) == k - 1)))
        return self._edges

    def integer_halfspaces(self):
        """(equalities, inequalities) as integer triples (n, c, s): the body
        is {x : n.x L = c on equalities, n.x L <= c on inequalities}.  One
        equality per free column f, n_f = s = det of the echelon rows on the
        pivot columns and the pivot entries from its adjugate (Cramer's
        rule), made primitive; one inequality per facet, its normal put back
        on the pivot columns, s = 1."""
        if self.is_empty():
            raise ValueError("empty polytope has no geometry")
        d, rows, cols, q = self.dim, self.rows, self.cols, self.ipts[0]
        free = [f for f in range(d) if f not in cols]
        adj, det = adjugate([[e[c] for c in cols] for e in rows]) if free else ([], 1)
        eqs = []
        for f in free:
            n = [0] * d
            n[f] = det
            for j, c in enumerate(cols):
                n[c] = -sum(e[f] * a[j] for e, a in zip(rows, adj))
            n = primitive(n)
            eqs.append((n, sum(map(mul, n, q)), n[f]))
        ineqs = []
        for m, c, _ in self.facets:
            n = [0] * d
            for col, x in zip(cols, m):
                n[col] = x
            ineqs.append((tuple(n), c, 1))
        return eqs, ineqs

    def first_outside(self, other: "Polytope"):
        """(x, (n / s, c / (s L))) for the first vertex x of the other body
        outside this one and the first row (n, c, s) of `integer_halfspaces`
        it breaks, equalities first (None for the empty body); None if the
        other lies in this one."""
        if self.dim != other.dim:
            raise DimensionMismatch("polytope dimension mismatch")
        if self.is_empty():
            return (other.vertices[0], None) if other.ipts else None
        eqs, ineqs = self.integer_halfspaces()
        rows = [(ne, h) for h in eqs] + [(gt, h) for h in ineqs]
        for y in other.ipts:  # the vertex y / L', on integers: n.y L against c L'
            for breaks, (n, c, s) in rows:
                if breaks(sum(map(mul, n, y)) * self.L, c * other.L):
                    return tuple(Fraction(x, other.L) for x in y), (
                        tuple(Fraction(x, s) for x in n), Fraction(c, s * self.L))
        return None

    def contains(self, other: "Polytope") -> bool:
        """Q inside P iff no vertex of Q breaks a halfspace of P."""
        return self.first_outside(other) is None

    def volume(self) -> Fraction:
        """Exact d-dimensional volume (0 for lower-dimensional bodies)."""
        return self._volume

    def first_coordinate_range(self):
        """(min, max) of the first coordinate over the body."""
        if self.is_empty():
            raise ValueError("empty polytope")
        xs = [p[0] for p in self.ipts]
        return Fraction(min(xs), self.L), Fraction(max(xs), self.L)

    def translate(self, offset) -> "Polytope":
        """P + offset: the vertices shifted on integers over lcm(L, denominator
        of the offset), with P's hull data (`_moved`): no hull and no Minkowski sum."""
        o = [rat(x).as_integer_ratio() for x in offset]
        if len(o) != self.dim:
            raise DimensionMismatch("translation of a different ambient dimension")
        L = lcm(self.L, *(b for _, b in o))
        s, t = L // self.L, [a * (L // b) for a, b in o]
        moved = [tuple(s * x + y for x, y in zip(v, t)) for v in self.ipts]
        return _moved(self, self.dim, L, moved, s, [t[c] for c in self.cols or ()], self.rows,
                      self.cols, self._volume)

    def embed_prefix(self, value) -> "Polytope":
        """{value} x P inside R^{d+1}, with P's hull data moved one column on."""
        t = rat(value)
        L = lcm(self.L, t.denominator)
        head, s = t.numerator * (L // t.denominator), L // self.L
        return _moved(self, self.dim + 1, L, [(head, *(s * x for x in p)) for p in self.ipts], s,
                      (), [(0, *e) for e in self.rows or ()], [c + 1 for c in self.cols or ()],
                      Fraction(0))

    def to_json(self):
        L = self.L
        return {"dim": self.dim, "vertices": [[[x // (g := gcd(x, L)), L // g] for x in v]
                                              for v in self.ipts]}


# ---------------------------------------------------------------------------
# module-level operations (the public vocabulary)
# ---------------------------------------------------------------------------

def _vertex_sums(p: Polytope, q: Polytope) -> tuple[int, list]:
    """(L, sums): the pairwise vertex sums as integer points over L = lcm(p.L, q.L)."""
    if p.dim != q.dim:
        raise DimensionMismatch("Minkowski sum of different ambient dimensions")
    L = lcm(p.L, q.L)
    a, b = L // p.L, L // q.L
    return L, [tuple(a * x + b * y for x, y in zip(u, v)) for u in p.ipts for v in q.ipts]


@lru_cache(maxsize=4096)
def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Minkowski sum; the hull of pairwise vertex sums, taken on integers.

    Memoised on the two bodies: `additivity.slice_decomposition_replay`
    sums the same two bodies for every t of a case.
    """
    return integer_hull(p.dim, *_vertex_sums(p, q))


def sum_relation(p: Polytope, q: Polytope, r: Polytope) -> str:
    """"equal" if P = Q + R, "strict" if Q + R is a proper subset of P, else
    "outside", with no hull: Q + R lies in P iff h_Q(n) + h_R(n) <= c on each
    row (n, c) of P, an equality as two rows, and then P = Q + R iff each vertex
    of P is a vertex sum (Schneider, Convex Bodies, Thm 1.7.5)."""
    if not p.dim == q.dim == r.dim:
        raise DimensionMismatch("comparing polytopes of different dimensions")
    if q.is_empty() or r.is_empty() or p.is_empty():
        return "outside" if q.ipts and r.ipts else "strict" if p.ipts else "equal"
    L, (eqs, ineqs) = lcm(q.L, r.L), p.integer_halfspaces()

    def h(n):  # L (h_Q(n) + h_R(n)): |V(Q)| + |V(R)| dot products
        return sum(L // b.L * max(sum(map(mul, n, y)) for y in b.ipts) for b in (q, r))
    if any(h(n) * p.L > c * L for n, c, _ in eqs + ineqs) \
            or any(h(tuple(-x for x in n)) * p.L > -c * L for n, c, _ in eqs):
        return "outside"
    s, rem = divmod(L, p.L)
    scaled = {tuple(s * x for x in v) for v in p.ipts}
    return "strict" if rem or not scaled <= set(_vertex_sums(q, r)[1]) else "equal"


def scale(p: Polytope, c) -> Polytope:
    """{c x : x in P} for rational c >= 0.

    For c = a/b > 0 the hull data carry over (`_moved`), the volume times c^d.
    """
    c = rat(c)
    if c < 0:
        raise ValueError("scale factor must be nonnegative")
    if not c or p.is_empty():  # the hull of the origin, or of no point
        return integer_hull(p.dim, 1, [(0,) * p.dim for _ in p.ipts[:1]])
    a = c.numerator
    return _moved(p, p.dim, p.L * c.denominator, [tuple(a * x for x in v) for v in p.ipts],
                  a, (), p.rows, p.cols, p._volume * c ** p.dim)


def _moved(p: Polytope, dim, L, ipts, s, t, rows, cols, volume) -> Polytope:
    """The points ipts / L, P's vertices in order under x -> s x + t (s > 0, t on the pivot
    columns), with P's rank, facets (n, s c + n.t, s^(k-1) w) and edges, as `integer_hull` has."""
    if p.is_empty():
        return Polytope.empty(dim)
    out = Polytope(dim, L, ipts, (p.k, rows, cols, [
        (n, s * c + sum(map(mul, n, t)), s ** (p.k - 1) * w) for n, c, w in p.facets], volume),
        _trusted=True)
    out._edges = p._edges or p  # the vertex order is kept: P's edges, or P to build them
    return out


def mixed_volume(bodies) -> Fraction:
    """Mixed volume V(K_1, ..., K_d) of d bodies in R^d, by one of two routes.

    One distinct body: its volume.  Two distinct bodies A and B listed once
    and d - 1 times: Minkowski's formula d! V(A, B^(d-1)) = sum_F w_F h_A(n_F)
    over the facets of B (`_facet_mixed_volume`), with no Minkowski sum.
    Any other bodies: the facet formula polarized over the d - 1 bodies
    after K_1,

        (d-1)! V(K_1, ..., K_d) = sum_J (-1)^(d-1-|J|) V(K_1, (sum_J K_j)^(d-1)),

    J ranging over the nonempty subsets of {2..d}; the largest sum has
    d - 1 bodies, one in R^3.  A polarization whose sums are over
    ENUMERATION_BUDGET raises EnumerationBudgetError before it forms any.
    """
    bodies = list(bodies)
    if not bodies:
        raise ValueError("mixed_volume needs at least one body")
    d = bodies[0].dim
    if len(bodies) != d:
        raise ValueError(f"mixed_volume in R^{d} needs exactly {d} bodies")
    for b in bodies:
        if b.dim != d:
            raise DimensionMismatch("mixed_volume bodies of different dimensions")
        if b.is_empty():
            raise ValueError("mixed_volume of an empty body")
    distinct = list(dict.fromkeys(bodies))
    if len(distinct) == 1:
        return distinct[0].volume()
    if len(distinct) == 2:
        k_body, l_body = distinct
        j = bodies.count(k_body)
        if j == d - 1:  # V(K^(d-1), L) = V(L, K^(d-1))
            return _facet_mixed_volume(l_body, k_body)
        if j == 1:
            return _facet_mixed_volume(k_body, l_body)
    check_enumeration(prod(len(b.ipts) for b in bodies), "the Minkowski sum of the bodies")
    first, rest = bodies[0], bodies[1:]
    return sum((-1) ** (d - 1 - size) * _facet_mixed_volume(first, body)
               for size, body in _subset_sums(rest)) / factorial(d - 1)


def _facet_mixed_volume(k_body: Polytope, l_body: Polytope) -> Fraction:
    """V(K, L^(d-1)) by Minkowski's formula (Schneider, Convex Bodies, 5.1):

        d! V(K, L^(d-1)) = sum_F w_F h_K(n_F),

    over the facets F of L with primitive outer normal n_F and weight
    w_F = (d-1)! times the lattice volume of F, where h_K(n) = max n.x
    over the vertices x of K.  With K's points over K.L and L's weights in
    its integer coordinates over L.L, the sum is taken on integers over
    d! K.L L.L^(d-1).  A body L of affine rank d - 1 is its own facet,
    twice: normals +-nu for the primitive normal nu of its one affine-hull
    equality (`Polytope.integer_halfspaces`), and w = (d-1)! vol of its
    projection to the pivot columns divided by |nu_f| on the free column
    f.  Lower ranks give 0.
    """
    d, k = l_body.dim, l_body.k
    if k < d - 1:
        return Fraction(0)
    if k == d:
        terms = [(n, w) for n, _, w in l_body.facets]
    else:  # (d-1)! vol of the projection, from its own facets: sum w (c - n.q)
        (nu, _, nu_f), = l_body.integer_halfspaces()[0]
        q = [l_body.ipts[0][c] for c in l_body.cols]
        kvol = sum(w * (c - sum(map(mul, n, q))) for n, c, w in l_body.facets)
        w = kvol // abs(nu_f)
        terms = [(nu, w), (tuple(-x for x in nu), w)]
    total = sum(w * max(sum(map(mul, n, x)) for x in k_body.ipts) for n, w in terms)
    return Fraction(total, factorial(d) * k_body.L * l_body.L ** (d - 1))


def _subset_sums(bodies):
    """(|J|, sum_J K_j) for each nonempty subset J of the bodies, each sum
    formed from an earlier one and one body."""
    sums: dict[int, Polytope] = {}
    for mask in range(1, 1 << len(bodies)):
        low = mask & -mask
        rest = mask ^ low
        body = bodies[low.bit_length() - 1]
        sums[mask] = body if rest == 0 else minkowski_sum(sums[rest], body)
        yield mask.bit_count(), sums[mask]


def mixed_volume_by_polarization(bodies) -> Fraction:
    """Mixed volume of d nonempty bodies in R^d by the polarization formula:

        V(K_1,...,K_d) = (1/d!) sum_J (-1)^(d-|J|) vol(sum_{j in J} K_j).
    """
    d = len(bodies)
    return sum((-1) ** (d - size) * body.volume()
               for size, body in _subset_sums(bodies)) / factorial(d)


def slice_vertices(p: Polytope, t) -> tuple[int, list]:
    """(L, points): the vertices of {x in R^(d-1) : (t, x) in P}, sorted integer points over
    L with no common factor: the tails u' of the vertices at T = t p.L and the crossing of each
    edge uw with u_0 < T < w_0 (Ziegler, Lectures on Polytopes, 1995).  P keeps a cell per level
    and gap, built on first use: m = lcm(w_0 - u_0), m u' and (A, B) per crossing edge uw."""
    if p.dim < 2:
        raise ValueError("slice needs ambient dimension >= 2")
    t, vs = rat(t), p.ipts
    n, den = t.numerator * p.L, t.denominator
    if p._cells is None:  # the first coordinates of the sorted vertices, and the cells
        p._cells = [v[0] for v in vs], {}
    xs, cells = p._cells  # vs[lo:hi] lie at T, those before below it, those after above
    key = lo, hi = bisect_left(xs, -(-n // den)), bisect_right(xs, n // den)
    if (cell := cells.get(key)) is None:
        cross = [(vs[i], vs[j]) for i, j in p.edges() if i < lo and hi <= j]  # i < j
        m = lcm(*(w[0] - u[0] for u, w in cross))
        cell = cells[key] = m, [[m * x for x in v[1:]] for v in vs[lo:hi]], [
            ([f * (w[0] * x - u[0] * y) for x, y in zip(u[1:], w[1:])],  # A
             [f * (x - y) for x, y in zip(u[1:], w[1:])])  # B
            for u, w in cross for f in (m // (w[0] - u[0]),)]
    m, at, crossings = cell
    pts = sorted([[den * x for x in v] for v in at]  # the crossings (den A - n B) / (den m)
                 + [[den * a - n * b for a, b in zip(A, B)] for A, B in crossings])
    g = gcd(den * m * p.L, *(x for q in pts for x in q))
    return den * m * p.L // g, [tuple([x // g for x in q]) for q in pts]


def slice_at(p: Polytope, t) -> Polytope:
    """{x in R^(d-1) : (t, x) in P}: the slice at first coordinate t, one
    integer hull of its vertices (`slice_vertices`)."""
    return integer_hull(p.dim - 1, *slice_vertices(p, t))
