"""Exact convex-body arithmetic over the rationals.

Polytopes live in Q^d and are stored by their canonical V-representation:
the lexicographically sorted tuple of extreme points.  Every operation
(hulls, Minkowski sums, scalings, slices, volumes, mixed volumes) is pure
and exact; no floating point appears anywhere.  Lower-dimensional bodies
(segments in the plane, faces of slices, ...) are first-class values with
d-volume 0.

The hull core is a beneath-beyond incremental algorithm run on integer
coordinates (points are scaled by a common denominator first), so all
orientation predicates are exact integer determinants.  H-representations
are derived on demand from the canonical vertices and cached per instance.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

from .linalg import (
    Vec,
    common_denominator,
    cross_normal_int,
    det_int,
    dot,
    nullspace,
    rank,
    rat,
    solve,
    to_int_points,
    vec,
    vsub,
)

__all__ = [
    "Polytope",
    "FormalBody",
    "convex_hull",
    "minkowski_sum",
    "scale",
    "mixed_volume",
    "slice_at",
    "equals",
]


class DimensionMismatch(ValueError):
    pass


def _check_same_dim(points) -> int:
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise DimensionMismatch(f"points of mixed ambient dimensions {sorted(dims)}")
    return dims.pop()


# ---------------------------------------------------------------------------
# hull core (integer coordinates)
# ---------------------------------------------------------------------------

def _affine_rank_basis(pts: list[Vec]) -> list[int]:
    """Indices i with pts[i]-pts[0] forming a basis of the affine hull."""
    idx = []
    diffs = []
    for i in range(1, len(pts)):
        d = vsub(pts[i], pts[0])
        if rank(diffs + [list(d)]) > len(diffs):
            diffs.append(list(d))
            idx.append(i)
    return idx


def _incremental_hull(pts: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Facet simplices of the hull of affinely spanning integer points.

    Returns triples (vertex indices, outward integer normal n, offset c)
    with the hull contained in n.x <= c.  Input must be deduplicated,
    lexicographically sorted and of affine rank k = len(pts[0]) >= 2.
    """
    k = len(pts[0])
    base = [0] + _affine_rank_basis([vec(p) for p in pts])
    if len(base) != k + 1:
        raise ValueError("points do not affinely span")
    zsum = tuple(sum(pts[i][j] for i in base) for j in range(k))

    def make_face(verts: tuple[int, ...]):
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


def _facets_from_faces(faces) -> list[tuple[tuple[int, ...], int]]:
    """Deduplicate simplicial face planes into primitive facet inequalities."""
    seen = {}
    for _, n, c in faces:
        g = 0
        for x in n:
            g = gcd(g, abs(x))
        g = gcd(g, abs(c))
        if g > 1:
            n = tuple(x // g for x in n)
            c = c // g
        seen[(n, c)] = True
    return sorted(seen)


def _extreme_indices(int_pts, facets, k) -> list[int]:
    """Vertices = points whose active facet normals span R^k."""
    out = []
    for i, p in enumerate(int_pts):
        active = [n for n, c in facets
                  if sum(a * b for a, b in zip(n, p)) == c]
        if len(active) >= k and rank([vec(n) for n in active]) == k:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# Polytope
# ---------------------------------------------------------------------------

class Polytope:
    """Canonical exact polytope: sorted minimal vertex list in Q^d."""

    __slots__ = ("dim", "vertices", "_geom", "_volume")

    def __init__(self, dim: int, vertices: tuple[Vec, ...], _trusted=False):
        if not _trusted:
            raise TypeError("use Polytope.hull / Polytope.empty / Polytope.point")
        self.dim = dim
        self.vertices = vertices
        self._geom = None
        self._volume = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(dim: int) -> "Polytope":
        return Polytope(dim, (), _trusted=True)

    @staticmethod
    def point(coords) -> "Polytope":
        v = vec(coords)
        return Polytope(len(v), (v,), _trusted=True)

    @staticmethod
    def hull(points, dim: int | None = None) -> "Polytope":
        pts = sorted({vec(p) for p in points})
        if not pts:
            if dim is None:
                raise ValueError("empty hull needs an explicit ambient dimension")
            return Polytope.empty(dim)
        d = _check_same_dim(pts)
        if dim is not None and dim != d:
            raise DimensionMismatch(f"expected dimension {dim}, got {d}")
        verts = _canonical_vertices(pts, d)
        return Polytope(d, tuple(verts), _trusted=True)

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Polytope)
                and self.dim == other.dim and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        if self.is_empty():
            return f"Polytope(empty, R^{self.dim})"
        return f"Polytope({len(self.vertices)} vertices, R^{self.dim})"

    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def affine_dim(self) -> int:
        """Dimension of the affine hull (-1 for the empty body)."""
        if self.is_empty():
            return -1
        return self._geometry()["k"]

    # -- derived geometry ----------------------------------------------------

    def _geometry(self):
        """Affine data, facet inequalities and equalities (cached)."""
        if self._geom is not None:
            return self._geom
        if self.is_empty():
            raise ValueError("empty polytope has no geometry")
        pts = list(self.vertices)
        d = self.dim
        base = _affine_rank_basis(pts)
        k = len(base)
        geom = {"k": k, "p0": pts[0]}
        if k == d:
            L = common_denominator(pts)
            ipts = to_int_points(pts, L)
            if d == 1:
                lo, hi = ipts[0][0], ipts[-1][0]
                facets = [((1,), hi), ((-1,), -lo)]
                faces = []
            else:
                faces = _incremental_hull(ipts)
                facets = _facets_from_faces(faces)
            geom.update(L=L, ipts=ipts, faces=faces)
            geom["equalities"] = []
            geom["inequalities"] = [
                (vec(n), Fraction(c, L)) for n, c in facets]
        else:
            basis = [vsub(pts[i], pts[0]) for i in base]  # k ambient vectors
            brows = [[b[j] for b in basis] for j in range(d)]  # d x k
            coords = [solve(brows, vsub(p, pts[0])) for p in pts]
            L = common_denominator(coords)
            ipts = to_int_points(coords, L)
            geom.update(L=L, ipts=ipts, faces=None)
            bt = [list(b) for b in basis]  # k x d
            geom["equalities"] = [
                (w, dot(w, pts[0])) for w in nullspace(bt)] if k else [
                (vec(e), pts[0][j])
                for j, e in enumerate(_std_basis(d))]
            ineqs = []
            if k == 1:
                lo, hi = ipts[0][0], ipts[-1][0]
                local = [((1,), hi), ((-1,), -lo)]
            elif k >= 2:
                local = _facets_from_faces(_incremental_hull(ipts))
            else:
                local = []
            for n, c in local:
                namb = solve(bt, [Fraction(L * x) for x in n])
                ineqs.append((namb, rat(c) + dot(namb, pts[0])))
            geom["inequalities"] = ineqs
        self._geom = geom
        return geom

    def halfspaces(self):
        """(equalities, inequalities): pairs (normal, offset).

        The body is {x : n.x = c on equalities, n.x <= c on inequalities};
        equalities cut out the affine hull of lower-dimensional bodies.
        """
        g = self._geometry()
        return list(g["equalities"]), list(g["inequalities"])

    def contains_point(self, point) -> bool:
        if self.is_empty():
            return False
        q = vec(point)
        if len(q) != self.dim:
            raise DimensionMismatch("point/polytope dimension mismatch")
        eqs, ineqs = self.halfspaces()
        return (all(dot(n, q) == c for n, c in eqs)
                and all(dot(n, q) <= c for n, c in ineqs))

    def contains(self, other: "Polytope") -> bool:
        if self.dim != other.dim:
            raise DimensionMismatch("polytope dimension mismatch")
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        return all(self.contains_point(v) for v in other.vertices)

    def volume(self) -> Fraction:
        """Exact d-dimensional volume (0 for lower-dimensional bodies)."""
        if self._volume is not None:
            return self._volume
        if self.is_empty():
            self._volume = Fraction(0)
            return self._volume
        g = self._geometry()
        d = self.dim
        if g["k"] < d:
            self._volume = Fraction(0)
        elif d == 1:
            lo, hi = g["ipts"][0][0], g["ipts"][-1][0]
            self._volume = Fraction(hi - lo, g["L"])
        else:
            ipts = g["ipts"]
            q0 = ipts[0]
            total = 0
            for verts, _, _ in g["faces"]:
                if 0 in verts:
                    continue
                rows = [[x - y for x, y in zip(ipts[v], q0)] for v in verts]
                total += abs(det_int(rows))
            self._volume = Fraction(total, factorial(d) * g["L"] ** d)
        return self._volume

    def first_coordinate_range(self):
        """(min, max) of the first coordinate over the body."""
        if self.is_empty():
            raise ValueError("empty polytope")
        xs = [v[0] for v in self.vertices]
        return min(xs), max(xs)

    def translate(self, offset) -> "Polytope":
        off = vec(offset)
        if self.is_empty():
            return self
        if len(off) != self.dim:
            raise DimensionMismatch("translation dimension mismatch")
        verts = tuple(tuple(x + o for x, o in zip(v, off)) for v in self.vertices)
        return Polytope(self.dim, verts, _trusted=True)  # lex order preserved

    def embed_prefix(self, value) -> "Polytope":
        """{value} x P inside R^{d+1}."""
        t = rat(value)
        verts = tuple((t,) + v for v in self.vertices)
        return Polytope(self.dim + 1, verts, _trusted=True)

    def to_json(self):
        return {
            "dim": self.dim,
            "vertices": [[[x.numerator, x.denominator] for x in v]
                         for v in self.vertices],
        }


def _std_basis(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def _canonical_vertices(pts: list[Vec], d: int) -> list[Vec]:
    if len(pts) == 1:
        return pts
    base = _affine_rank_basis(pts)
    k = len(base)
    if k == 0:
        return [pts[0]]
    if k == d:
        L = common_denominator(pts)
        ipts = to_int_points(pts, L)
        coords = ipts
    else:
        basis = [vsub(pts[i], pts[0]) for i in base]
        brows = [[b[j] for b in basis] for j in range(d)]
        frac_coords = [solve(brows, vsub(p, pts[0])) for p in pts]
        L = common_denominator(frac_coords)
        coords = to_int_points(frac_coords, L)
    if k == 1:
        lo = min(range(len(pts)), key=lambda i: coords[i][0])
        hi = max(range(len(pts)), key=lambda i: coords[i][0])
        return sorted({pts[lo], pts[hi]})
    faces = _incremental_hull(coords)
    facets = _facets_from_faces(faces)
    corner_set = sorted({i for verts, _, _ in faces for i in verts})
    corner_pts = [coords[i] for i in corner_set]
    keep = _extreme_indices(corner_pts, facets, k)
    return sorted(pts[corner_set[i]] for i in keep)


# ---------------------------------------------------------------------------
# module-level operations (the public vocabulary)
# ---------------------------------------------------------------------------

def convex_hull(points, dim: int | None = None) -> Polytope:
    """Minimal canonical V-representation of the hull of rational points."""
    return Polytope.hull(points, dim=dim)


_MSUM_CACHE: dict = {}


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Minkowski sum; the hull of pairwise vertex sums."""
    if p.dim != q.dim:
        raise DimensionMismatch("Minkowski sum of different ambient dimensions")
    if p.is_empty() or q.is_empty():
        return Polytope.empty(p.dim)
    if len(q.vertices) == 1:
        return p.translate(q.vertices[0])
    if len(p.vertices) == 1:
        return q.translate(p.vertices[0])
    key = (p.dim, p.vertices, q.vertices)
    hit = _MSUM_CACHE.get(key)
    if hit is not None:
        return hit
    sums = [tuple(a + b for a, b in zip(u, v))
            for u in p.vertices for v in q.vertices]
    out = Polytope.hull(sums, dim=p.dim)
    if len(_MSUM_CACHE) < 200000:
        _MSUM_CACHE[key] = out
    return out


def scale(p: Polytope, c) -> Polytope:
    """{c x : x in P} for rational c >= 0."""
    c = rat(c)
    if c < 0:
        raise ValueError("scale factor must be nonnegative")
    if p.is_empty():
        return p
    if c == 0:
        return Polytope.point([0] * p.dim)
    verts = tuple(tuple(c * x for x in v) for v in p.vertices)
    return Polytope(p.dim, verts, _trusted=True)  # order preserved for c > 0


def mixed_volume(bodies) -> Fraction:
    """Mixed volume of d bodies in R^d via the polarization formula:

        V(K_1,...,K_d) = (1/d!) sum_J (-1)^(d-|J|) vol(sum_{j in J} K_j).
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
    sums: dict[int, Polytope] = {}
    total = Fraction(0)
    for mask in range(1, 1 << d):
        low = mask & -mask
        rest = mask ^ low
        body = bodies[low.bit_length() - 1]
        sums[mask] = body if rest == 0 else minkowski_sum(sums[rest], body)
        sign = -1 if (d - mask.bit_count()) % 2 else 1
        total += sign * sums[mask].volume()
    return total / factorial(d)


def slice_at(p: Polytope, t) -> Polytope:
    """{x in R^(d-1) : (t, x) in P}: the slice at first coordinate t.

    Computed from the V-representation: the hull of all crossings of
    vertex segments with the hyperplane (pairs that are not edges only
    contribute interior points, which the hull removes).
    """
    if p.dim < 2:
        raise ValueError("slice needs ambient dimension >= 2")
    t = rat(t)
    pts = [v[1:] for v in p.vertices if v[0] == t]
    below = [v for v in p.vertices if v[0] < t]
    above = [v for v in p.vertices if v[0] > t]
    for u in below:
        for w in above:
            lam = (t - u[0]) / (w[0] - u[0])
            pts.append(tuple(a + lam * (b - a) for a, b in zip(u[1:], w[1:])))
    return Polytope.hull(pts, dim=p.dim - 1)


def equals(p: Polytope, q: Polytope) -> bool:
    """Exact set equality, decided on canonical V-representations."""
    if p.dim != q.dim:
        raise DimensionMismatch("comparing polytopes of different dimensions")
    return p.vertices == q.vertices


# ---------------------------------------------------------------------------
# formal differences of convex bodies
# ---------------------------------------------------------------------------

class FormalBody:
    """Formal difference of convex bodies (vector-space completion).

    Represented as a pair (positive, negative) of nonempty polytopes;
    two pairs are equal iff pos + other.neg == other.pos + neg (the
    cancellation law for Minkowski sums).  No canonical form exists in
    general, so equality is tested through the defining relation.  A
    missing side is represented by the zero body {0}.
    """

    __slots__ = ("positive", "negative")

    def __init__(self, positive: Polytope, negative: Polytope | None = None):
        if negative is None:
            negative = Polytope.point([0] * positive.dim)
        if positive.dim != negative.dim:
            raise DimensionMismatch("formal body sides of different dimensions")
        if positive.is_empty() or negative.is_empty():
            raise ValueError("formal body sides must be nonempty convex bodies")
        self.positive = positive
        self.negative = negative

    @staticmethod
    def zero(dim: int) -> "FormalBody":
        z = Polytope.point([0] * dim)
        return FormalBody(z, z)

    def __eq__(self, other):
        if not isinstance(other, FormalBody):
            return NotImplemented
        return equals(minkowski_sum(self.positive, other.negative),
                      minkowski_sum(other.positive, self.negative))

    def __hash__(self):
        raise TypeError("FormalBody is unhashable (no canonical form)")

    def __add__(self, other: "FormalBody") -> "FormalBody":
        return FormalBody(minkowski_sum(self.positive, other.positive),
                          minkowski_sum(self.negative, other.negative))

    def scaled(self, c) -> "FormalBody":
        c = rat(c)
        if c >= 0:
            return FormalBody(scale(self.positive, c), scale(self.negative, c))
        return FormalBody(scale(self.negative, -c), scale(self.positive, -c))

    def is_convex_body(self) -> bool:
        """True if the class is represented by an honest convex body."""
        return len(self.negative.vertices) == 1

    def as_polytope(self) -> Polytope:
        """The represented body when the negative side is a point."""
        if not self.is_convex_body():
            raise ValueError("formal body with a nontrivial negative side")
        return self.positive.translate(tuple(-x for x in self.negative.vertices[0]))

    def __repr__(self):
        return f"FormalBody({self.positive!r} - {self.negative!r})"
