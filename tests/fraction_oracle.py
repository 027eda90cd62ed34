"""Gauss-Jordan elimination, the ray-support intersection form and Lagrange
interpolation over Fractions: test-only oracles.

The package answers every linear question by an integer closed form (the
adjugate of a square integer matrix, Cramer's rule on pivot columns, one
2x2 minor).  These helpers solve the same systems by plain rational row
reduction, so the tests can check the closed forms against them.  The
package contracts the intersection form on classes; `ray_form` expands it
over the ray coefficients instead.  The package interpolates on integers
over one denominator; `interpolate` adds up the Lagrange terms in Fractions.
The package spans P_D by integer points over one denominator;
`subset_loop_polytope` solves every d facet equations in Fractions.  The
package builds a body's halfspaces on integers; `fraction_halfspaces`
divides them once, and `adjugate_halfspaces` builds each entry as a
Fraction.  The package takes dot products on integers; `dot` sums
products of Fractions.  The package decides the necessary condition by
whether mu adds; `segment_on_boundary` tests the pseudo-effective
boundary it stands for, row by row.
"""

from fractions import Fraction
from functools import cache, partial
from itertools import combinations, product
from math import lcm, prod

from oklab.exactgeom import Polytope
from oklab.linalg import adjugate
from oklab.toric import _monomial


def dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def common_denominator(points):
    return lcm(*(x.denominator for p in points for x in p))


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        if r >= len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def solve(a, b):
    """One exact solution x of A x = b, or None if inconsistent.

    For underdetermined systems the free variables are set to 0.
    """
    red, pivots = rref([list(r) + [bv] for r, bv in zip(a, b, strict=True)])
    ncols = len(a[0]) if a else 0
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return tuple(x)


def nullspace(rows):
    """Basis of the right kernel of the matrix, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = -row[f]
        basis.append(tuple(v))
    return basis


def ray_form(fan, coeff_vectors):
    """D_1 ... D_d for d ray-coefficient vectors: the sum, over one nonzero
    coefficient of each vector, of their product times the ray monomial."""
    monomial = cache(partial(_monomial, fan))
    supports = [[(i, Fraction(a)) for i, a in enumerate(v) if a] for v in coeff_vectors]
    return sum((prod(a for _, a in picks) * monomial(tuple(sorted(i for i, _ in picks)))
                for picks in product(*supports)), Fraction(0))


def interpolate(values):
    """Coefficients c_0..c_{n-1} of the polynomial of degree < n that takes
    values[s] at s = 0..n-1: each Lagrange term added in Fractions."""
    n = len(values)
    coeffs = [Fraction(0)] * n
    for s, v in enumerate(values):
        basis, den = [1], 1
        for t in range(n):
            if t != s:
                basis = [a - t * b for a, b in zip([0] + basis, basis + [0])]
                den *= s - t
        for j, b in enumerate(basis):
            coeffs[j] += Fraction(v) * b / den
    return coeffs


def subset_loop_polytope(fan, divisor):
    """P_D = {u : <u, v_rho> >= -a_rho} as the hull of the points where d
    independent facet hyperplanes meet and every inequality holds."""
    a, n, d = divisor.coeffs, len(fan.rays), fan.dim
    points = []
    for sub in combinations(range(n), d):
        if len(rref([fan.rays[i] for i in sub])[1]) == d:
            u = solve([fan.rays[i] for i in sub], [-a[i] for i in sub])
            if all(sum(x * y for x, y in zip(u, fan.rays[i])) >= -a[i] for i in range(n)):
                points.append(u)
    return Polytope.hull(points, dim=d)


def fraction_halfspaces(body):
    """(equalities, inequalities): the Fraction view (n / s, c / (s L)) of
    `integer_halfspaces`, pairs (normal, offset) with the body {x : n.x = c
    on equalities, n.x <= c on inequalities}; an equality's normal is 1 on
    its free column."""
    return tuple([(tuple(Fraction(x, s) for x in n), Fraction(c, s * body.L))
                  for n, c, s in part] for part in body.integer_halfspaces())


def adjugate_halfspaces(body):
    """(equalities, inequalities) of a nonempty body as Fraction pairs
    (normal, offset): one equality normal w per free column f, w_f = 1 and
    w on the pivot columns by Cramer's rule on the echelon rows' pivot
    block, and each facet normal put back on the pivot columns."""
    d, rows, cols = body.dim, body.rows, body.cols
    p0 = tuple(Fraction(x, body.L) for x in body.ipts[0])
    free = [f for f in range(d) if f not in cols]
    adj, det = adjugate([[e[c] for c in cols] for e in rows]) if free else ([], 1)
    eqs = []
    for f in free:
        w = [Fraction(int(j == f)) for j in range(d)]
        for j, c in enumerate(cols):
            w[c] = Fraction(-sum(e[f] * a[j] for e, a in zip(rows, adj)), det)
        eqs.append((tuple(w), dot(w, p0)))
    ineqs = []
    for n, c, _ in body.facets:
        normal = [Fraction(0)] * d
        for col, x in zip(cols, n):
            normal[col] = Fraction(x)
        ineqs.append((tuple(normal), Fraction(c, body.L)))
    return eqs, ineqs


def boundary_membership(classes, y):
    """Exact trichotomy of the class y against the pseudo-effective cone."""
    low = min(dot(g, y) for g in classes.eff_rows)
    return "outside" if low < 0 else "boundary" if low == 0 else "interior"


def segment_on_boundary(classes, a, b):
    """Whether the segment [a, b] lies on the pseudo-effective boundary.  Each
    facet pairing is linear along it and nonnegative at boundary ends, so it
    does iff both ends are boundary classes and one facet row vanishes at both."""
    return (boundary_membership(classes, a) == boundary_membership(classes, b) == "boundary"
            and any(not dot(g, a) and not dot(g, b) for g in classes.eff_rows))
