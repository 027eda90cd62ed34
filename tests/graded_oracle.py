"""Graded valuation families by lattice enumeration: a test-only oracle.

The body of a big divisor is the closed convex hull of the normalized
valuation vectors of all sections of all its multiples.  On a toric
testbed the sections of m D have a monomial basis indexed by the lattice
points of m P_D, so each graded level is a finite explicit set.  The
package computes bodies in closed form, as the image of P_D under the
valuation map; these helpers enumerate the levels from the definition so
the tests can check the closed form against it.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor

from fraction_oracle import common_denominator, solve
from oklab.exactgeom import Polytope
from fraction_oracle import dot
from oklab.linalg import vec
from oklab.toric import polytope_of_divisor


def _integral(divisor):
    if common_denominator([divisor.coeffs]) != 1:
        raise ValueError("graded levels need an integral divisor; clear denominators first")
    return [int(c) for c in divisor.coeffs]


def lattice_points(fan, divisor):
    """Integer points of P_D for an integral D (empty list when P_D is empty)."""
    a = _integral(divisor)
    p = polytope_of_divisor(fan, divisor)
    if p.is_empty():
        return []
    ranges = [range(ceil(min(v[j] for v in p.vertices)),
                    floor(max(v[j] for v in p.vertices)) + 1) for j in range(fan.dim)]
    return [u for u in product(*ranges)
            if all(sum(x * y for x, y in zip(u, r)) >= -c for r, c in zip(fan.rays, a))]


def level(flag, divisor, m):
    """Valuation vectors of the sections of m D, for an integral D.

    The monomial section chi^u of O(mD) vanishes to order <u, v_i> + m a_i
    along the i-th flag divisor, in the flag's ray order.
    """
    if m < 1:
        raise ValueError("graded level must be >= 1")
    a = [m * c for c in _integral(divisor)]
    rays = [(flag.fan.rays[i], a[i]) for i in flag.ray_indices]
    return frozenset(tuple(sum(x * y for x, y in zip(u, r)) + c for r, c in rays)
                     for u in lattice_points(flag.fan, divisor.scaled(m)))


def face_tails(fan, flag, divisor):
    """Valuation tails (nu_2, ..., nu_d) of the lattice points with nu_1 = 0.

    Works in the unimodular coordinates c = (<u, v_1>, ..., <u, v_d>) of
    the flag cone, where nu_1 = 0 pins c_1, so only a (d-1)-dimensional
    box is enumerated.  These are the valuation vectors of the nonzero
    restricted monomial sections on Y_1.
    """
    a = _integral(divisor)
    d = fan.dim
    p = polytope_of_divisor(fan, divisor)
    if p.is_empty():
        return []
    rrows = [[Fraction(fan.rays[i][j]) for j in range(d)] for i in flag.ray_indices]
    inv_cols = [solve(rrows, [Fraction(1 if j == k else 0) for j in range(d)])
                for k in range(d)]
    # t_rho . c = <u, v_rho> when c = (<u, v_i>)_i over the flag basis
    trays = [tuple(int(sum(inv_cols[k][j] * r[j] for j in range(d))) for k in range(d))
             for r in fan.rays]
    cverts = [tuple(dot(vec(fan.rays[i]), v) for i in flag.ray_indices)
              for v in p.vertices]
    ranges = [range(ceil(min(cv[k] for cv in cverts)),
                    floor(max(cv[k] for cv in cverts)) + 1) for k in range(1, d)]
    c1 = -a[flag.ray_indices[0]]
    tails = []
    for rest in product(*ranges):
        c = (c1,) + rest
        if all(sum(x * y for x, y in zip(c, t)) >= -coeff for t, coeff in zip(trays, a)):
            tails.append(tuple(c[k] + a[flag.ray_indices[k]] for k in range(1, d)))
    return tails


def graded_body(divisor, flag, m_max=3):
    """Hull of the normalized valuation vectors {level m of pD} / (m p)
    through level m_max, where p clears the denominators of D."""
    p = common_denominator([divisor.coeffs])
    base = divisor.scaled(p)
    points = {tuple(Fraction(x, m * p) for x in v)
              for m in range(1, m_max + 1) for v in level(flag, base, m)}
    return Polytope.hull(points, dim=flag.fan.dim)


def restriction_image(divisor, flag, m_max=3):
    """Hull of the normalized restricted valuations through level m_max,
    with whether the hulls of levels 1, 2 and 3 agree and are nonempty."""
    fan = flag.fan
    p = common_denominator([divisor.coeffs])
    base = divisor.scaled(p)
    points = set()
    hulls = []
    for m in range(1, m_max + 1):
        for tail in face_tails(fan, flag, base.scaled(m)):
            points.add(tuple(Fraction(x, m * p) for x in tail))
        hulls.append(Polytope.hull(points, dim=fan.dim - 1))
    stable = len(hulls) >= 3 and hulls[0] == hulls[1] == hulls[2] and not hulls[0].is_empty()
    return hulls[-1], stable
