"""Newton-Okounkov bodies of torus-invariant divisors in closed form.

For the invariant flag of a smooth cone with ordered rays v_1, ..., v_d
the body of a big divisor D = sum a_rho D_rho is the image of its section
polytope, Delta(D) = phi(P_D) with phi(u) = (<u, v_i> + a_{v_i})_i
(Lazarsfeld-Mustata 2009, Prop. 6.1).  phi is a unimodular affine map, so
the vertices of P_D map onto the vertices of the body and no lattice
enumeration is needed.

A computed body carries an exactness flag: it is set when the class is nef
and d! vol(body) equals the top self-intersection number from the
mixed-volume route.  Big classes outside the nef cone have no such volume
oracle here and come back flagged inexact; the checkers refuse those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exactgeom import Polytope, slice_at
from .linalg import dot
from .toric import (
    AdmissibleFlag,
    TDivisor,
    intersection_number,
    mu,
    polytope_of_divisor,
    star_model,
)

__all__ = [
    "NOBody",
    "NonBigClassError",
    "NotAmpleError",
    "no_body_rational",
    "nef_body",
    "restricted_body",
    "slice_formula_check",
    "mu_endpoint_check",
]


class NonBigClassError(ValueError):
    pass


class NotAmpleError(ValueError):
    pass


@dataclass(frozen=True)
class NOBody:
    body: Polytope
    flag: tuple
    cls: tuple
    exact: bool

    def to_json(self):
        out = self.body.to_json()
        out.update({
            "flag": list(self.flag),
            "class": [[c.numerator, c.denominator] for c in self.cls],
            "exact": self.exact,
        })
        return out


@lru_cache(maxsize=None)
def _section_image(divisor: TDivisor, flag: AdmissibleFlag) -> NOBody:
    """phi(P_D) for the flag, with the nef volume certificate.

    Memoised on the divisor and flag objects, which compare their fans by
    identity, so two fans that share a name never share a body.  D need not
    be big: the nu_1 = 0 slice of phi(P_D), which is phi of the face
    P_D & {<u, v_1> = -a_{v_1}}, is the valuation image of the sections
    restricted to E = Y_1.
    """
    fan = flag.fan
    d = fan.dim
    rays = [fan.rays[i] for i in flag.ray_indices]
    shifts = [divisor.coeffs[i] for i in flag.ray_indices]
    body = Polytope.hull(
        [tuple(dot(u, r) + a for r, a in zip(rays, shifts))
         for u in polytope_of_divisor(fan, divisor).vertices], dim=d)
    exact = (fan.classes.is_nef(divisor.cls)
             and factorial(d) * body.volume()
             == intersection_number(fan, [divisor] * d))
    return NOBody(body=body, flag=flag.ray_indices, cls=divisor.cls, exact=exact)


def no_body_rational(divisor: TDivisor, flag: AdmissibleFlag) -> NOBody:
    """Body of a big rational class."""
    fan = flag.fan
    if not fan.classes.is_big(divisor.cls):
        raise NonBigClassError(f"class {divisor.cls} is not big on {fan.name}")
    return _section_image(divisor, flag)


def nef_body(divisor: TDivisor, flag: AdmissibleFlag) -> NOBody:
    """Body of a nef class, allowing the non-big (lower-dimensional) case.

    phi(P_D) is the natural extension of the body to the nef boundary; for
    non-big classes it is lower-dimensional (e.g. a horizontal segment for
    a ruling class on a quadric), and the volume identity d! vol = D^d
    pins 0 = 0.
    """
    fan = flag.fan
    if not fan.classes.is_nef(divisor.cls):
        raise ValueError(f"class {divisor.cls} is not nef on {fan.name}")
    return _section_image(divisor, flag)


def restricted_body(divisor: TDivisor, flag: AdmissibleFlag, t_shift=0) -> NOBody:
    """Body of (N - t O(Y_1)) restricted to E = Y_1, on the star model.

    Only ample arguments are accepted: ampleness makes the restriction maps
    eventually surjective, so the restricted body equals the full body of
    the restriction on Y_1.  For non-ample arguments the image can be
    strictly smaller and this routine refuses rather than substitute.
    """
    fan = flag.fan
    if fan.dim < 2:
        raise ValueError("restricted bodies need dimension >= 2")
    arg = divisor - flag.divisor_of_y1().scaled(t_shift)
    if not fan.classes.is_ample(arg.cls):
        raise NotAmpleError(
            f"restricted body needs an ample argument; got class {arg.cls}")
    sm = star_model(fan, flag)
    return no_body_rational(sm.restrict_divisor(arg), sm.star_flag)


def slice_formula_check(divisor: TDivisor, flag: AdmissibleFlag, t):
    """Verify slice-at-t == {t} x restricted body of (M - t O(Y_1)).

    Returns (True, None) or (False, witness) with a witness vertex in the
    symmetric difference.  Preconditions: 0 <= t < mu(M; Y_1) and the
    shifted class ample (so the restricted body is the star-model body).
    """
    fan = flag.fan
    t = Fraction(t)
    e_cls = flag.divisor_of_y1().cls
    endpoint = mu(fan, divisor, e_cls)
    if not 0 <= t < endpoint:
        raise ValueError(f"t={t} outside [0, mu) = [0, {endpoint})")
    nb = no_body_rational(divisor, flag)
    if not nb.exact:
        raise ValueError("body of M could not be certified exact")
    lhs = slice_at(nb.body, t)
    rhs_nb = restricted_body(divisor, flag, t_shift=t)
    if not rhs_nb.exact:
        raise ValueError("restricted body could not be certified exact")
    rhs = rhs_nb.body
    if lhs == rhs:
        return True, None
    for v in lhs.vertices:
        if not rhs.contains_point(v):
            return False, v
    for v in rhs.vertices:
        if not lhs.contains_point(v):
            return False, v
    return False, None


def mu_endpoint_check(divisor: TDivisor, flag: AdmissibleFlag) -> bool:
    """mu from the cone inequalities == max first coordinate of the body."""
    fan = flag.fan
    e_cls = flag.divisor_of_y1().cls
    endpoint = mu(fan, divisor, e_cls)
    nb = no_body_rational(divisor, flag)
    if not nb.exact:
        raise ValueError("body could not be certified exact")
    _, top = nb.body.first_coordinate_range()
    return top == endpoint
