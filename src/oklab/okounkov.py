"""Newton-Okounkov bodies of torus-invariant divisors in closed form.

For the invariant flag of a smooth cone with ordered rays v_1, ..., v_d
the body of a big divisor D = sum a_rho D_rho is the image of its section
polytope, Delta(D) = phi(P_D) with phi(u) = (<u, v_i> + a_{v_i})_i
(Lazarsfeld-Mustata 2009, Prop. 6.1).  phi is a unimodular affine map, the
flag's: `AdmissibleFlag.section_image` sends the integer points spanning P_D
onto points spanning the body (for nef D, one per maximal cone from one table
per flag), so each body is one integer hull.  The body depends only on the
class of D and Delta(c D) = c Delta(D) for c > 0 (ibid., Prop. 4.1), so each ray
of classes takes one hull per flag (`_ray_body`).  This module keeps only bodies and their
certificates (`NOBody`); cone intervals are `NumClassSpace.interval`.

A body is certified once, where it is hulled: for a nef class d! vol(body)
must equal the top self-intersection number D^d, and a body that fails
raises CertificateError, a hard invariant violation like a failed
Minkowski inclusion.  D^d comes from the fan's intersection form and
touches no polytope, so the two sides of the certificate are independent.
A scaled body carries its ray's certificate: d! vol(c B) = c^d D^d = (c D)^d.
So a body is flagged exact exactly when its class is nef.  Big classes
outside the nef cone have no such volume oracle here and come back flagged
inexact; the checkers that accept big classes refuse those.

The slice formula Delta(M) & {nu_1 = t} = {t} x Delta_{Y_1}((M - t Y_1)|_{Y_1}) is
checked on a grid of t at once (`slice_formula_checks`) from one interval of t with
M - t Y_1 ample (`ample_interval`, the class interval on the Kleiman rows) and one class
line r(M) - t r(Y_1) per case, restriction being linear, and each slice reads the cell
of its level that the body keeps: no divisor, no polytope and no scan of the body per t.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .exactgeom import Polytope, integer_hull, scale, slice_at, slice_vertices
from .linalg import rat
from .toric import (
    AdmissibleFlag,
    TDivisor,
    mu,
    star_model,
)


class NonBigClassError(ValueError):
    pass


class NotAmpleError(ValueError):
    pass


class CertificateError(AssertionError):
    """A nef body failed d! vol = D^d: the implementation is broken."""


class NOBody:
    """A body and whether it is certified exact; `oklab body` adds the flag and
    class.  `==` compares both fields."""

    def __init__(self, body: Polytope, exact: bool):
        self.body, self.exact = body, exact

    def __eq__(self, other):
        return type(other) is NOBody and vars(self) == vars(other)


# (class (y, q), flag) -> its body; the primitive classes (y', 1) hold the ray bodies
_BODIES: dict = {}


def body(divisor: TDivisor, flag: AdmissibleFlag) -> NOBody:
    """phi(P_D) for the flag, one integer hull of the flag's image of the points
    spanning P_D; a nef class must pass the volume certificate.  The class is
    not checked: `no_body_rational`, `nef_body` and `cor15_check` check it first.

    Memoised on (class, flag), flags comparing fans by identity, so two fans
    that share a name never share a body.  The body depends only on the
    class (D + div(chi^m) moves P_D by -m and a by <m, v>), and the class
    c y' has c times the body of the primitive integer class y': D's class
    is split into y' and c = g / q, and every class on the ray is a scaled
    copy of the ray body (`_ray_body`) that inherits its certificate.  The
    zero class is its own ray.
    D need not be big: the nu_1 = 0 slice of phi(P_D), which is phi of the
    face P_D & {<u, v_1> = -a_{v_1}}, is the valuation image of the sections
    restricted to E = Y_1.
    """
    if (nb := _BODIES.get(key := (divisor.num_class, flag))) is not None:
        return nb
    y, q = key[0]
    g = gcd(*y) or 1  # the zero class (gcd 0) has c = 1
    ray = _ray_body(tuple(a // g for a in y), flag)
    nb = _BODIES[key] = ray if g == q else NOBody(scale(ray.body, Fraction(g, q)), ray.exact)
    return nb


def _ray_body(prim: tuple, flag: AdmissibleFlag) -> NOBody:
    """The body of the primitive integer class y' = prim under the ray key ((y', 1), flag),
    hulled and certified, from the divisor of the class, on the ray's first request."""
    if (ray := _BODIES.get(key := ((prim, 1), flag))) is None:
        fan, d = flag.fan, flag.fan.dim
        div = fan.classes.divisor_from_class(prim)
        image = integer_hull(d, *flag.section_image(div))
        nef = fan.classes.is_nef(prim)
        if nef and factorial(d) * image.volume() != fan.classes.form([(prim, 1)] * d):
            raise CertificateError(f"d! vol of the body of nef class "
                                   f"{div.class_text()} is not D^d on {fan.name}")
        ray = _BODIES[key] = NOBody(image, nef)
    return ray


def no_body_rational(divisor: TDivisor, flag: AdmissibleFlag) -> NOBody:
    """Body of a big rational class."""
    if not flag.fan.classes.is_big(divisor.num_class[0]):
        raise NonBigClassError(f"class {divisor.class_text()} is not big on {flag.fan.name}")
    return body(divisor, flag)


def nef_body(divisor: TDivisor, flag: AdmissibleFlag) -> NOBody:
    """Body of a nef class, allowing the non-big (lower-dimensional) case.

    phi(P_D) is the natural extension of the body to the nef boundary; for
    non-big classes it is lower-dimensional (e.g. a horizontal segment for
    a ruling class on a quadric), and the volume identity d! vol = D^d
    pins 0 = 0.
    """
    if not flag.fan.classes.is_nef(divisor.num_class[0]):
        raise ValueError(f"class {divisor.class_text()} is not nef on {flag.fan.name}")
    return body(divisor, flag)


def restricted_body(divisor: TDivisor, flag: AdmissibleFlag) -> NOBody:
    """Body of N restricted to E = Y_1, on the star model.

    Only ample arguments are accepted: ampleness makes the restriction maps
    eventually surjective, so the restricted body equals the full body of
    the restriction on Y_1.  For non-ample arguments the image can be
    strictly smaller and this routine refuses rather than substitute.
    """
    if not flag.fan.classes.is_ample(divisor.num_class[0]):
        raise NotAmpleError(
            f"restricted body needs an ample argument; got class {divisor.class_text()}")
    sm = star_model(flag)
    return no_body_rational(sm.restrict_divisor(divisor), sm.star_flag)


def ample_interval(divisor: TDivisor, flag: AdmissibleFlag) -> tuple:
    """(lo, hi) with M - t O(Y_1) ample iff lo < t < hi, -inf or inf on an open
    side: the class interval on the Kleiman rows (Cox-Little-Schenck Thm 6.3.12)."""
    classes = flag.fan.classes
    return classes.interval(classes.nef_rows, divisor.num_class, flag.divisor_of_y1().num_class)


def slice_formula_checks(divisor: TDivisor, flag: AdmissibleFlag, ts) -> list:
    """`slice_formula_check` at each t of ts, with what depends only on (M, flag) done
    once: mu(M; Y_1), the ample interval, the body of M, the star model and the class
    line r(M) - t r(Y_1); only the smallest and largest t are range-checked.  Each right
    side is c times the ray body of the line's primitive vector; a divisor is built per t
    only on a ray miss or for a failing t's witness."""
    fan, y1, ts = flag.fan, flag.divisor_of_y1(), [rat(t) for t in ts]
    endpoint = mu(fan, divisor, y1)
    den = lcm(*[t.denominator for t in ts])
    nums = [t.numerator * (den // t.denominator) for t in ts]  # ts over one denominator
    ends = [ts[nums.index(min(nums))], ts[nums.index(max(nums))]] if ts else []
    if outside := [t for t in ends if not 0 <= t < endpoint]:
        raise ValueError(f"t={outside[0]} outside [0, mu) = [0, {endpoint})")
    lo, hi = ample_interval(divisor, flag)
    if bad := [t for t in ends if not lo < t < hi]:
        raise NotAmpleError(f"class {(divisor - y1.scaled(bad[0])).class_text()} is not ample")
    nb = no_body_rational(divisor, flag)
    if not nb.exact:
        raise ValueError("body of M could not be certified exact")
    sm = star_model(flag)
    rm, ry, star = sm.restrict_divisor(divisor), sm.restrict_divisor(y1), sm.star_flag
    (ym, qm), (yy, qy) = rm.num_class, ry.num_class

    def check(t):
        line = [a * qy * t.denominator - t.numerator * b * qm for a, b in zip(ym, yy)]
        g = gcd(*line) or 1  # the class is line / (t.den qm qy), so c = g / (t.den qm qy)
        rb = _ray_body(tuple(a // g for a in line), star).body
        L, pts = slice_vertices(nb.body, t)
        a, b = g * L, t.denominator * qm * qy * rb.L  # pts / L = c ray iff b pts = a ray
        if [[b * x for x in u] for u in pts] == [[a * y for y in v] for v in rb.ipts]:
            return True, None
        lhs, rhs = slice_at(nb.body, t), body(rm - ry.scaled(t), star).body
        found = rhs.first_outside(lhs) or lhs.first_outside(rhs)  # None iff lhs == rhs
        return (False, found[0]) if found else (True, None)
    return [check(t) for t in ts]


def slice_formula_check(divisor: TDivisor, flag: AdmissibleFlag, t):
    """Verify slice-at-t == {t} x restricted body of (M - t O(Y_1)).

    Returns (True, None) or (False, witness) with a witness vertex in the
    symmetric difference.  Preconditions: 0 <= t < mu(M; Y_1) and the
    shifted class ample (so the restricted body is the star-model body).
    The one-element call of `slice_formula_checks`.
    """
    return slice_formula_checks(divisor, flag, [t])[0]
