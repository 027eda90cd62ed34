"""Smooth projective fans by repeated star subdivision: a test-only generator.

Blowing up the orbit closure of a cone tau of a smooth fan adds the ray
v = sum of the rays of tau and replaces every maximal cone containing tau
by the cones that trade one ray of tau for v.  The result is again smooth,
complete and projective, so repeated blow-ups of the shipped testbeds give
fans of any size.  A divisor pulls back with coefficient sum_{i in tau} a_i
on the new ray, and pulling back keeps a nef divisor nef and its top
self-intersection unchanged.
"""

import random
from itertools import combinations

from hypothesis import strategies as st

from oklab.toric import Fan, testbed

# the anticanonical divisor (all coefficients 1) is ample on each of these
BASES = ("p2", "p1xp1", "f1", "p3", "p1xp1xp1")


def star_subdivision(rays, cones, tau):
    """Rays and maximal cones of the blow-up along the cone tau."""
    v = [sum(rays[i][j] for i in tau) for j in range(len(rays[0]))]
    new = len(rays)
    out = []
    for cone in cones:
        if set(tau) <= set(cone):
            out.extend(tuple(sorted(new if r == t else r for r in cone)) for t in tau)
        else:
            out.append(tuple(cone))
    return rays + [v], out


def cones_to_blow_up(cones):
    """Every cone of dimension >= 2 of the fan."""
    return sorted({face for cone in cones for k in range(2, len(cone) + 1)
                   for face in combinations(cone, k)})


@st.composite
def blown_up_fans(draw, max_blowups=3):
    """(base name, rays, max_cones, pulled-back anticanonical coefficients,
    the last blown-up cone or None)."""
    name = draw(st.sampled_from(BASES))
    base = testbed(name)
    rays = [list(r) for r in base.rays]
    cones = [tuple(c) for c in base.max_cones]
    coeffs = [1] * len(rays)
    tau = None
    for _ in range(draw(st.integers(0, max_blowups))):
        tau = draw(st.sampled_from(cones_to_blow_up(cones)))
        rays, cones = star_subdivision(rays, cones, tau)
        coeffs.append(sum(coeffs[i] for i in tau))
    return name, rays, cones, coeffs, tau


def seeded_blown_up_fans(count, seed):
    """count fans, each one or two star subdivisions of a base testbed."""
    rnd = random.Random(seed)
    for _ in range(count):
        base = testbed(rnd.choice(BASES))
        rays, cones = [list(r) for r in base.rays], [tuple(c) for c in base.max_cones]
        for _ in range(rnd.randint(1, 2)):
            rays, cones = star_subdivision(rays, cones, rnd.choice(cones_to_blow_up(cones)))
        yield Fan("blowup", rays, cones)
