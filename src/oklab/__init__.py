"""oklab: exact Newton-Okounkov bodies on small toric testbeds.

Everything runs in exact rational arithmetic (no floats): convex bodies,
Minkowski sums, mixed volumes, toric divisor classes and their positivity
cones, Newton-Okounkov bodies with exactness certificates, and the
verification suites for body additivity and the associated
intersection-number inequalities.
"""

__version__ = "0.1.0"
