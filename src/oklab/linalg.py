"""Exact integer and rational linear algebra.

Everything in this package runs on exact arithmetic; this module holds the
small dense-matrix toolbox (ranks, integer determinants and adjugates,
normals, polynomial interpolation) shared by the geometry and the toric
backends.  Matrices are plain tuples of tuples, vectors are tuples.  Sizes
are tiny (dimensions up to ~6).  Ranks and bases come from one
fraction-free integer elimination (`independent_rows`); rational rows are
scaled to integers first.  Every square system is solved in closed form by
the integer adjugate, so there is no rational elimination.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul

Vec = tuple[Fraction, ...]


def rat(x) -> Fraction:
    """Coerce ints / strings like '3/2' / Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(rat(x) for x in xs)


def independent_rows(rows: Iterable[Sequence[int]]) -> list[tuple[int, int, list[int]]]:
    """(row index, pivot column, echelon row) for each row of an integer
    matrix that is independent of the rows before it.

    Fraction-free: each row is cross-multiplied against the echelon rows
    kept so far and divided by its gcd.  The pivot columns are those of the
    reduced row echelon form.
    """
    kept = []
    for i, row in enumerate(rows):
        for _, c, e in kept:
            x = row[c]
            if x:
                p = e[c]
                row = [p * a - x * b for a, b in zip(row, e)]
        g = gcd(*row)
        if g:
            row = [a // g for a in row]
            kept.append((i, next(j for j, a in enumerate(row) if a), row))
            if len(kept) == len(row):
                break  # full column rank: nothing later is independent
    return kept


def integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """(row * den, den) for the lcm den of the denominators of a row of ints
    or Fractions: integers with the row's signs and ratios."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _reduce(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss
    1968, the exact division applied above the pivot as well).

    Returns (reduced rows, pivot columns, sign, D).  Each column takes as
    pivot the first row at or below the current one that is nonzero there,
    swapped up (flipping sign), and every other row becomes its 2 x 2
    minors with the pivot row over the previous pivot.  The rows end as D
    times the identity on the pivot columns, D the determinant of the
    swapped rows there; an entry in another column j is that determinant
    with the row's pivot column replaced by column j."""
    m, cols, sign, prev = [list(r) for r in rows], [], 1, 1
    for c in range(len(m[0]) if m else 0):
        r = len(cols)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i], sign = m[i], m[r], -sign
        p, top = m[r][c], m[r]
        for i, row in enumerate(m):
            if i != r:
                a = row[c]
                m[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
        cols.append(c)
    return m, cols, sign, prev


def cross_normal_int(diffs: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Generalized cross product: the integer normal n to k-1 vectors in Z^k
    with n.x = det(x; diffs), i.e. the signed maximal minors (the ordinary
    cross product in closed form for k = 3).

    Otherwise all k minors come from one elimination (`_reduce`), O(k^3):
    rank k - 1 leaves one free column f, the minor without it is n_f =
    (-1)^f sign D, and the kernel of the reduced rows, D x_(pivot i) =
    -(row i)_f x_f, scales to n.  A lower rank gives 0."""
    k = len(diffs) + 1
    if k == 3:
        (a, b, c), (d, e, f) = diffs
        return (b * f - c * e, c * d - a * f, a * e - b * d)
    m, cols, sign, prev = _reduce(diffs)
    if len(cols) < k - 1:
        return (0,) * k
    f = next(c for c in range(k) if c not in cols)
    s = -sign if f % 2 else sign
    out = [0] * k
    out[f] = s * prev
    for row, c in zip(m, cols):
        out[c] = -s * row[f]
    return tuple(out)


def adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], int]:
    """(a, det) for a square integer matrix: <a_k, r_l> = det * delta_kl.

    a_k is the signed normal to the other rows, so R x = b is solved by
    x = sum_k b_k a_k / det whenever det != 0.
    """
    adj = [tuple((-1) ** k * x for x in cross_normal_int(rows[:k] + rows[k + 1:]))
           for k in range(len(rows))]
    return adj, sum(map(mul, adj[0], rows[0])) if rows else 1


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (keeps sign)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def interpolate(values: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients c_0..c_{n-1} of the polynomial of degree < n that takes
    values[s] at s = 0..n-1, exactly (Lagrange basis on the integer nodes).

    The basis denominator prod_{t != s} (s - t) is (-1)^(n-1-s) s! (n-1-s)!,
    which divides (n - 1)!, so the sum is taken on integers over (n - 1)!
    times the values' common denominator and divided once."""
    n = len(values)
    ints, den = integer_row(values)
    acc = [0] * n
    for s, v in enumerate(ints):
        basis = [1]
        for t in range(n):
            if t != s:
                basis = [a - t * b for a, b in zip([0] + basis, basis + [0])]
        w = (-1) ** (n - 1 - s) * comb(n - 1, s) * v
        acc = [a + w * b for a, b in zip(acc, basis)]
    return [Fraction(a, factorial(n - 1) * den) for a in acc]


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0, plus whether it is exact (Newton on ints)."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    x = 1 << (-(-n.bit_length() // k))  # upper-ish start
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x, x ** k == n
