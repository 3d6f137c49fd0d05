"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: subset enumeration instead of
dynamic programming, full recomputation instead of incremental updates,
Fraction Gaussian elimination instead of fraction-free elimination.  The
package under test must agree with these on every case they can afford.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence


def naive_subword_count(u: Sequence[int], x: Sequence[int]) -> int:
    """Count occurrences of x in u by enumerating index subsets."""
    u = tuple(u)
    x = tuple(x)
    if not x:
        return 1
    return sum(
        1
        for pos in combinations(range(len(u)), len(x))
        if all(u[i] == c for i, c in zip(pos, x))
    )


def naive_signature(u: Sequence[int], m: int, k: int) -> tuple[int, ...]:
    """All pattern counts of length 1..m, shorter first, lexicographic."""
    out = []
    for length in range(1, m + 1):
        for x in product(range(k), repeat=length):
            out.append(naive_subword_count(u, x))
    return tuple(out)


def naive_equivalent(u: Sequence[int], v: Sequence[int], m: int, k: int) -> bool:
    return len(u) == len(v) and naive_signature(u, m, k) == naive_signature(v, m, k)


def naive_find_power(
    u: Sequence[int], m: int, p: int, k: int
) -> Optional[tuple[int, int]]:
    """(start, period) of the first m-binomial p-power, scanning starts
    ascending then periods ascending; None if power-free."""
    u = tuple(u)
    n = len(u)
    for s in range(n):
        for t in range(1, (n - s) // p + 1):
            sigs = [
                naive_signature(u[s + i * t : s + (i + 1) * t], m, k)
                for i in range(p)
            ]
            if all(sg == sigs[0] for sg in sigs[1:]):
                return (s, t)
    return None


def fraction_determinant(rows: Sequence[Sequence[int]]) -> Fraction:
    """Exact determinant via Gaussian elimination over the rationals."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def _splits(x: tuple[int, ...], r: int, least: int):
    """Every way to cut x into r consecutive pieces of at least `least` letters."""
    if r == 1:
        if len(x) >= least:
            yield (x,)
        return
    for cut in range(least, len(x) + 1):
        for rest in _splits(x[cut:], r - 1, least):
            yield (x[:cut],) + rest


def closed_form_lift(
    images: Sequence[Sequence[int]], m: int, empty_pieces: bool = False
) -> list[list[int]]:
    """A morphism's lifted order-m matrix from the factorization identity.

    Entry (x, z) with z = a_1...a_r is the sum, over cuts of x into r
    nonempty pieces y_1...y_r, of prod binom(images[a_i], y_i): each
    occurrence of x in f(u) splits x among the images of the letters of u
    it touches.  empty_pieces=True admits empty pieces too, which is wrong
    at every m >= 2 and serves as a negative control.
    """
    k = len(images)
    patterns = [x for n in range(1, m + 1) for x in product(range(k), repeat=n)]
    least = 0 if empty_pieces else 1
    rows = []
    for x in patterns:
        row = []
        for z in patterns:
            total = 0
            for ys in _splits(x, len(z), least):
                term = 1
                for a, y in zip(z, ys):
                    term *= naive_subword_count(images[a], y)
                total += term
            row.append(total)
        rows.append(row)
    return rows


def all_words(k: int, n: int):
    """Every word over {0..k-1} of length exactly n, as tuples."""
    return product(range(k), repeat=n)


def words_up_to(k: int, n: int):
    for length in range(n + 1):
        yield from all_words(k, length)
