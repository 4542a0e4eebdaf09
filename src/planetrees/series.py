"""Exact counting of plane trees with strictly decreasing labels.

``count_trees(n, k)`` is the number of n-node rooted ordered (plane) trees
whose nodes carry labels from {1, ..., k} such that labels strictly decrease
along every path away from the root.  Two independent routes to the same
numbers live here:

* ``gk_series`` builds the counting series g_k with exact integer
  arithmetic, by one of two engines chosen from k and the order:

  - the *rational engine* (few labels, 2^(k-1) <= (k-1) * order / 4): the chain
    s_1 = 1 - z, s_k = s_(k-1) - z/s_(k-1) makes s_k = 1 - g_k = A_k/B_k
    with integer polynomials A_k = A_(k-1)^2 - z B_(k-1)^2 and
    B_k = A_(k-1) B_(k-1).  Since B_k(0) = 1, the coefficients of
    g_k = (B_k - A_k)/B_k satisfy a division-free linear recurrence of
    order deg B_k = 2^(k-1) - 1 (Flajolet and Sedgewick, *Analytic
    Combinatorics*, IV.5), which costs O(order * 2^(k-1)) products;
  - the *schoolbook engine* (many labels): k - 1 truncated series
    inversions, adding at each new top label a root followed by an
    arbitrary sequence of subtrees with smaller labels, which costs
    O(k * order^2) products and avoids building polynomials of degree
    2^(k-1);

* ``count_trees_by_compositions`` runs the scalar recurrence over
  compositions of n-1 (a bottom-up convolution by default, literal
  composition enumeration behind a flag for small n).

``sk_series`` stays on its own s -> s - z/s inversion chain at every k, so
that it cross-checks whichever engine ``gk_series`` picked.  A third route,
brute-force enumeration, lives in ``planetrees.trees``.  All coefficients
are plain Python ints; the counts grow like (2k)^n and overflow any fixed
width almost immediately.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator

from .errors import LimitError
from .intstr import int_to_str, str_to_int

#: largest n for which the literal composition sweep (2^(n-2) terms) is allowed
LITERAL_COMPOSITION_LIMIT = 12


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series truncated to a fixed order.

    ``coeffs[i]`` is the coefficient of z^i and ``order == len(coeffs)`` is
    the exclusive truncation index: the series is known modulo z^order.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("a truncated series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def constant(cls, value: int, order: int) -> "TruncatedSeries":
        if order < 1:
            raise ValueError("order must be at least 1")
        return cls((int(value),) + (0,) * (order - 1))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = [0] * n
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j in range(n - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncatedSeries(tuple(out))

    def shifted(self) -> "TruncatedSeries":
        """Multiply by z, truncating at the same order."""
        return TruncatedSeries((0,) + self.coeffs[:-1])

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")


def series_invert_unit(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse modulo z^order of a series with constant term 1.

    The inverse has integer coefficients and satisfies s * t == 1 modulo
    z^order.  Rejects any other constant term.
    """
    if s.coeffs[0] != 1:
        raise ValueError("series_invert_unit requires constant term exactly 1")
    n = s.order
    c = s.coeffs
    inv = [0] * n
    inv[0] = 1
    for m in range(1, n):
        acc = 0
        for i in range(1, m + 1):
            ci = c[i]
            if ci:
                acc += ci * inv[m - i]
        inv[m] = -acc
    return TruncatedSeries(tuple(inv))


def gk_series(k: int, order: int) -> TruncatedSeries:
    """Counting series for decreasing-label trees with labels in {1..k}.

    The coefficient of z^n is ``count_trees(n, k)``.  With one label the
    series is z (a single node); each further label prepends the choice of
    not using the new top label, plus a new root carrying it followed by any
    sequence of subtrees over the smaller labels, realised as
    z / (1 - previous series).  Runs the rational engine while
    2^(k-1) <= (k-1) * order / 4 and the schoolbook inversions otherwise
    (see the module docstring).  The rule follows the measured crossover
    of the two engines' times, near order 80 at k = 8 and 200 at k = 10.
    """
    _require_positive(k=k, order=order)
    if 4 * 2 ** (k - 1) <= (k - 1) * order:
        return _gk_series_rational(k, order)
    return _gk_series_schoolbook(k, order)


def _gk_series_schoolbook(k: int, order: int) -> TruncatedSeries:
    coeffs = [0] * order
    if order > 1:
        coeffs[1] = 1
    g = TruncatedSeries(tuple(coeffs))
    one = TruncatedSeries.constant(1, order)
    for _ in range(k - 1):
        g = g + series_invert_unit(one - g).shifted()
    return g


def _gk_series_rational(k: int, order: int) -> TruncatedSeries:
    # A_k and B_k modulo z^order: the recurrence below reads no coefficient
    # of index order or more
    a, b = [1, -1][:order], [1]
    for _ in range(k - 1):
        z_b2 = [0] + _poly_mul(b, b, order - 1)
        a, b = _poly_sub(_poly_mul(a, a, order), z_b2), _poly_mul(a, b, order)
    numerator = _poly_sub(b, a)
    numerator += [0] * (order - len(numerator))
    # B_0 = 1, so c_m = N_m - sum_{j=1..deg B} B_j c_(m-j) is exact, with
    # c_m = 0 for m < 0 kept as deg leading zeros
    tail = b[:0:-1]  # B_deg, ..., B_1
    deg = len(tail)
    c = [0] * deg
    for m in range(order):
        c.append(numerator[m] - sum(map(operator.mul, tail, c[m : m + deg])))
    return TruncatedSeries(tuple(c[deg:]))


def _poly_mul(p: list[int], q: list[int], order: int) -> list[int]:
    """Product of two integer polynomials modulo z^order (coefficient lists)."""
    size = min(len(p) + len(q) - 1, order)
    q_rev = q[::-1]
    last = len(q) - 1
    out = []
    for m in range(size):
        lo = max(0, m - last)
        hi = min(m, len(p) - 1)
        out.append(sum(map(operator.mul, p[lo : hi + 1], q_rev[last - m + lo : last - m + hi + 1])))
    return out


def _poly_sub(p: list[int], q: list[int]) -> list[int]:
    return [x - y for x, y in zip_longest(p, q, fillvalue=0)]


def sk_series(k: int, order: int) -> TruncatedSeries:
    """1 minus the counting series, computed by its own recurrence.

    Runs s -> s - z/s starting from 1 - z rather than subtracting
    ``gk_series`` from 1, so the two code paths cross-check each other.
    """
    _require_positive(k=k, order=order)
    coeffs = [0] * order
    coeffs[0] = 1
    if order > 1:
        coeffs[1] = -1
    s = TruncatedSeries(tuple(coeffs))
    for _ in range(k - 1):
        s = s - series_invert_unit(s).shifted()
    return s


def count_trees(n: int, k: int) -> int:
    """Number of n-node plane trees with strictly decreasing labels from {1..k}."""
    _require_positive(n=n, k=k)
    return gk_series(k, n + 1).coeffs[n]


def count_trees_by_compositions(n: int, k: int, *, literal: bool = False) -> int:
    """Same count via the scalar recurrence over compositions of n-1.

    The count with k labels equals the count with k-1 labels (top label
    unused) plus, for each composition of n-1, the product over its parts of
    the counts with k-1 labels (top label at the root, parts are the child
    subtree sizes; the empty composition of 0 contributes product 1).

    By default the composition sum is evaluated bottom up, label by label,
    as the convolution of the sequence-of-subtrees counts, which gives
    identical values at polynomial cost without recursion.  With
    ``literal=True`` every composition of n-1 is enumerated explicitly; that
    route is a third oracle and is guarded at n <= LITERAL_COMPOSITION_LIMIT.
    """
    _require_positive(n=n, k=k)
    if literal:
        if n > LITERAL_COMPOSITION_LIMIT:
            raise LimitError(
                f"literal composition enumeration is limited to n <= {LITERAL_COMPOSITION_LIMIT}"
            )
        return _count_by_literal_compositions(n, k)
    # counts[m] = count(m, j) for the current label bound j, starting at j = 1
    counts = [0, 1] + [0] * (n - 1)
    for _ in range(k - 1):
        # seq[m]: sequences of trees with labels <= j totalling m nodes
        seq = [1] + [0] * (n - 1)
        for m in range(1, n):
            total = 0
            for s in range(1, m + 1):
                total += counts[s] * seq[m - s]
            seq[m] = total
        counts = [0] + [counts[m] + seq[m - 1] for m in range(1, n + 1)]
    return counts[n]


def _count_by_literal_compositions(n: int, k: int) -> int:
    memo: dict[tuple[int, int], int] = {}

    def count(n: int, k: int) -> int:
        if k == 1:
            return 1 if n == 1 else 0
        key = (n, k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = count(n, k - 1)
        for parts in compositions(n - 1):
            prod = 1
            for s in parts:
                prod *= count(s, k - 1)
                if prod == 0:
                    break
            total += prod
        memo[key] = total
        return total

    return count(n, k)


def count_with_root_label(n: int, k: int) -> int:
    """Number of n-node decreasing trees whose root label is exactly k."""
    _require_positive(n=n, k=k)
    if k == 1:
        return count_trees(n, 1)
    return count_trees(n, k) - count_trees(n, k - 1)


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All compositions (ordered tuples of positive parts) of ``total``.

    The single composition of 0 is the empty tuple.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def series_to_json(s: TruncatedSeries) -> str:
    """Serialise as a JSON array of decimal strings, preserving big integers."""
    return json.dumps([int_to_str(c) for c in s.coeffs], separators=(",", ":"))


def series_from_json(text: str) -> TruncatedSeries:
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("expected a nonempty JSON array of decimal strings")
    return TruncatedSeries(tuple(str_to_int(item) for item in data))


def _require_positive(**named: int) -> None:
    for name, value in named.items():
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
