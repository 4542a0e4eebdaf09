"""Exact counting of plane trees with strictly decreasing labels.

``count_trees(n, k)`` is the number of n-node rooted ordered (plane) trees
whose nodes carry labels from {1, ..., k} such that labels strictly decrease
along every path away from the root.  Two independent routes to the same
numbers live here:

* ``gk_series`` builds the counting series g_k with exact integer
  arithmetic, in one engine split at the label m:

  - labels 1..m by the rational recurrence: the chain s_1 = 1 - z,
    s_j = s_(j-1) - z/s_(j-1) makes s_j = 1 - g_j = A_j/B_j with integer
    polynomials A_j = A_(j-1)^2 - z B_(j-1)^2 and B_j = A_(j-1) B_(j-1).
    Since B_m(0) = 1, the coefficients of g_m = (B_m - A_m)/B_m satisfy a
    division-free linear recurrence of order deg B_m = 2^(m-1) - 1
    (Flajolet and Sedgewick, *Analytic Combinatorics*, IV.5), which costs
    O(4^m) products for A_m, B_m and O(order * 2^(m-1)) for the reading;
  - labels m+1..k by k - m truncated series inversions, adding at each new
    top label a root followed by an arbitrary sequence of subtrees with
    smaller labels, at O(order^2) products each: g <- g + z/(1 - g).

  m is the largest label count with 2^(m-1) <= 3 * order / 4 (capped at k),
  so B_m stays shorter than the series while the inversions it replaces
  would each cost a full order^2 / 2.  m = k (few labels) and m = 1 (a
  tiny order) are the two ends of the same code.  ``table`` reads g_1..g_k
  off one pass, and 1/s_k = B_k/A_k (A_k(0) = 1), or above m one more
  inversion, counts the trees with root label k + 1 at z^(n-1) and the
  closed root walks of length 2h on the leaning tree of order k at z^h;

  ``count_trees`` and ``count_with_root_label`` want coefficient n alone,
  and read it without the whole series where that is cheaper.  Above m,
  g_(k-1) comes from the engine and [z^(n-1)] 1/(1 - g_(k-1)) from one
  Newton step on the inverse to half the order (``_inverse_coefficient``),
  at about n^2 / 4 products against n^2 / 2.  At or below m, past index
  deg A_k the coefficients of g_k satisfy the recurrence with the monic
  characteristic polynomial x^d B_k(1/x), d = 2^(k-1) - 1, and
  ``_nth_by_powering`` reduces x^(n-2) modulo it by square and multiply
  (Fiduccia, SIAM J. Comput. 14, 1985) in O(d^2 log n) products and
  O(d n) bits.  It runs when that count, about 2 d^2 log2(n), is below the
  recurrence's n d; otherwise the engine reads the series.  ``series``, ``table``,
  ``walks`` and ``_complement_inverse`` print or use every term and keep
  the engine;

* ``count_trees_by_compositions`` runs the scalar recurrence over
  compositions of n-1 as a bottom-up convolution, and
  ``count_trees_by_literal_compositions`` enumerates every composition for
  small n.

The engines work on plain lists of Python ints, and every truncated
division goes through the one kernel ``_quotient``: the B/A reads of the
rational part and of 1/s_k, the inversions above the split label and the
half-order inverse, ``sk_series`` and the first-return walk series of
``spectral``.  A
denominator of deg B_m + 1 terms and one as long as the series run the
same loop.  ``_complement_inverse_products`` prices a read of 1/s_k for
the walk guard of ``spectral``, so the split rule is read in this module
alone.  ``count_trees_by_compositions`` keeps its own
convolution loop on purpose: it is the independent oracle of the
three-way agreement, so it shares no code with the engine it checks.
Every inner product is one ``sum(map(operator.mul, ...))``, and the
rational recurrence squares A and B by symmetry (each cross product once).

``sk_series`` stays on its own s -> s - z/s chain at every k, sharing
only the division kernel, so that it cross-checks both parts of the chain
and their readers.  A third
route, brute-force enumeration, lives in ``planetrees.trees``.  The counts
grow like (2k)^n and overflow any fixed width almost immediately.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import islice, zip_longest
from typing import Iterator, Sequence

from .errors import LimitError
from .intstr import int_to_str

#: largest n for which the literal composition sweep (2^(n-2) terms) is allowed
LITERAL_COMPOSITION_LIMIT = 12


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series truncated to a fixed order.

    ``coeffs[i]`` is the coefficient of z^i and ``order == len(coeffs)`` is
    the exclusive truncation index: the series is known modulo z^order.
    The engines work on plain lists and build one record per result.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("a truncated series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs)


def _quotient(num: Sequence[int], negated_tail: list[int], order: int) -> list[int]:
    """num/den modulo z^order for den = 1 - sum_(j>=1) negated_tail[j-1] z^j.

    The one division kernel: c_m = num_m + sum_(j>=1) t_j c_(m-j), each
    step reading the negated tail t against the quotient so far, reversed,
    so a denominator shorter than the series and one as long run the same
    loop.
    """
    c: list[int] = []
    leads = len(num)
    for m in range(order):
        c.append(sum(map(operator.mul, negated_tail, reversed(c)), num[m] if m < leads else 0))
    return c


def gk_series(k: int, order: int) -> TruncatedSeries:
    """Counting series for decreasing-label trees with labels in {1..k}: the
    coefficient of z^n is ``count_trees(n, k)``.  Each label above the first
    adds a root carrying it over any sequence of subtrees with smaller
    labels, g <- g + z/(1 - g); the first min(k, ``_split_label(order)``)
    come from the rational recurrence instead (see the module docstring).
    """
    _require_positive(k=k, order=order)
    return _gk_series(k, order, min(k, _split_label(order)))


def _split_label(order: int) -> int:
    # the largest m >= 1 with 2^(m-1) <= 3 * order / 4 (see the module docstring)
    return max(1, (3 * order // 4).bit_length())


def _gk_series(k: int, order: int, levels: int) -> TruncatedSeries:
    return TruncatedSeries(tuple(next(islice(_gk_chain(order, levels, levels), k - levels, None))))


def gk_columns(k: int, order: int) -> list[list[int]]:
    """g_1, ..., g_k modulo z^order off one chain: the columns of ``table``."""
    return list(islice(_gk_chain(order, min(k, _split_label(order))), k))


def _gk_chain(order: int, levels: int, first: int = 1) -> Iterator[list[int]]:
    """g_j, g_(j+1), ... modulo z^order without end, from j = min(first,
    levels): up to g_levels by the rational recurrence, above by g + z/(1 - g)."""
    for a, b in islice(_rational_pairs(order), min(first, levels), levels + 1):
        g = _quotient(_poly_sub(b, a), [-c for c in b[1:]], order)
        yield g
    while True:
        tail = g[1:]  # g_0 = 0, so the tail of 1 - g, negated, is g's own tail
        g = [0, *map(operator.add, tail, _quotient((1,), tail, order - 1))]
        yield g


def _complement_inverse(k: int, order: int) -> list[int]:
    """1/s_k modulo z^order, k >= 0: B_k/A_k (A_k(0) = 1) at or below the
    split label, one more inversion of g_k's tail above it."""
    levels = _split_label(order)
    if k <= levels:
        a, b = next(islice(_rational_pairs(order), k, None))
        return _quotient(b, [-c for c in a[1:]], order)
    return _quotient((1,), _gk_series(k, order, levels).coeffs[1:], order)


def _complement_inverse_products(k: int, order: int) -> int:
    """The products ``_complement_inverse(k, order)`` costs, as a budget:
    reading B/A costs order * deg A, each inversion above order^2 / 2."""
    levels = _split_label(order)
    products = order * 2 ** min(k, levels) // 2
    if k > levels:
        products += (k - levels + 1) * order * order // 2
    return products


def _rational_pairs(order: int) -> Iterator[tuple[list[int], list[int]]]:
    """(A_k, B_k) modulo z^order for k = 0, 1, ..., from A_0 = B_0 = 1: the
    recurrence reads no coefficient of index order or more."""
    a, b = [1], [1]
    while True:
        yield a, b
        z_b2 = [0] + _poly_square(b, order - 1)
        a, b = _poly_sub(_poly_square(a, order), z_b2), _poly_mul(a, b, order)


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


def _poly_square(p: list[int], order: int) -> list[int]:
    """``_poly_mul(p, p, order)`` with each cross product p_i p_j (i < j)
    formed once and doubled, plus the middle square p_(m/2)^2 at even m."""
    size = min(2 * len(p) - 1, order)
    p_rev = p[::-1]
    last = len(p) - 1
    out = []
    for m in range(size):
        lo = max(0, m - last)
        hi = (m - 1) // 2  # the largest i with i < m - i
        cross = 2 * sum(map(operator.mul, p[lo : hi + 1], p_rev[last - m + lo : last - m + hi + 1]))
        out.append(cross if m & 1 else cross + p[m // 2] ** 2)
    return out


def _poly_sub(p: list[int], q: list[int]) -> list[int]:
    return [x - y for x, y in zip_longest(p, q, fillvalue=0)]


def sk_series(k: int, order: int) -> TruncatedSeries:
    """1 minus the counting series, computed by its own recurrence.

    Runs s -> s - z/s starting from 1 - z rather than subtracting
    ``gk_series`` from 1, so the two code paths cross-check each other.
    """
    _require_positive(k=k, order=order)
    s = ([1, -1] + [0] * (order - 2))[:order]
    for _ in range(k - 1):
        tail = s[1:]
        s = [1, *map(operator.sub, tail, _quotient((1,), [-c for c in tail], order - 1))]
    return TruncatedSeries(tuple(s))


def count_trees(n: int, k: int) -> int:
    """Number of n-node plane trees with strictly decreasing labels from {1..k}.

    Coefficient n of g_k alone, by one of three routes (see the module
    docstring): above the split label of order n + 1, g_(k-1) and a
    half-order read of its last inversion; at or below it, g_k's
    recurrence, or x^(n-2) modulo its characteristic polynomial when d =
    2^(k-1) - 1 is small against n.
    """
    _require_positive(n=n, k=k)
    levels = _split_label(n + 1)
    if k > levels:
        g = _gk_series(k - 1, n + 1, levels).coeffs
        return g[n] + _inverse_coefficient(g[1:], n - 1)
    d = 2 ** (k - 1) - 1
    # about n d products by the recurrence against 2 d^2 log2(n) by powering
    if 2 * d * d * n.bit_length() < n * d:
        return _nth_by_powering(n, k)
    return _gk_series(k, n + 1, k).coeffs[n]


def _inverse_coefficient(tail: Sequence[int], n: int) -> int:
    """[z^n] 1/f for f = 1 - sum_(j>=1) tail[j-1] z^j, from the inverse v of
    f modulo z^h, h = n // 2 + 1: then 1/f = v (2 - f v) modulo z^(2h)
    (Kung, Numer. Math. 22, 1974), and past h, where v stops, coefficient n
    is that of -f v^2.  About n^2 / 4 products against n^2 / 2 for the
    full inverse."""
    h = n // 2 + 1
    v = _quotient((1,), tail, h)
    if n < h:
        return v[n]
    w = _poly_square(v, n + 1)
    w += [0] * (n + 1 - len(w))  # v^2 stops at z^(n-1) when n is odd
    return sum(map(operator.mul, tail[:n], reversed(w[:n]))) - w[n]


def _nth_by_powering(n: int, k: int) -> int:
    """[z^n] g_k for n >= 2^(k-1) + 1, by x^(n-2) modulo the characteristic
    polynomial x^d B_k(1/x), d = deg B_k = 2^(k-1) - 1.

    g_k = (B_k - A_k)/B_k with B_k(0) = 1 and deg A_k = d + 1, so from
    index 2 on the coefficients c follow c_m = -sum_(j=1..d) B_j c_(m-j),
    and if x^(n-2) = sum r_i x^i modulo that polynomial, c_n = sum r_i
    c_(2+i) (Fiduccia, SIAM J. Comput. 14, 1985).  The d remainder
    coefficients grow like c_n does, so memory is O(d n) bits, not O(n^2).
    """
    order = 2 ** (k - 1) + 1  # A_k and B_k exactly, and c_0 .. c_(d+1)
    a, b = next(islice(_rational_pairs(order), k, None))
    first = _quotient(_poly_sub(b, a), [-c for c in b[1:]], order)
    d = order - 2
    low = b[:0:-1]  # B_d, ..., B_1: x^d = -(B_1 x^(d-1) + ... + B_d)
    r = [1] + [0] * (d - 1)
    for bit in bin(n - 2)[2:]:
        r = _poly_square(r, 2 * d - 1)
        if bit == "1":
            r.insert(0, 0)
        for top in range(len(r) - 1, d - 1, -1):
            t = r.pop()
            if t:
                r[top - d :] = map(operator.sub, r[top - d :], map(t.__mul__, low))
    return sum(map(operator.mul, r, first[2:]))


def count_trees_by_compositions(n: int, k: int) -> int:
    """Same count via the scalar recurrence over compositions of n-1.

    The count with k labels equals the count with k-1 labels (top label
    unused) plus, for each composition of n-1, the product over its parts of
    the counts with k-1 labels (top label at the root, parts are the child
    subtree sizes; the empty composition of 0 contributes product 1).

    The composition sum is evaluated bottom up, label by label, as the
    convolution of the sequence-of-subtrees counts, which gives identical
    values at polynomial cost without recursion.
    """
    _require_positive(n=n, k=k)
    # counts[m] = count(m, j) for the current label bound j, starting at j = 1,
    # whose counts are zero past one node and left off, so that the first
    # pass takes one product per term
    counts = [0, 1]
    for _ in range(k - 1):
        # seq[m]: sequences of trees with labels <= j totalling m nodes
        seq = [1]
        tail = counts[1:]
        for _ in range(1, n):
            seq.append(sum(map(operator.mul, tail, reversed(seq))))
        counts = [0, *(c + s for c, s in zip_longest(counts[1:], seq, fillvalue=0))]
    return counts[n] if n < len(counts) else 0


def count_trees_by_literal_compositions(n: int, k: int) -> int:
    """The recurrence of ``count_trees_by_compositions`` with every
    composition of n-1 enumerated explicitly: a third oracle, guarded at
    n <= LITERAL_COMPOSITION_LIMIT (2^(n-2) compositions)."""
    _require_positive(n=n, k=k)
    if n > LITERAL_COMPOSITION_LIMIT:
        raise LimitError(
            f"literal composition enumeration is limited to n <= {LITERAL_COMPOSITION_LIMIT}"
        )
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
    """Number of n-node decreasing trees whose root label is exactly k:
    G_(n,k) - G_(n,k-1) = [z^n] z/s_(k-1), read off one chain."""
    _require_positive(n=n, k=k)
    levels = _split_label(n)
    if k - 1 > levels:
        return _inverse_coefficient(_gk_series(k - 1, n, levels).coeffs[1:], n - 1)
    return _complement_inverse(k - 1, n)[n - 1]


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


def _require_positive(**named: int) -> None:
    for name, value in named.items():
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
