"""Reference computations made apart from the program.

Nothing here imports planetrees.  Each function is a second route to a
quantity the program reports, or the raw material for a property check:

* counts and series coefficients from the polynomial pair A_k/B_k of the
  complement chain, modulo several primes;
* the sign of the chain s_k and of the leaning-tree pivot recursion in
  160-bit mpmath arithmetic, which certifies root and eigenvalue brackets;
* largest adjacency eigenvalues from scipy on an adjacency matrix built from
  the benchmark's own parent arrays, or from closed forms;
* Ulam-Harris numbers by exhaustive orderings on small trees and by the
  greedy recursion (written again here, iteratively) on large ones.

Trees are held as parent arrays in preorder (see ``inputs``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import mpmath
import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from inputs import children_lists

mpmath.mp.prec = 160


def _primes_below(limit: int, count: int) -> tuple[int, ...]:
    found = []
    candidate = limit - 1
    while len(found) < count:
        if all(candidate % d for d in range(3, math.isqrt(candidate) + 1, 2)):
            found.append(candidate)
        candidate -= 2
    return tuple(found)


#: moduli for the count references; below 2^26 so a truncated convolution of
#: up to 2048 terms stays inside int64
PRIMES = _primes_below(1 << 26, 4)
MAX_ORDER = 2048


# ------------------------------------------------------------- counting --


@lru_cache(maxsize=None)
def _counts_mod(k: int, order: int, p: int) -> tuple[int, ...]:
    """Coefficients 0..order-1 of g_k modulo p, from A_k and B_k.

    s_1 = 1 - z and s_j = s_(j-1) - z/s_(j-1); with s_j = A_j/B_j this is
    A_j = A^2 - z B^2 and B_j = A B, and g_k = (B_k - A_k)/B_k.  Everything
    is truncated at z^order, which is exact because B_k(0) = 1.
    """
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds {MAX_ORDER}")
    a = np.zeros(order, dtype=np.int64)
    b = np.zeros(order, dtype=np.int64)
    a[0] = 1
    if order > 1:
        a[1] = p - 1
    b[0] = 1
    for _ in range(k - 1):
        b_sq = np.convolve(b, b)[:order] % p
        z_b_sq = np.concatenate(([0], b_sq[:-1]))
        a, b = (np.convolve(a, a)[:order] - z_b_sq) % p, np.convolve(a, b)[:order] % p
    c = (b - a) % p
    g = np.zeros(order, dtype=np.int64)
    for n in range(order):
        acc = int(c[n])
        if n:
            acc -= int(np.dot(b[1 : n + 1], g[n - 1 :: -1]))
        g[n] = acc % p
    return tuple(int(x) for x in g)


def counts_mod(k: int, order: int) -> dict[int, tuple[int, ...]]:
    """{p: coefficients of g_k mod p up to z^(order-1)} for every prime.

    Orders are rounded up to a multiple of 256 so that nearby requests share
    one computation.
    """
    padded = min(MAX_ORDER, -(-order // 256) * 256)
    return {p: _counts_mod(k, padded, p)[:order] for p in PRIMES}


def matches_mod(value: int, residues: dict[int, int]) -> bool:
    return all(value % p == r for p, r in residues.items())


def count_mod(n: int, k: int) -> dict[int, int]:
    table = counts_mod(k, n + 1)
    return {p: coeffs[n] for p, coeffs in table.items()}


def walk_count_mod(order: int, half: int) -> dict[int, int]:
    """Closed root walks of length 2*half in the order-``order`` leaning tree,
    by the coefficient difference count(half+1, order+1) - count(half+1, order)."""
    upper = count_mod(half + 1, order + 1)
    lower = count_mod(half + 1, order) if order >= 1 else {p: 0 for p in PRIMES}
    return {p: (upper[p] - lower[p]) % p for p in PRIMES}


def exact_small_count(n: int, k: int) -> int:
    """Exact count for small n by the plain integer recurrence over subtree
    sequences (used only to size the verify sweeps, n <= 8)."""
    g = [[0] * (n + 1) for _ in range(k + 1)]
    for j in range(1, k + 1):
        seq = [1] + [0] * n  # sequences of trees with labels < j
        for m in range(1, n + 1):
            seq[m] = sum(g[j - 1][s] * seq[m - s] for s in range(1, m + 1))
        for m in range(1, n + 1):
            g[j][m] = g[j - 1][m] + seq[m - 1]
    return g[k][n]


def rooted_unordered_trees(n: int) -> int:
    """Number of rooted unordered trees on n nodes (1, 1, 2, 4, 9, 20, ...),
    by r(m+1) = (1/m) sum_(j=1..m) (sum_(d | j) d r(d)) r(m-j+1)."""
    r = [0, 1]
    for m in range(1, n):
        total = 0
        for j in range(1, m + 1):
            total += sum(d * r[d] for d in range(1, j + 1) if j % d == 0) * r[m - j + 1]
        r.append(total // m)
    return r[n]


# ----------------------------------------------------------- root chain --


def chain_positive(z, k: int) -> bool:
    """True iff s_1(z), ..., s_k(z) are all positive, in 160-bit arithmetic
    (``z`` is a float, taken exactly, or an mpf)."""
    zm = mpmath.mpf(z)
    s = 1 - zm
    if s <= 0:
        return False
    for _ in range(2, k + 1):
        s = s - zm / s
        if s <= 0:
            return False
    return True


def gk_derivative(zm, k: int):
    """g_k'(z) = -s_k'(z), by differentiating the chain analytically."""
    s = 1 - zm
    ds = mpmath.mpf(-1)
    for _ in range(2, k + 1):
        s, ds = s - zm / s, ds - 1 / s + zm * ds / (s * s)
    return -ds


def zstar_lower_formula(k: int) -> float:
    return k - math.sqrt(k * k - 1.0)


def zstar_upper_formula(k: int) -> float:
    parenthesis = 1.0 - (4.0 * k) ** -0.25
    return math.inf if parenthesis <= 0.0 else 1.0 / (2.0 * k * parenthesis)


def alpha_bounds_formula(k: int) -> tuple[float, float]:
    m = k - 1
    lower = max(2.0 * m * (1.0 - 1.0 / (math.sqrt(2.0) * m**0.25)), 0.0)
    return lower, 1.0 / (m - math.sqrt(m * m - 1.0))


# --------------------------------------------------------------- spectra --


def adjacency(parent: list[int]):
    n = len(parent)
    child = np.arange(1, n)
    par = np.asarray(parent[1:], dtype=np.int64)
    data = np.ones(2 * (n - 1))
    return sparse.csr_matrix(
        (data, (np.concatenate((child, par)), np.concatenate((par, child)))), shape=(n, n)
    )


def lambda1(parent: list[int], shape: str = "") -> float:
    """Largest adjacency eigenvalue: closed form for paths and stars, else
    Lanczos on the sparse matrix (dense for tiny trees)."""
    n = len(parent)
    if n == 1:
        return 0.0
    if shape == "path":
        return 2.0 * math.cos(math.pi / (n + 1))
    if shape == "star":
        return math.sqrt(n - 1)
    a = adjacency(parent)
    if n <= 64:
        return float(np.linalg.eigvalsh(a.toarray())[-1])
    return float(
        sparse_linalg.eigsh(a, k=1, which="LA", tol=0, return_eigenvectors=False)[0]
    )


def leaning_parent(order: int) -> list[int]:
    """Parent array of the order-``order`` leaning tree (2^order nodes).

    A vertex of order j has children of orders j-1, ..., 0, left to right."""
    parent: list[int] = []
    stack = [(order, -1)]
    while stack:
        j, p = stack.pop()
        index = len(parent)
        parent.append(p)
        stack.extend((i, index) for i in range(j))
    return parent


@lru_cache(maxsize=None)
def leaning_lambda1_explicit(order: int) -> float:
    return lambda1(leaning_parent(order)) if order > 0 else 0.0


def leaning_pivots_positive(x, order: int) -> bool:
    """All LDL pivots of xI - A on the leaning tree positive (x > lambda1).

    Eliminating leaves upward, every vertex of order j has the same pivot
    d_j = x - sum_(i<j) 1/d_i; Sylvester's law of inertia turns positivity of
    all pivots into x exceeding the largest eigenvalue."""
    xm = mpmath.mpf(x)
    inv_sum = mpmath.mpf(0)
    for _ in range(order + 1):
        pivot = xm - inv_sum
        if pivot <= 0:
            return False
        inv_sum += 1 / pivot
    return True


def leaning_lambda1_within(order: int, value: float, eps: float) -> bool:
    """Certify |value - lambda1(leaning tree of this order)| <= eps."""
    if order == 0:
        return abs(value) <= eps
    lo = mpmath.mpf(value) - mpmath.mpf(eps)
    hi = mpmath.mpf(value) + mpmath.mpf(eps)
    return not leaning_pivots_positive(lo, order) and leaning_pivots_positive(hi, order)


def max_degree(parent: list[int]) -> int:
    kids = children_lists(parent)
    return max(len(kids[v]) + (v > 0) for v in range(len(parent)))


def root_walk_count(parent: list[int], length: int) -> int:
    """Exact closed walks of ``length`` steps from the root, in integers."""
    kids = children_lists(parent)
    nbrs = [kids[v] + ([parent[v]] if v else []) for v in range(len(parent))]
    x = [0] * len(parent)
    x[0] = 1
    for _ in range(length):
        x = [sum(x[w] for w in nb) for nb in nbrs]
    return x[0]


# ----------------------------------------------------------- Ulam-Harris --


def uh_greedy(parent: list[int]) -> int:
    """Minimal Ulam-Harris number: children in descending order of their own
    minimal number, evaluated leaves first."""
    kids = children_lists(parent)
    value = [1] * len(parent)
    for v in range(len(parent) - 1, -1, -1):
        ranked = sorted((value[c] for c in kids[v]), reverse=True)
        value[v] = max([1] + [pos + u for pos, u in enumerate(ranked, 1)])
    return value[0]


def uh_bruteforce(parent: list[int]) -> int:
    """Minimal Ulam-Harris number over every ordering of every child list."""
    kids = children_lists(parent)
    value = [1] * len(parent)
    for v in range(len(parent) - 1, -1, -1):
        vals = [value[c] for c in kids[v]]
        if vals:
            value[v] = max(
                1, min(max(pos + u for pos, u in enumerate(perm, 1)) for perm in permutations(vals))
            )
    return value[0]


def uh_labels(parent: list[int]) -> list[int]:
    """Ulam-Harris labels in preorder for the tree as ordered."""
    kids = children_lists(parent)
    labels = [0] * len(parent)
    labels[0] = 1
    for v in range(len(parent)):
        for pos, c in enumerate(kids[v], 1):
            labels[c] = labels[v] + pos
    return labels


def same_shape(first: list[int], second: list[int]) -> bool:
    """True iff the two ordered trees are reorderings of one unordered tree
    (AHU codes interned in one table)."""
    ids: dict[tuple, int] = {}

    def root_code(parent: list[int]) -> int:
        kids = children_lists(parent)
        code = [0] * len(parent)
        for v in range(len(parent) - 1, -1, -1):
            key = tuple(sorted(code[c] for c in kids[v]))
            code[v] = ids.setdefault(key, len(ids))
        return code[0]

    return len(first) == len(second) and root_code(first) == root_code(second)
