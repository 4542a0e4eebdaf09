"""Dominant singularities and growth constants of the counting series.

Write s_k(z) = 1 - g_k(z), where g_k is the counting series for decreasing
labels from {1..k}.  The chain s_1 = 1 - z, s_k = s_(k-1) - z/s_(k-1) is
positive on [0, zstar_k), where zstar_k is the smallest positive root of
s_k; the counts with k+1 labels then grow like ck * alpha^n with
alpha = 1/zstar_k (the root is a simple pole of the next counting series).

Root location uses bisection on a positivity predicate rather than Newton
steps: near the root the recurrence divides by a vanishing chain member, and
a Newton step can jump past the pole, while the predicate (every chain
member positive) is monotone in z and unconditionally safe to bisect.
One loop, ``_chain``, serves the bisection and ``eval_sk``; c needs
g'_(k-1) at the root, carried beside g by its explicit recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: default bracket width for root location (double precision)
DEFAULT_ROOT_TOL = 1e-12
#: largest k whose root brackets ``zstar`` checks in exact arithmetic
EXACT_CERTIFICATE_MAX_K = 10


@dataclass(frozen=True)
class BeyondRoot:
    """Sentinel value: the chain became nonpositive first at this index."""

    index: int


@dataclass(frozen=True)
class RootBracket:
    """Certified interval [lo, hi] around the smallest positive root of s_k.

    The chain is verified positive at lo and verified to fail positivity at
    hi, in exact arithmetic for k <= EXACT_CERTIFICATE_MAX_K and in floats
    above (except in the exactly-solvable k = 1 case, where both endpoints
    are the algebraic root 1).
    """

    k: int
    lo: float
    hi: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def eval_sk(z: float, k: int) -> float | BeyondRoot:
    """Evaluate s_k(z) through the chain, or report where positivity fails.

    Returns the (positive) value when every chain member stays positive,
    otherwise BeyondRoot(j) for the first index j with s_j(z) <= 0, in which
    case z is at or beyond the root of s_j and hence of s_k.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    j, s = _chain(z, k)
    return s if s > 0.0 else BeyondRoot(j)


def _chain(z: float, k: int) -> tuple[int, float]:
    """(j, s_j(z)) for the first index j with s_j(z) <= 0, or (k, s_k(z))
    when every chain member is positive; the bisection reads only the sign."""
    s = 1.0 - z
    if s <= 0.0:
        return 1, s
    for j in range(2, k + 1):
        s -= z / s
        if s <= 0.0:
            return j, s
    return k, s


def eval_gk(z: float, k: int) -> float:
    """Evaluate the counting series g_k(z) inside its disc of convergence."""
    return eval_gk_with_derivative(z, k)[0]


def eval_gk_with_derivative(z: float, k: int) -> tuple[float, float]:
    """(g_k(z), g_k'(z)): differentiating g_j = g_(j-1) + z/(1 - g_(j-1))
    gives g_j' = g_(j-1)' + (1 + z g_(j-1)'/(1 - g_(j-1))) / (1 - g_(j-1)),
    from g_1 = z, g_1' = 1, in the float operation order of forward-mode
    dual numbers."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    z = float(z)
    g, dg = z, 1.0
    for _ in range(2, k + 1):
        denom = 1.0 - g
        if denom <= 0.0:
            raise ValueError(f"z={z} is at or beyond the pole of the next level")
        step = z / denom
        g, dg = g + step, dg + (1.0 + step * dg) / denom
    return g, dg


def zstar_lower_bound(k: int) -> float:
    """Provable lower bound k - sqrt(k^2 - 1) for the root of s_k.

    Squaring the chain recurrence and telescoping shows s_k(z)^2 is at least
    1 - 2kz + z^2, which stays positive strictly below this value.  It is
    computed as 1/(k + sqrt(k^2 - 1)): the difference loses digits to
    cancellation, by enough from about k = 3.5e5 to put the seed past the
    root.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return 1.0 / (k + math.sqrt(k * k - 1.0))


def zstar_upper_bound(k: int) -> float:
    """Provable upper bound 1/(2k(1 - (4k)^(-1/4))) for the root of s_k.

    Follows from concavity of s_k on [0, root] together with the bound
    s_k(1/(2k)) <= (4k)^(-1/4).  Reported as +inf if the parenthesis is not
    positive (never the case for k >= 1).
    """
    if k < 1:
        raise ValueError("k must be positive")
    parenthesis = 1.0 - (4.0 * k) ** -0.25
    if parenthesis <= 0.0:
        return math.inf
    return 1.0 / (2.0 * k * parenthesis)


def zstar(k: int, tol: float = DEFAULT_ROOT_TOL) -> RootBracket:
    """Certified bracket for the smallest positive root of s_k.

    Bisection on the positivity predicate of ``eval_sk``, seeded with the
    provable lower and upper bounds (intersected with [0, 1]), stopped at
    the first bracket no wider than ``tol`` (or at the float resolution
    floor).  k = 1 is returned exactly: s_1 = 1 - z has root 1, which
    coincides with the lower bound, so no strictly-positive certificate to
    its left exists within the seeded interval.

    For k <= EXACT_CERTIFICATE_MAX_K both endpoints are then checked in
    exact rational arithmetic (every chain member positive at lo, not at
    hi); an endpoint that fails, because rounding in the float chain
    misjudged a point within a few ulps of the root, is stepped outward one
    float at a time until it holds, so the bracket may end a few ulps wider
    than ``tol``.  Above that limit the certificate is float-only: it rests
    on the float evaluation of the chain, which is not rigorous under
    rounding once the bracket is as narrow as the rounding error.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    for lo, hi in _root_brackets(k):
        if hi - lo <= tol:
            break
    if 1 < k <= EXACT_CERTIFICATE_MAX_K:
        while not _chain_positive_exactly(lo, k):
            lo = math.nextafter(lo, 0.0)
        while _chain_positive_exactly(hi, k):
            hi = math.nextafter(hi, math.inf)
    return RootBracket(k, lo, hi)


def _root_brackets(k: int):
    """The bisection brackets of ``zstar``, widest first.

    Yields the seeds and then every bracket the bisection passes through,
    ending at the float resolution floor.  Deterministic, so any list of
    tolerances can be served from one run of it.
    """
    if k == 1:
        yield 1.0, 1.0
        return
    lo = zstar_lower_bound(k)
    hi = min(1.0, zstar_upper_bound(k))
    if _chain(lo, k)[1] <= 0.0:
        raise RuntimeError(f"positivity fails at the lower seed {lo} for k={k}")
    if _chain(hi, k)[1] > 0.0:
        raise RuntimeError(f"positivity unexpectedly holds at the upper seed {hi} for k={k}")
    yield lo, hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return  # float resolution floor
        if _chain(mid, k)[1] <= 0.0:
            hi = mid
        else:
            lo = mid
        yield lo, hi


def _chain_positive_exactly(z: float, k: int) -> bool:
    """Whether s_1(z), ..., s_k(z) are all positive, in exact arithmetic.

    z = p/q is taken at its exact binary value and each chain member is
    carried as a/b with b > 0: s - z/s = (q a^2 - p b^2) / (q a b).  The
    numerators roughly double in size at each step, so this is meant for
    small k.
    """
    p, q = z.as_integer_ratio()
    a, b = q - p, q
    if a <= 0:
        return False
    for _ in range(2, k + 1):
        a, b = q * a * a - p * b * b, q * a * b
        if a <= 0:
            return False
    return True


def growth_constants(k: int, tol: float = DEFAULT_ROOT_TOL) -> tuple[float, float]:
    """Growth rate and leading constant with k labels: ``(alpha(k, tol), ck(k, tol))``.

    Both come from one bisection run on s_(k-1): a 1e-6 bracket sets the
    width that keeps the propagated error of 1/zstar below ``tol``, a
    bracket of that width gives alpha, and a min(tol, 1e-12) bracket gives
    the point where c is evaluated.
    """
    if k < 2:
        raise ValueError("growth constants are defined for k >= 2")
    if not tol > 0:
        raise ValueError("tol must be positive")
    brackets = _root_brackets(k - 1)
    current = next(brackets)

    def narrow(width: float) -> RootBracket:
        nonlocal current
        while current[1] - current[0] > width:
            following = next(brackets, None)
            if following is None:
                break
            current = following
        return RootBracket(k - 1, *current)

    coarse = narrow(1e-6)
    alpha_width = min(DEFAULT_ROOT_TOL, tol * coarse.lo * coarse.lo)
    c_width = min(tol, DEFAULT_ROOT_TOL)
    # the bracket sequence only narrows, so serve the wider request first
    roots = {width: narrow(width) for width in sorted({alpha_width, c_width}, reverse=True)}
    alpha_root, c_root = roots[alpha_width], roots[c_width]
    derivative = eval_gk_with_derivative(c_root.midpoint, k - 1)[1]
    return 1.0 / alpha_root.midpoint, 1.0 / derivative


def alpha(k: int, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Exponential growth rate of the counts with k labels: 1/zstar_(k-1).

    The root bracket is refined to a width that keeps the propagated error
    of the reciprocal below ``tol``.
    """
    return growth_constants(k, tol)[0]


def alpha_bounds(k: int) -> tuple[float, float]:
    """Provable bracket for the growth rate with k labels.

    Lower: 2(k-1) (1 - 1/(sqrt(2) (k-1)^(1/4))), clamped at 0 if the
    parenthesis were negative.  Upper: 1/((k-1) - sqrt((k-1)^2 - 1)).
    """
    if k < 2:
        raise ValueError("growth constants are defined for k >= 2")
    m = k - 1
    lower = 2.0 * m * (1.0 - 1.0 / (math.sqrt(2.0) * m**0.25))
    lower = max(lower, 0.0)
    upper = 1.0 / (m - math.sqrt(m * m - 1.0))
    return (lower, upper)


def ck(k: int, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Leading constant of the growth law: counts ~ ck(k) * alpha(k)^n.

    The root of s_(k-1) is a simple pole of g_k, and the residue calculus
    for a simple pole of a rational series gives 1/g'_(k-1) evaluated at the
    root.  The derivative is carried through the differentiated form of the
    recurrence that defines the series, and the formula is validated against
    the empirical series ratio in the tests before being trusted.
    """
    return growth_constants(k, tol)[1]
