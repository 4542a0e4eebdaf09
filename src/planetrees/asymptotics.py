"""Dominant singularities and growth constants of the counting series.

Write s_k(z) = 1 - g_k(z), where g_k is the counting series for decreasing
labels from {1..k}.  The chain s_1 = 1 - z, s_k = s_(k-1) - z/s_(k-1) is
positive on [0, zstar_k), where zstar_k is the smallest positive root of
s_k; the counts with k+1 labels then grow like c * alpha^n with
alpha = 1/zstar_k (the root is a simple pole of the next counting series).

One routine, ``_root``, locates the root for ``zstar`` (which
``spectral.leaning_lambda1`` reads) and ``growth_constants``: a safeguarded
Newton iteration ("rtsafe", Press et al., Numerical Recipes, section 9.4) on
s_k = 1 - g_k with s_k' = -g_k' from ``eval_gk_with_derivative``, then a
certificate.  Near the root the recurrence divides by a vanishing chain
member, so a bare Newton step can jump past a pole; the iteration keeps a
bracket that starts at the proved bounds and narrows by the sign of every
iterate, and an iterate that would leave it, or one past a pole, is replaced
by the bracket midpoint.  Its correctness rests on neither the seed nor
concavity.  The seed is a fitted large-k expansion of alpha, within 4.1e-11
relative of the root from k = 20, so one derivative pass finds the root for
k >= 13: Newton returns its last iterate plus the step without evaluating
there again.  The certificate is a positivity test of the chain, monotone in
z, read at the two ends of a bracket centred on the Newton root: one chain
pass per end.  Which test, and what it proves, is the rule of
``RootBracket``; it holds for ``zstar``, ``growth_constants`` and
``leaning_lambda1`` alike.  c needs g'_(k-1) at the root, one more
derivative pass at the bracket midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

#: default bracket width for root location (double precision)
DEFAULT_ROOT_TOL = 1e-12
#: largest k whose root brackets ``_root`` certifies rigorously: by the
#: outward-rounded fixed-point chain, exact rationals only when it cannot decide
EXACT_CERTIFICATE_MAX_K = 10
#: fractional bits of the fixed-point interval chain of ``_chain_positive_certified``
_CERTIFICATE_BITS = 128


@dataclass(frozen=True)
class RootBracket:
    """Certified interval [lo, hi] around the smallest positive root of s_k.

    The certificate rule: one positivity test of the chain holds at lo and
    fails at hi, and the bracket is no wider than the width asked for or
    the float floor of 16 ulps, whichever is larger.  For k <=
    EXACT_CERTIFICATE_MAX_K the test is the outward-rounded fixed-point
    chain (``_chain_positive_certified``, exact rationals only when it
    cannot decide), so the bracket is certified under rounding.  Above, it
    is the sign of the float chain, which is not rigorous once the bracket
    is as narrow as the rounding error.  k = 1 is exact: both ends are the
    algebraic root 1.
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


def eval_sk(z: float, k: int) -> float | None:
    """Evaluate s_k(z) through the chain: the (positive) value when every
    chain member stays positive, otherwise None, as z is then at or beyond
    the root of the first nonpositive member and hence of s_k.
    """
    if z < 0:
        raise ValueError("z must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    s = _chain(z, k)
    return s if s > 0.0 else None


def _chain(z: float, k: int) -> float:
    """s_j(z) for the first index j with s_j(z) <= 0, or s_k(z) when every
    chain member is positive; the callers read only the sign."""
    s = 1.0 - z
    for _ in range(2, k + 1):
        if s <= 0.0:
            return s
        s -= z / s
    return s


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
    s_k(1/(2k)) <= (4k)^(-1/4).
    """
    if k < 1:
        raise ValueError("k must be positive")
    return 1.0 / (2.0 * k * (1.0 - (4.0 * k) ** -0.25))


def zstar(k: int, tol: float = DEFAULT_ROOT_TOL) -> RootBracket:
    """Bracket for the smallest positive root of s_k, certified by the rule
    of ``RootBracket`` and no wider than ``tol`` or 16 ulps.

    The bracket is centred on the Newton root of ``_root``, each end tol/4
    from it but never closer than 8 ulps, both inside the proved bounds;
    where the chain test cannot tell points that close apart, it is
    narrowed by bisection.  That usually costs one derivative pass and two
    chain passes of k steps (from k = 13; up to three derivative passes
    below).  k = 1 is returned exactly: s_1 = 1 - z has root 1, which
    coincides with the lower bound, so no strictly-positive certificate to
    its left exists within the proved bounds.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    return RootBracket(k, *_root(k, tol))


#: alpha_(k+1) = 1/zstar_k = 2k - ln(k)/2 - C + (ln(k)/8 + B)/k
#: + (P ln(k)^2 + Q ln(k) + R)/k^2 + ..., Newton's seed.  Fitted against
#: 50-digit ``decimal`` roots (Newton on the chain) at every k = 2..300 and
#: 59 more up to 10^6: C from the tail k >= 1000, where fits with either
#: three or four more terms give C to +-2e-11; the ln(k)/k coefficient
#: fixed at 1/8 (free fits from k >= 300 give 0.1249996 to 0.1249999);
#: B, P, Q and R by minimax of the relative error over k >= 20.  The seed
#: is then within 4.1e-11 relative of the root for k >= 20 (1.8e-11 from
#: k = 50, 6.5e-13 from k = 3000, 1e-16 at k = 10^6), and 2.2e-4 at k = 2
#: falling to 2.9e-9 at k = 13; without R the best fit is only 3e-10 from
#: k = 50
_SEED_C = 1.16452610816
_SEED_B = 0.1661487
_SEED_P = 0.01486257
_SEED_Q = 0.01504634
_SEED_R = -0.008918688
#: Newton's g_k lands within about this many ulps of its fixed point (at
#: most 9 measured for k <= 10^5), and a bracket end closer than this to the
#: root often fails a 50-digit check of the chain (k = 2..300: 207 of 299
#: rows at 1 ulp, 21 at 8 ulps): no bracket end comes closer to the root
_ROUNDING_ULPS = 8.0
#: a Newton step from z0 = root * (1 + e) lands at root * (1 + e1) with
#: e1 ~ kappa_k * e^2 and kappa_k/k rising from 0.22 (k = 2) to 0.5822
#: (k = 10^6), measured at e = +-1e-9 on the 50-digit chain; this bounds
#: kappa_k/k
_NEWTON_CURVATURE = 0.6


def _root(k: int, width: float) -> tuple[float, float]:
    """(lo, hi) around the smallest positive root of s_k, under the
    certificate rule of ``RootBracket``.

    Newton finds the root to float precision whatever ``width`` is: from
    the fitted seed that takes one derivative pass for k >= 13, and at most
    three below.  The chain test is picked once, here:
    ``_chain_positive_certified`` for k <= EXACT_CERTIFICATE_MAX_K and the
    sign of the float chain above.  ``_certify`` reads every point with it,
    so [lo, hi] passes it at lo, fails it at hi, lies inside the proved
    bounds and is no wider than ``width`` or the float floor of 16 ulps.
    """
    if k == 1:
        return 1.0, 1.0
    lower = zstar_lower_bound(k)
    upper = min(1.0, zstar_upper_bound(k))
    positive = _chain_positive_certified if k <= EXACT_CERTIFICATE_MAX_K else _float_chain_positive
    return _certify(k, _newton(k, lower, upper), width, lower, upper, positive)


def _seed(k: int) -> float:
    """1/alpha_(k+1) from the fitted large-k expansion."""
    ln = math.log(k)
    correction = ln / 8.0 + _SEED_B + (_SEED_P * ln * ln + _SEED_Q * ln + _SEED_R) / k
    return 1.0 / (2.0 * k - 0.5 * ln - _SEED_C + correction / k)


def _newton(k: int, lo: float, hi: float) -> float:
    """Newton on s_k inside the proved bracket [lo, hi], narrowed by the sign
    of every iterate.

    Returns z + step without evaluating there once the quadratic remainder
    of that step, at most _NEWTON_CURVATURE * k * step^2 / z, is below half
    an ulp of z, so that it moves the result by less than the rounding of
    the step does.  A limit at the 16-ulp bracket floor would pass real
    errors of that size: at k = 2 it leaves the root two ulps off.
    """
    z = min(max(_seed(k), lo), hi)
    while True:
        try:
            g, derivative = eval_gk_with_derivative(z, k)
        except ValueError:  # z is past a pole of the chain, so past the root
            hi = z
            z = 0.5 * (lo + hi)
            continue
        # s_k/s_k' = -(1 - g)/g', and g' > 0, so the step has the sign of s_k
        step = (1.0 - g) / derivative
        following = z + step
        if _NEWTON_CURVATURE * k * step * step <= 0.5 * math.ulp(z) * z:
            return following
        if step > 0.0:
            lo = z
        else:
            hi = z
        if not lo < following < hi:
            following = 0.5 * (lo + hi)
            if not lo < following < hi:
                return z  # float resolution floor
        z = following


def _certify(
    k: int,
    root: float,
    width: float,
    lower: float,
    upper: float,
    positive: Callable[[float, int], bool],
) -> tuple[float, float]:
    """A bracket no wider than ``width``, or than the float floor of
    2 * _ROUNDING_ULPS ulps, with the chain test ``positive(z, k)`` true at
    lo and false at hi.

    Tries root -/+ max(width/4, _ROUNDING_ULPS ulps) first.  An end the
    test rejects is stepped outward, doubling its distance from the root,
    until it holds; each rejected point then bounds the other side, and
    bisection narrows what is left.  Ends never pass the proved bounds
    ``lower`` and ``upper``.
    """
    floor = _ROUNDING_ULPS * math.ulp(root)
    offset = max(0.25 * width, floor)
    lo = hi = None
    reach = offset
    while lo is None:
        z = max(root - reach, lower)
        if positive(z, k):
            lo = z
        elif z == lower:
            raise RuntimeError(f"positivity fails at the lower seed {z} for k={k}")
        else:
            hi, reach = z, 2.0 * reach
    reach = offset
    while hi is None:
        z = min(root + reach, upper)
        if not positive(z, k):
            hi = z
        elif z == upper:
            raise RuntimeError(f"positivity unexpectedly holds at the upper seed {z} for k={k}")
        else:
            lo, reach = z, 2.0 * reach
    while hi - lo > max(width, 2.0 * floor):
        mid = 0.5 * (lo + hi)
        if positive(mid, k):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _float_chain_positive(z: float, k: int) -> bool:
    """Whether s_1(z), ..., s_k(z) are all positive in the float chain."""
    return _chain(z, k) > 0.0


def _chain_positive_certified(z: float, k: int) -> bool:
    """Whether s_1(z), ..., s_k(z) are all positive: the verdict of
    ``_chain_positive_exactly``, from an interval chain in fixed point.

    Each member is held as [lo, hi] in units of 2^-_CERTIFICATE_BITS.  z is
    a float, so z = p/2^e exactly, and s_1 = 1 - z is exact when e is at
    most the bit count.  s -> s - z/s is increasing for s > 0 (Moore,
    Interval Analysis, 1966), so [lo - ceil(z/lo), hi - floor(z/hi)] holds
    the next member whenever lo > 0.  The chain is not positive once some
    hi <= 0 and is positive if every lo > 0; an interval that straddles 0,
    or a z too fine for the bit count, goes to the exact check.
    """
    p, q = z.as_integer_ratio()
    shift = _CERTIFICATE_BITS - (q.bit_length() - 1)
    if shift < 0:
        return _chain_positive_exactly(z, k)
    scaled = p << shift
    lo = hi = (1 << _CERTIFICATE_BITS) - scaled
    numerator = scaled << _CERTIFICATE_BITS
    for _ in range(1, k):
        if lo <= 0:
            break
        lo, hi = lo - -(-numerator // lo), hi - numerator // hi
    if lo > 0:
        return True
    if hi <= 0:
        return False
    return _chain_positive_exactly(z, k)


def _chain_positive_exactly(z: float, k: int) -> bool:
    """Whether s_1(z), ..., s_k(z) are all positive, in exact arithmetic:
    the fallback of ``_chain_positive_certified`` where its fixed-point
    interval cannot decide.

    z = p/q is taken at its exact binary value and each chain member is
    carried as a/b with b > 0: s - z/s = (q a^2 - p b^2) / (q a b).  The
    numerators roughly double in size at each step (about 1 ms a check at
    k = 10), so this is meant for small k.
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
    """Growth rate and leading constant ``(alpha, c)`` with k labels: the
    counts grow like c * alpha^n, with alpha = 1/zstar_(k-1).

    Both come from one run of ``_root`` on s_(k-1).  Newton reaches float
    precision at every ``tol``, so ``tol`` sets only the width of the
    bracket, tol * zlow^2 with zlow the proved lower bound, which keeps the
    propagated error of alpha = 1/midpoint below ``tol``.  The bracket is
    certified by the rule of ``RootBracket``; where that rule rests on the
    float chain (k - 1 > EXACT_CERTIFICATE_MAX_K), alpha holds only to
    about 1e-13 * alpha: rounding in the chain moves the Newton root, and
    the float certificate with it, by some ulps, so against 50-digit roots
    alpha is off by 8.3e-13 at k = 301, 2.1e-12 at k = 501 and 9.1e-12 at
    k = 3001 (6.2e-14 relative at most for k <= 10^6), whatever ``tol`` is.
    A smaller ``tol`` is not honoured there until the bracket is certified
    under rounding (the ROADMAP item "One outward-rounded certificate for
    every root bracket and every lambda1 bracket").

    The root of s_(k-1) is a simple pole of g_k, and the residue calculus
    for a simple pole of a rational series gives c = 1/g'_(k-1) at the
    root, here at the bracket midpoint: one more derivative pass, through
    the differentiated recurrence of ``eval_gk_with_derivative``.  The tests
    check c against the empirical series ratio.  Of its 17 printed digits
    only about 12 are right near k = 300 (relative error 6.3e-13 at k = 301
    against 50-digit references, 7.7e-15 at k = 101).
    """
    if k < 2:
        raise ValueError("growth constants are defined for k >= 2")
    if not tol > 0:
        raise ValueError("tol must be positive")
    lower = zstar_lower_bound(k - 1)
    lo, hi = _root(k - 1, tol * lower * lower)
    midpoint = 0.5 * (lo + hi)
    return 1.0 / midpoint, 1.0 / eval_gk_with_derivative(midpoint, k - 1)[1]


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
