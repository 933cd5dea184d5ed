"""Truncated Poisson degree laws and the special functions behind them.

A Poisson(lam) variable conditioned on values in {0, ..., d} has pmf
proportional to the terms lam^j / j!, which DegreeLaw and mean build by
one recurrence, scaled by the largest term so that none overflows.  The
mean is strictly increasing in lam and maps (0, inf) onto (0, d).  That
bijection lets us parameterize degree laws by their mean instead of by
the rate, and it defines the critical mean degree separating the phase
with all components small from the phase with a giant component.  A
DegreeLaw is its (d, lam); molloy_reed_q and giant's functions also take
a bare probability vector, checked by as_probs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DegreeLaw",
    "as_probs",
    "mean",
    "invert_mean",
    "make_degree_law",
    "molloy_reed_q",
    "critical_mean_degree",
    "critical_mean_degree_approx",
]


@dataclass(frozen=True)
class DegreeLaw:
    """The truncated Poisson degree distribution on {0, ..., d} of rate lam.

    Equality and hashing use (d, lam); probs is built from them.

    Attributes:
        d: Maximum degree, d >= 1.
        lam: Poisson rate parameter, a positive finite real (checked by
            _check_rate).
        probs: Read-only probability vector of length d + 1 with
            probs[i] = lam^i / (i! * s_d(lam)).  An entry is 0 only when
            its ratio to the largest term underflows, so the mass a zero
            class drops is below 1e-300.
        mu: Mean of the law, read from probs: sum_i i * probs[i], which is
            mean(d, lam) and lies in (0, d).
    """

    d: int
    lam: float
    probs: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        lam = _check_rate(self.lam)
        d = operator.index(self.d)
        if d < 1:
            raise ValueError(f"max degree must be >= 1, got {d}")
        # Scale every class by the largest one, at j = min(d, floor(lam)), so
        # that no term exceeds 1 and none overflows, however large lam is.
        # Each direction stops where a term underflows to 0, as all later ones would.
        terms = np.zeros(d + 1)
        peak = min(d, int(lam))
        terms[peak] = 1.0
        term = 1.0
        for j in range(peak + 1, d + 1):
            term = term * lam / j
            if not term:
                break
            terms[j] = term
        term = 1.0
        for j in range(peak, 0, -1):
            term = term * j / lam
            if not term:
                break
            terms[j - 1] = term
        probs = terms / terms.sum()
        probs.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "probs", probs)

    @property
    def mu(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def cumulative(self) -> np.ndarray:
        """Cumulative probabilities, with the final entry pinned to 1.0."""
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        return cum


def as_probs(law: DegreeLaw | Sequence[float]) -> np.ndarray:
    """A DegreeLaw's own probability vector, or a checked copy of a bare one.

    A bare vector must be 1-D with d >= 1, finite, >= 0 and sum to 1 within 1e-12.
    """
    if isinstance(law, DegreeLaw):
        return law.probs
    probs = np.array(law, dtype=float)
    if probs.ndim != 1 or probs.size < 2:
        raise ValueError("degree distribution must be a vector over degrees 0..d")
    if not np.all(np.isfinite(probs) & (probs >= 0)):
        raise ValueError("degree-class probabilities must be finite and >= 0")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError(f"probs must sum to 1, got {probs.sum()!r}")
    return probs


def _check_rate(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0:
        raise ValueError(f"rate must be a positive finite real, got {lam!r}")
    return lam


def mean(k: int, lam: float) -> float:
    """Mean of the k-truncated Poisson law: lam * s_{k-1}(lam) / s_k(lam).

    Here s_k(lam) = sum_{j=0}^{k} lam^j / j!; the mean is read in one pass as
    sum_j j t_j / sum_j t_j over DegreeLaw's scaled terms t_j.  Strictly
    increasing in lam and inside (0, k), though it rounds to k far above k.

    Raises:
        ValueError: If k < 1 or lam <= 0.
    """
    lam = _check_rate(lam)
    if k < 1:
        raise ValueError(f"truncation degree must be >= 1, got {k}")
    peak = min(k, int(lam))
    total, moment = 1.0, float(peak)
    term = 1.0
    for j in range(peak + 1, k + 1):
        term = term * lam / j
        if not term:
            break
        total += term
        moment += j * term
    term = 1.0
    for j in range(peak, 0, -1):
        term = term * j / lam
        if not term:
            break
        total += term
        moment += (j - 1) * term
    return moment / total


def invert_mean(k: int, target: float) -> float:
    """Rate lam at which the k-truncated Poisson law has mean `target`.

    The mean function is strictly increasing from (0, inf) onto (0, k), so
    the preimage exists and is unique.  The root is bracketed by doubling
    the upper endpoint until the mean exceeds the target, then bisected to
    float resolution, until the midpoint rounds onto an endpoint.

    Args:
        k: Truncation degree, k >= 1.
        target: Desired mean, strictly inside (0, k).  target == k has no
            finite preimage and is rejected.

    Raises:
        ValueError: If target is outside (0, k).
    """
    if k < 1:
        raise ValueError(f"truncation degree must be >= 1, got {k}")
    target = float(target)
    if not (0.0 < target < k):
        raise ValueError(f"target mean must lie strictly in (0, {k}), got {target!r}")
    lo = 0.0
    hi = 1.0
    while mean(k, hi) < target:
        lo = hi
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        if mean(k, mid) < target:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    # A subnormal target leaves the bracket (0, 5e-324), whose midpoint
    # rounds to 0.0; the bracket's top is then the positive rate.
    return mid if mid > 0.0 else hi


def make_degree_law(d: int, mu: float) -> DegreeLaw:
    """Degree law with maximum degree d and mean degree mu.

    Solves mean(d, lam) = mu for the rate, then fills in the probability
    vector.  The mean is the natural handle because a graph on n vertices
    with m edges has average degree 2m/n.

    Args:
        d: Maximum degree, d >= 1.
        mu: Mean degree, strictly inside (0, d).

    Raises:
        ValueError: If d < 1 or mu is outside (0, d) (such an instance is
            degenerate or infeasible as a degree distribution).
    """
    return DegreeLaw(d, invert_mean(d, mu))


def molloy_reed_q(law: DegreeLaw | Sequence[float]) -> float:
    """Molloy-Reed criterion value Q = sum_i i(i-2) probs[i].

    The sign of Q classifies the phase of a random graph with this degree
    distribution: Q < 0 means all components stay small, Q > 0 means a
    giant component emerges.  For a truncated Poisson law Q also has the
    closed form mean(d, lam) * (mean(d-1, lam) - 1) (tests/analytic_reference.py).

    Raises:
        ValueError: If d < 2, or a bare vector fails as_probs.
    """
    probs = as_probs(law)
    if probs.size < 3:
        raise ValueError(f"phase classification needs max degree >= 2, got {probs.size - 1}")
    i = np.arange(probs.size)
    return float((i * (i - 2)) @ probs)


def critical_mean_degree(d: int) -> float:
    """Critical mean degree at which the giant component appears.

    For maximum degree d >= 3 this is mean(d, lam1) where lam1 is the rate
    at which the (d-1)-truncated law has mean exactly 1.  For d = 2 the
    (d-1)-truncated mean is bounded above by 1 and never reaches it, so no
    finite threshold exists and math.inf is returned: a max-degree-2 graph
    is a union of paths and cycles and never has a giant component.

    Raises:
        ValueError: If d < 2.
    """
    if d < 2:
        raise ValueError(f"max degree must be >= 2, got {d}")
    if d == 2:
        return math.inf
    return mean(d, invert_mean(d - 1, 1.0))


def critical_mean_degree_approx(d: int) -> float:
    """Large-d factorial-series approximation to the critical mean degree.

    Returns 1 + 1/(e (d-1)!) - 1/(e d!); the true threshold differs from
    this by O(1/(d-1)!^2).  Useful as a side-by-side column in threshold
    tables; the approximation is poor for d <= 4.
    """
    if d < 2:
        raise ValueError(f"max degree must be >= 2, got {d}")
    return 1.0 + 1.0 / (math.e * math.factorial(d - 1)) - 1.0 / (
        math.e * math.factorial(d)
    )
