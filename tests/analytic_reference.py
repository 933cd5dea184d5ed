"""Analytic references that only the tests use.

Closed forms and independent derivations of what gnmd computes another
way, kept here so the tests can check the product against them.

The root of the size-biased fixed point xi = G1(xi), which giant solves
as a polynomial, also appears in the exploration frontier

    frontier(x) = D - 2x - sum_{i=1}^{d} i p_i (1 - 2x/D)^(i/2),

x in [0, D/2], which to first order is the expected number of half-edges
on reached-but-unexplored vertices after x n edges have been exposed
(Janson & Luczak 2009).  Substituting xi = sqrt(1 - 2x/D) turns it into
xi * (D xi - sum_i i p_i xi^(i-1)) = xi * D (xi - G1(xi)), so the
frontier's smallest positive root is x = D/2 (1 - xi^2), the value that
giant.frontier_root returns.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from gnmd import truncpoisson
from gnmd.truncpoisson import DegreeLaw


def exploration_frontier(law: DegreeLaw | Sequence[float], x: float) -> float:
    """Evaluate the exploration frontier function at x.

    Args:
        law: A DegreeLaw, or a bare probability vector over degrees 0..d
            (degenerate distributions are accepted; only the frontier
            algebra is used).
        x: Exposed-edge density, in [0, D/2] with D the mean degree.

    Raises:
        ValueError: If x falls outside [0, D/2]; half-integer powers of
            1 - 2x/D are undefined past the midpoint.
    """
    probs = truncpoisson.as_probs(law)
    big_d = float(np.arange(probs.size) @ probs)
    x = float(x)
    if not (0.0 <= x <= big_d / 2.0 + 1e-15):
        raise ValueError(f"x must lie in [0, {big_d / 2.0}], got {x!r}")
    # (1 - 2x/D)^(i/2) via the square root, exact at both endpoints; the
    # max() guards a one-ulp negative at x = D/2.
    xi = math.sqrt(max(1.0 - 2.0 * x / big_d, 0.0))
    i = np.arange(1, probs.size)
    return big_d - 2.0 * x - float((i * probs[1:]) @ xi**i)


def variance(law: DegreeLaw) -> float:
    """Variance of the degree law, computed from raw moments of probs.

    Equals E Z(Z-1) - mu^2 + mu; never exceeds the mean (a consequence of
    the log-concavity of the partial exponential sums) and never drops
    below zero.
    """
    i = np.arange(law.d + 1)
    return float((i * i) @ law.probs - law.mu**2)


def molloy_reed_q_closed_form(law: DegreeLaw) -> float:
    """Closed form of the Molloy-Reed value: mean_d * (mean_{d-1} - 1)."""
    if law.d < 2:
        raise ValueError(f"phase classification needs max degree >= 2, got {law.d}")
    return truncpoisson.mean(law.d, law.lam) * (truncpoisson.mean(law.d - 1, law.lam) - 1.0)
