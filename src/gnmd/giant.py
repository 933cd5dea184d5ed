"""Phase classification and giant-component size prediction.

For a degree distribution (p_0, ..., p_d), a DegreeLaw or a bare vector
checked by truncpoisson.as_probs, with mean D = sum i p_i and generating
functions G0(s) = sum p_i s^i and G1(s) = G0'(s) / D, a half-edge leads
to a finite component with probability xi, the largest root in [0, 1) of
the size-biased fixed point

    xi = G1(xi)

(Molloy & Reed 1995; Newman, Strogatz & Watts 2001), and the giant holds
the fraction theta = 1 - G0(xi) of the vertices.  xi = 1 always solves the
fixed point; when the Molloy-Reed value Q = sum i(i-2) p_i is positive, a
second root lies in [0, 1).

frontier_root reports it as x = D/2 (1 - xi^2), the exploration frontier's
root (Janson & Luczak 2009), derived in tests/analytic_reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from . import truncpoisson
from .truncpoisson import DegreeLaw

__all__ = [
    "Phase",
    "PhasePrediction",
    "frontier_root",
    "giant_fraction",
    "predict",
    "NEAR_CRITICAL_BAND",
]

#: |mu - critical mean| below which a prediction is flagged as unreliable.
NEAR_CRITICAL_BAND = 1e-6

#: Largest imaginary part of a polynomial root accepted as real.
_REAL_ROOT_TOL = 1e-9

#: Largest float below 1: the root xi of a supercritical law lies in [0, 1).
_BELOW_ONE = math.nextafter(1.0, 0.0)


class Phase(str, Enum):
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"


def _degree_mean(probs: np.ndarray) -> float:
    return float(np.arange(probs.size) @ probs)


def frontier_root(law: DegreeLaw | Sequence[float]) -> float:
    """Smallest positive root of the exploration frontier.

    Requires a supercritical distribution (Molloy-Reed value Q > 0, i.e.
    the frontier leaves zero with positive slope Q/D).  Solves the
    polynomial D xi - sum_i i p_i xi^(i-1) = 0, whose roots in [0, 1] are
    the fixed points of xi = G1(xi), after dividing out the root xi = 1
    that every distribution has: near the threshold the wanted root
    approaches 1, and the two would merge in the companion-matrix
    eigenvalues.  The largest real root left, clamped into [0, 1), maps
    back to x = D/2 (1 - xi^2).  xi = 0 (x = D/2) is the root when
    p_1 = 0, e.g. for a single-atom degree distribution.

    Raises:
        ValueError: If d < 2 or Q <= 0 (no positive root is promised).
    """
    probs = truncpoisson.as_probs(law)
    q = truncpoisson.molloy_reed_q(law)
    if q <= 0:
        raise ValueError(f"frontier root requires Molloy-Reed value > 0, got {q!r}")
    big_d = _degree_mean(probs)
    # Coefficients of D xi - sum_i i p_i xi^(i-1), in increasing powers.
    i = np.arange(1, probs.size)
    coeffs = -i * probs[1:]
    coeffs[1] += big_d
    # Trailing coefficients below rounding (~1e-288 at d = 170) would blow up the companion matrix.
    size = np.abs(coeffs)
    last = (size > math.ulp(1.0) * size.max()).nonzero()[0][-1]
    deflated, _ = P.polydiv(coeffs[: last + 1], [-1.0, 1.0])
    roots = P.polyroots(deflated)
    # G1 is convex with G1'(1) = 1 + Q/D > 1, so no fixed point lies above
    # 1 and the largest real root is the wanted one.  Rounding can move it
    # below 0 when it is 0, or past 1 when Q sits at float-noise scale and
    # the root cannot be told apart from 1.
    xi = float(roots.real[np.abs(roots.imag) <= _REAL_ROOT_TOL].max())
    xi = min(max(xi, 0.0), _BELOW_ONE)
    return big_d / 2.0 * (1.0 - xi) * (1.0 + xi)


def giant_fraction(law: DegreeLaw | Sequence[float], root: float) -> float:
    """Asymptotic fraction of vertices in the giant component.

    Computes 1 - sum_{i=0}^{d} p_i (1 - 2 root / D)^(i/2), including the
    i = 0 term: a degree-0 vertex is isolated and never joins the giant,
    so p_0 always stays in the subtracted survival sum.  The result is
    therefore bounded above by 1 - p_0.

    Args:
        law: Degree distribution (DegreeLaw or probability vector).
        root: Positive root of the exploration frontier, in (0, D/2].

    Raises:
        ValueError: If root falls outside (0, D/2].
    """
    probs = truncpoisson.as_probs(law)
    big_d = _degree_mean(probs)
    root = float(root)
    if not (0.0 < root <= big_d / 2.0 + 1e-15):
        raise ValueError(f"root must lie in (0, {big_d / 2.0}], got {root!r}")
    xi = math.sqrt(max(1.0 - 2.0 * root / big_d, 0.0))
    i = np.arange(probs.size)
    return 1.0 - float(probs @ xi**i)


@dataclass(frozen=True)
class PhasePrediction:
    """Analytic phase prediction for graphs with a given (d, mu).

    Attributes:
        d: Maximum degree.
        mu: Mean degree (2m/n).
        q: Molloy-Reed value of the law; its sign decides the phase.
        mu_critical: Critical mean degree for this d (math.inf when d = 2).
        phase: Subcritical (all components small) or supercritical
            (unique giant component).
        near_critical: True when |mu - mu_critical| < NEAR_CRITICAL_BAND;
            the dichotomy makes no claim at the threshold itself, so the
            prediction is unreliable there.
        frontier_root_x: Smallest positive frontier root (supercritical
            only, else None).
        giant_fraction: Predicted giant-component fraction (supercritical
            only, else None).
        law: The mean-mu degree law; its rate law.lam and its mean law.mu
            are the JSON keys "lam" and "degree_mean".
    """

    d: int
    mu: float
    q: float
    mu_critical: float
    phase: Phase
    near_critical: bool
    frontier_root_x: float | None
    giant_fraction: float | None
    law: DegreeLaw

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-safe dict; an infinite threshold becomes the string "inf".

        probs stops at the last nonzero class: past it every class has
        underflowed to 0, so no mass is dropped.
        """
        probs = self.law.probs
        return {
            "d": self.d,
            "mu": self.mu,
            "lam": self.law.lam,
            "q": self.q,
            "mu_critical": "inf" if math.isinf(self.mu_critical) else self.mu_critical,
            "degree_mean": self.law.mu,
            "phase": self.phase.value,
            "near_critical": self.near_critical,
            "frontier_root": self.frontier_root_x,
            "giant_fraction": self.giant_fraction,
            "probs": probs[: np.flatnonzero(probs)[-1] + 1].tolist(),
        }


def predict(d: int, mu: float) -> PhasePrediction:
    """Classify the phase at (d, mu) and predict the giant fraction.

    Builds the mean-mu truncated Poisson law, evaluates the Molloy-Reed
    value and the critical mean degree, and, when supercritical, solves
    for the frontier root and giant fraction.

    Raises:
        ValueError: If d < 2 or mu is outside (0, d).
    """
    law = truncpoisson.make_degree_law(d, mu)
    q = truncpoisson.molloy_reed_q(law)
    mu_critical = truncpoisson.critical_mean_degree(d)
    near = math.isfinite(mu_critical) and abs(mu - mu_critical) < NEAR_CRITICAL_BAND
    if q > 0:
        root = frontier_root(law)
        theta = giant_fraction(law, root)
        phase = Phase.SUPERCRITICAL
    else:
        root = None
        theta = None
        phase = Phase.SUBCRITICAL
    return PhasePrediction(
        d=d,
        mu=float(mu),
        q=q,
        mu_critical=mu_critical,
        phase=phase,
        near_critical=near,
        frontier_root_x=root,
        giant_fraction=theta,
        law=law,
    )
