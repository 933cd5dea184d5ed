"""Uniform random graphs with a fixed edge count and bounded maximum degree.

Analytic side: truncated Poisson degree laws, the Molloy-Reed phase
criterion, critical mean degrees, and giant-component size predictions.
Simulation side: an exactly uniform rejection sampler, component
measurements, brute-force verification oracles, and a reproducible
experiment harness with a CLI.
"""

from .truncpoisson import (
    DegreeLaw,
    critical_mean_degree,
    critical_mean_degree_approx,
    invert_mean,
    law_from_rate,
    make_degree_law,
    mean,
    molloy_reed_q,
    partial_exp_sum,
    variance,
)
from .giant import Phase, PhasePrediction, predict
from .sampler import (
    SamplingError,
    SimpleGraph,
    pair_configuration,
    read_graph,
    sample_degree_sequence,
    sample_graph,
    write_graph,
)
from .components import ComponentReport, connected_components, report
from .oracle import enumerate_graphs, uniformity_test
from .seeding import make_rng, trial_rng

__version__ = "0.1.0"

__all__ = [
    "DegreeLaw",
    "partial_exp_sum",
    "mean",
    "invert_mean",
    "law_from_rate",
    "make_degree_law",
    "variance",
    "molloy_reed_q",
    "critical_mean_degree",
    "critical_mean_degree_approx",
    "Phase",
    "PhasePrediction",
    "predict",
    "SimpleGraph",
    "SamplingError",
    "sample_degree_sequence",
    "pair_configuration",
    "sample_graph",
    "write_graph",
    "read_graph",
    "ComponentReport",
    "connected_components",
    "report",
    "enumerate_graphs",
    "uniformity_test",
    "make_rng",
    "trial_rng",
    "__version__",
]
