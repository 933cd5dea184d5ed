"""Uniform random graphs with a fixed edge count and bounded maximum degree.

Analytic side: truncated Poisson degree laws, the Molloy-Reed phase
criterion, critical mean degrees, and giant-component size predictions.
Simulation side: an exactly uniform rejection sampler, component
measurements, brute-force verification oracles, and a reproducible
experiment harness with a CLI.  Each name has one home, its submodule:
`from gnmd import giant, sampler`, then `giant.predict`.
"""

from . import components, giant, oracle, sampler, seeding, truncpoisson

__version__ = "0.1.0"
