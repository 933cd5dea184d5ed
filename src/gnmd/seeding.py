"""Deterministic random streams.

All randomness in this package flows through numpy's PCG64 generator.  A
master seed fully determines every output; independent per-trial streams
are derived by spawning a SeedSequence with the trial index as the spawn
key, so trial i's stream never depends on how many trials run, in what
order, or on which worker.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "trial_rng"]


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for an integer master seed."""
    return np.random.default_rng(int(seed))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent PCG64 stream for one trial under a master seed."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial_index),))
    return np.random.Generator(np.random.PCG64(seq))
