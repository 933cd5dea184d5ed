"""Digests of sampled codes on fixed seeds: the random stream is pinned.

Every draw of the sampler feeds the next, so a change anywhere in the
stream (a reordered call, another batch size, another conditioning route)
moves these digests.  A change that moves them on purpose must update
them, and it re-draws the restart counts of the benchmark's duel, so it is
planned as a change of the benchmark as well.
"""

import hashlib

import numpy as np
import pytest

from gnmd import sampler
from gnmd.seeding import make_rng


def digest(codes: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(codes, dtype="<i8").tobytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "n, m, d, seed, expected",
    [
        (2000, 1200, 4, 1, "8045ea7bc25552bf"),
        (200, 400, 4, 2, "f8dbfd96b114ad31"),
    ],
    ids=["bounded", "regular"],
)
def test_sample_graph_codes_are_pinned(n, m, d, seed, expected):
    assert digest(sampler.sample_graph(n, m, d, make_rng(seed)).codes) == expected


def test_sample_edge_codes_are_pinned():
    assert digest(sampler.sample_edge_codes(6, 5, 3, 1000, make_rng(3))) == "5195536613b96609"
