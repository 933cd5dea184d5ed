"""Allocation bounds of the simplicity check, the degree count and the component report.

tracemalloc sees numpy's buffers, so each peak is a deterministic count of
bytes for a given input.  The input is a 4-regular circulant graph at
n = 1e5 (edges i ~ i+1 and i ~ i+2 mod n), m = 2n, presented as one
loop-free, simple pairing in shuffled edge order.
"""

import tracemalloc

import numpy as np
import pytest

from gnmd import components, sampler
from gnmd.seeding import make_rng

N = 100_000
M = 2 * N


def peak_bytes(call) -> int:
    """Peak bytes that call() holds allocated, its result included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def pairing():
    i = np.arange(N)
    ends = np.concatenate([np.column_stack([i, (i + s) % N]) for s in (1, 2)])
    ends = ends[make_rng(0).permutation(M)]
    return ends.reshape(1, 2 * M)


def test_is_simple_holds_one_code_array_beyond_its_input(pairing):
    codes, simple = sampler.is_simple(pairing, N)
    assert simple.tolist() == [True] and codes.shape == (1, M)
    assert peak_bytes(lambda: sampler.is_simple(pairing, N)) <= 1.25 * 8 * M


def test_is_simple_builds_no_codes_when_every_row_has_a_loop(pairing):
    tokens = np.repeat(pairing, 2, axis=0)
    tokens[:, 1] = tokens[:, 0]
    codes, simple = sampler.is_simple(tokens, N)
    assert simple.tolist() == [False, False]
    assert codes.shape == (0, M) and codes.dtype == np.int64
    # The loop test's boolean (k, m) mask, and no 8km-byte code array.
    assert peak_bytes(lambda: sampler.is_simple(tokens, N)) <= 1.25 * 2 * M


def test_report_stays_under_its_bound(pairing):
    codes, _ = sampler.is_simple(pairing, N)
    g = sampler.SimpleGraph._trusted(N, 4, codes[0])
    rep = components.report(g)
    assert rep.sizes == (N,) and rep.degree_counts == (0, 0, 0, 0, N)
    # Decoding to int64 and concatenating both endpoint vectors for the
    # degrees took 4.8 * 8m; the int32 decode and its rounds take about 3.4.
    assert peak_bytes(lambda: components.report(g)) <= 3.5 * 8 * M


def test_degrees_count_without_copying_the_endpoints(pairing):
    codes, _ = sampler.is_simple(pairing, N)
    g = sampler.SimpleGraph._trusted(N, 4, codes[0])
    assert (g.degrees() == 4).all()
    # The int32 endpoints and the int64 counts; joining the endpoints and
    # copying them to int64 for bincount took 3.5 * 8m.
    assert peak_bytes(g.degrees) <= 2 * 8 * M
