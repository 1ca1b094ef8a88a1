"""The package's sampling streams against numpy's, which stay the oracle here."""

import json
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantdim.linalg import DEFAULT_MODULUS
from secantdim.streams import Stream, first_state_word
from secantdim.terracini import derived_rng, derived_seed

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, int("9" * 600))
KEYS = (
    (),
    (0,),
    (101, 2**32),
    (0, 101, 2**32 + 5),
    (2**32, 0, 101, 7),
    (101, 0, 101, 0, 2**40),
    (0, 2**40, 101, 0, 2**64 + 1, 3),
)
SPANS = (1, 3, 4, 6, 7, 11, 13, DEFAULT_MODULUS, 2**31 - 1, 2**32)
# scalar and vector draws interleaved on one stream: a draw's spare 32-bit
# half carries into the next call
SIZES = (None, 1, 3, None, 7, None, None, 3, 1)


def _oracle(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _plain(draw):
    if isinstance(draw, np.ndarray):
        return [int(x) for x in draw]
    return int(draw)


def _assert_same_draws(seed, key, low, span, sizes):
    ours, theirs = Stream(seed, key), _oracle(seed, key)
    for size in sizes:
        got = ours.integers(low, low + span, size=size)
        assert got == _plain(theirs.integers(low, low + span, size=size))
        assert isinstance(got, int if size is None else list)


@pytest.mark.parametrize("seed", SEEDS, ids=range(len(SEEDS)))
def test_streams_match_numpy_on_the_fixed_cases(seed):
    for key, span in product(KEYS, SPANS):
        _assert_same_draws(seed, key, 0, span, SIZES)


@pytest.mark.parametrize("seed", SEEDS, ids=range(len(SEEDS)))
def test_derived_seed_is_numpy_first_state_word(seed):
    for key in KEYS:
        want = int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])
        assert first_state_word(seed, key) == want
        assert derived_seed(seed, *key) == want


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**130),
    st.lists(st.integers(0, 2**70), max_size=6),
    st.integers(-(10**9), 10**9),
    st.one_of(st.sampled_from(SPANS), st.integers(1, 2**32)),
    st.lists(st.sampled_from((None, 0, 1, 3, 7)), min_size=1, max_size=8),
)
def test_streams_match_numpy(seed, key, low, span, sizes):
    _assert_same_draws(seed, tuple(key), low, span, sizes)


def test_derived_rng_draws_numpys_scalars():
    # tests draw scalars such as rng.integers(1, 5) from derived_rng
    ours, theirs = derived_rng(7, 3, 101), _oracle(7, (3, 101))
    for low, high in [(1, 5), (2, 5), (0, 13), (-3, 4), (1, 5)]:
        assert ours.integers(low, high) == int(theirs.integers(low, high))


@pytest.mark.parametrize("seed, key", [(-1, ()), (0, (-1,)), (5, (3, -2, 4))])
def test_a_negative_seed_or_key_entry_is_refused_like_numpy(seed, key):
    with pytest.raises(ValueError):
        np.random.SeedSequence(seed, spawn_key=key)
    with pytest.raises(ValueError):
        Stream(seed, key)
    with pytest.raises(ValueError):
        first_state_word(seed, key)
    with pytest.raises(ValueError):
        derived_rng(seed, *key)
    with pytest.raises(ValueError):
        derived_seed(seed, *key)


@pytest.mark.parametrize(
    "low, high", [(0, 0), (5, 3), (0, -1), (0, 2**32 + 1), (-(2**31), 2**31 + 1)]
)
def test_a_range_the_stream_cannot_reproduce_is_refused(low, high):
    stream = Stream(0, (1,))
    for size in (None, 3):
        with pytest.raises(ValueError):
            stream.integers(low, high, size=size)
    # a refusal draws nothing
    assert stream.integers(0, 7, size=3) == _plain(_oracle(0, (1,)).integers(0, 7, 3))


FOOTPRINT = """
import contextlib, io, json, sys
from secantdim import cli

runs = [
    ["dim", "2", "3", "2", "5"],
    ["scan", "--grid", "(1,2,3)", "--backend", "exact"],
    ["verify", "theorem", "--grid", "(1,1,3)"],
    ["verify", "dictionary", "--grid", "(1,1,3)", "--prime", "7", "--trials", "1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
heavy = ("numpy.random", "secrets", "hashlib")
loaded = [name for name in heavy if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_a_run_never_imports_numpys_random_module():
    """A fresh interpreter that samples through every command path loads
    neither numpy.random nor what it pulls in (secrets, hashlib)."""
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # every run reports; exit 1 is a report with failures, which the
    # dictionary's one trial at prime 7 gives
    assert all(code in (0, 1) for code in result["codes"])
    assert result["loaded"] == []
