"""Helpers shared by the test modules."""

import gc
import sys

import pytest


@pytest.fixture
def blocks_left():
    """blocks_left(call, repeats=10): the pymalloc blocks that each call of
    call() leaves allocated, averaged over repeats calls after one warm call.

    A full collection first empties CPython's free lists, so whatever a call
    parks on them counts against it, however full earlier tests left them.
    A tuple the resize path builds (tuple(genexpr), tuple(map(...))) takes
    a new block and is freed to the free list of its final size, which keeps
    up to 2,000 tuples of a size; a call that does so leaves blocks behind
    until that list is full.
    """

    def measure(call, repeats=10):
        gc.collect()
        call()
        before = sys.getallocatedblocks()
        for _ in range(repeats):
            call()
        return (sys.getallocatedblocks() - before) / repeats

    return measure
