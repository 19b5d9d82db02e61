import itertools
import multiprocessing
import os

import pytest


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_cells(fn, cells) -> list:
    """fn(*cell) of each cell, in cell order; fn is a module-level function
    and the cells share no state.  With two or more cells and CPUs, and fork
    available, the cells run in a pool of forked processes, which inherit the
    memos filled so far; otherwise they run serially."""
    n = min(len(cells), _usable_cpus())
    if n >= 2 and "fork" in multiprocessing.get_all_start_methods():
        with multiprocessing.get_context("fork").Pool(n) as pool:
            return pool.starmap(fn, cells, chunksize=1)
    return list(itertools.starmap(fn, cells))


@pytest.fixture
def fresh_certificate():
    """For a test that changes what the twist certificate reads: its memo is
    cleared before the test and after it, so that no verdict crosses the
    change in either direction."""
    from wittq.series import twist_certificate

    twist_certificate.cache_clear()
    yield
    twist_certificate.cache_clear()


@pytest.fixture
def map_cells():
    """Run independent slow cells of a test side by side: see _map_cells."""
    return _map_cells
