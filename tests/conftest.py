"""Shared fixtures and the acceptance-summary terminal hook."""
from __future__ import annotations

import xmod  # noqa: F401  (applies XMOD_THREADS before numpy loads BLAS)

import tracemalloc

import numpy as np
import pytest

from xmod.core import l2_normalize_rows
from xmod.transfer import DirectionAffinities, smoothed_anchor, smoothed_transport

# Acceptance tests append (number, name, passed, detail) entries here; the
# terminal summary prints one line per criterion at the end of the run.
ACCEPTANCE_LINES: list[tuple[int, str, bool, str]] = []


def record_criterion(num: int, name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_LINES.append((num, name, passed, detail))
    line = format_criterion(num, name, passed, detail)
    print(line)
    assert passed, line


def format_criterion(num: int, name: str, passed: bool, detail: str) -> str:
    status = "PASS" if passed else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    return f"[{status}] criterion {num:02d}: {name}{suffix}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, name, passed, detail in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(format_criterion(num, name, passed, detail))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def alloc_peak(fn, *args) -> int:
    """Peak bytes that fn(*args) holds at once beyond what was allocated when
    it was called, by tracemalloc; the result is dropped before returning."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def random_unit_rows(rng, n: int, d: int) -> np.ndarray:
    return l2_normalize_rows(rng.standard_normal((n, d)))


def with_duplicates(rng) -> np.ndarray:
    """Random unit rows where rows 1, 2 and 7 repeat row 0 and row 9 repeats row 4."""
    feats = random_unit_rows(rng, 30, 5)
    feats[[1, 2, 7]] = feats[0]
    feats[9] = feats[4]
    return feats


def one_way_affinities(ho_src, ho_tgt, he_st, he_ts) -> DirectionAffinities:
    """One direction's affinities, its composites built from its graphs by
    the routine mult_associate builds them with."""
    return DirectionAffinities(ho_src, ho_tgt, he_st, he_ts,
                               a_st=smoothed_transport(ho_src, he_st),
                               a_ts=smoothed_transport(ho_tgt, he_ts))


def one_way_anchors(state, aff: DirectionAffinities, alpha: float):
    """The (intra, cross) anchors of one direction's start, from aff's graphs."""
    return (smoothed_anchor(aff.ho_src, state.intra0, alpha),
            smoothed_anchor(aff.ho_tgt, state.cross0, alpha))
