"""The benchmark's traced run wraps xmod functions by module attribute
(``xbench/layers.py``). A renamed or deleted attribute would only break the
traced run, so check here that every hooked name still resolves."""
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "xbench"


@pytest.fixture(scope="module")
def hooks():
    sys.path.insert(0, str(BENCH))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))
    return layers.HOOKS


def test_every_hook_target_is_callable(hooks):
    assert hooks
    missing = [f"{h.module}.{h.attr}" for h in hooks
               if not callable(getattr(importlib.import_module(h.module), h.attr, None))]
    assert missing == []
