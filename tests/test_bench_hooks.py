"""The benchmark's trace hooks name attributes the program still has.

bench/layers.TARGETS wraps each (owner, attribute) where a caller looks it
up, so a moved import, such as datagen no longer importing
encode_observation, would only surface in a traced benchmark run.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    missing = [f"{owner.__name__}.{attribute}" for owner, attribute, *_ in layers.TARGETS
               if not callable(getattr(owner, attribute, None))]
    assert not missing
    assert len(layers.TARGETS) > 0
