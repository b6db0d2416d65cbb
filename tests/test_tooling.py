"""Guards on the benchmark tooling under perfbench/, which these tests only read."""

import importlib.util
from pathlib import Path

import tailcomb
from tailcomb import blowup, degrees, lift, tails

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    # A target the tracer cannot find is listed in `missing` and its
    # per-layer metrics read 0, so a rename would silently empty them.
    tracer = load_tracer()
    layers = {
        "tails.nested": (tails, "nested"),
        "lift.eq34_level2": (lift, "eq34_level2"),
        "lift.hat_families": (lift, "hat_families"),
        "blowup.admissibility_check": (blowup, "admissibility_check"),
        "degrees.lemma35_difference": (degrees, "lemma35_difference"),
    }
    assert set(layers) <= {stem for _, _, stem, _ in tracer.TARGETS}
    originals = {stem: getattr(mod, attr) for stem, (mod, attr) in layers.items()}
    t = tracer.Tracer()
    t.install()
    try:
        # `degrees.delta` is a test helper now (admissibility reads the
        # twister rows), so it is the one target expected to be missing
        assert t.missing == ["degrees.delta"]
        for stem, (mod, attr) in layers.items():
            assert getattr(mod, attr).__wrapped__ is originals[stem]
        assert tailcomb.nested.__wrapped__ is originals["tails.nested"]
    finally:
        t.remove()
    for stem, (mod, attr) in layers.items():
        assert getattr(mod, attr) is originals[stem]
    assert tailcomb.nested is originals["tails.nested"]
