"""The benchmark tracer (``bench/tracer.py``, imported read only) wraps
library functions and methods by name.  Installing it fails on any name the
library no longer has, so this shows a rename or a deletion that would break
``bench/run.py --trace 1`` before a benchmark run does."""

from pathlib import Path

from phasealg.poly import PhasePoly

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_on_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    mul = PhasePoly.__dict__["__mul__"]
    traced = tracer.Tracer()
    try:
        traced.install()
        assert PhasePoly.__dict__["__mul__"] is not mul
    finally:
        traced.uninstall()
    assert PhasePoly.__dict__["__mul__"] is mul
