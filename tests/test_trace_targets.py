"""The benchmark tracer (perfbench/spans.py) wraps package functions and
class attributes by name; a rename that drops one of them breaks
`perfbench/run.py --trace 1`.  This only imports perfbench, it changes
nothing there."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer._patches
    finally:
        assert tracer.restore() == []
