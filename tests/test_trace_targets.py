"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps liftlab
attributes by name; a refactor that drops one of them must fail here."""

from pathlib import Path

from liftlab import knapsack, uniform_gap_instance


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    before = [getattr(mod, attr) for mod, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    with tracer.installed():
        during = [getattr(mod, attr) for mod, attr, _, _ in spans.TARGETS]
        knapsack.opt_solution(uniform_gap_instance(4, "1/10"))
    after = [getattr(mod, attr) for mod, attr, _, _ in spans.TARGETS]
    assert all(fn is not wrapped for fn, wrapped in zip(before, during))
    assert all(fn is restored for fn, restored in zip(before, after))
    assert [span[0] for span in tracer.take()] == ["knapsack.opt_solution"]
