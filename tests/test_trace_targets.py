"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps liftlab
attributes by name; a refactor that drops one of them must fail here."""

import math
from pathlib import Path

from liftlab import (Q, convex_combination, decomposition,
                     integer_to_moment, knapsack, uniform_gap_instance)


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


def test_traced_decompose_records_one_z_vector_span_per_light_x(monkeypatch):
    # decompose reaches the kernel through the name spans.py wraps, once
    # for each X <= S with |X| < k: C(6, 0) + C(6, 1) = 7 spans at k = 2
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    n, k, t = 6, 2, 3
    inst = uniform_gap_instance(n, "1/10")
    y = convex_combination([(Q(1, 3), integer_to_moment(inst, m, 2 * t))
                            for m in (0, 0b000001, 0b100000)])
    tracer = spans.Tracer()
    with tracer.installed():
        res = decomposition.decompose(y, inst, (1 << n) - 1, k, t)
    names = [span[0] for span in tracer.take()]
    assert len(res.parts) == 3
    assert names.count("subsets.z_vector") == sum(math.comb(n, j) for j in range(k))
