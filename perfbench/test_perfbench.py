"""The generator repeats itself per seed, and the checker refuses wrong answers.

    python3 -m pytest perfbench -q
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from liftlab import decompose, sa_membership, sa_value, verify_decomposition, verify_gap_certificate

import check
import gen
import workloads
from run import run_pass


def _inputs(seed: int, index: int):
    rng = gen.rng_for(seed, index, "test")
    inst = gen.random_instance(rng, 10)
    return (inst, gen.mixture(rng, inst, 3, 4), gen.decomposition_case(rng, 2),
            gen.sdp_instance(rng, 5))


def test_generator_is_deterministic_per_seed():
    assert _inputs(7, 3) == _inputs(7, 3)
    assert _inputs(7, 3) != _inputs(8, 3)
    assert _inputs(7, 3) != _inputs(7, 4)


def test_job_lists_repeat_per_seed():
    for name in workloads.WORKLOADS:
        first = [job.label for job in workloads.build(name, 5, 2)]
        assert first == [job.label for job in workloads.build(name, 5, 2)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pass_zero_is_correct(name):
    record = run_pass(workloads.build(name, 1, 0))
    assert record["failures"] == []


def test_lp_check_refuses_a_wrong_value():
    inst = gen.random_instance(gen.rng_for(1, 0, "test-lp"), 5)
    value = sa_value(inst, 2)
    assert check.lp_value(value, inst, 2) is None
    assert check.lp_value(value + Fraction(1, 1000), inst, 2) is not None
    uniform = gen.uniform_instance(6)
    assert check.lp_value(Fraction(9, 5), uniform, 2, expected=Fraction(9, 5)) is None
    assert check.lp_value(Fraction(9, 5), uniform, 2, expected=Fraction(2)) is not None


def test_verdict_check_refuses_a_flipped_verdict():
    rng = gen.rng_for(1, 0, "test-sa")
    inst = gen.random_instance(rng, 8)
    y = gen.mixture(rng, inst, 3, 4)
    accepted, rejected = sa_membership(y, inst, 3), sa_membership(gen.break_pair(y), inst, 3)
    assert check.verdict(accepted, True) is None
    assert check.verdict(rejected, False) is None
    assert check.verdict(accepted, False) is not None
    assert check.verdict(rejected, True) is not None


def test_certificate_check_refuses_a_wrong_value():
    cert = verify_gap_certificate(8, "1/10", 2, "1/4")
    assert check.certificate(cert, cert.value, cert.bound) is None
    assert check.certificate(cert, cert.value + 1, cert.bound) is not None


def test_sdp_check_refuses_an_estimate_outside_the_window():
    opt, upper = Fraction(1), 1.8
    for value, ok in ((1.0, True), (1.5, True), (0.9, False), (1.9, False)):
        got = check.sdp_window(SimpleNamespace(value=value), opt, upper)
        assert (got is None) == ok, value


def test_decomposition_check_refuses_wrong_weights():
    inst, y, s_mask, masses = gen.decomposition_case(gen.rng_for(1, 0, "test-dec"), 2)
    result = decompose(y, inst, s_mask, 2, 3)
    report = verify_decomposition(result, y, inst, 3, 2)
    assert check.decomposition(result, report, y, masses, 3, 2) is None
    wrong = {x: w / 2 for x, w in masses.items()}
    assert check.decomposition(result, report, y, wrong, 3, 2) is not None
