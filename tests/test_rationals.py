import pytest

from liftlab.rationals import ONE, Q, ZERO, rat, rat_str


def test_constants():
    assert ZERO == 0 and ONE == 1


def test_rat_parses_strings():
    assert rat("3/2") == Q(3, 2)
    assert rat("1.5") == Q(3, 2)
    assert rat("-7") == Q(-7)


def test_rat_passes_through_exact_types():
    from fractions import Fraction
    assert rat(5) == Q(5)
    assert rat(Fraction(2, 3)) == Q(2, 3)
    assert rat(Q(2, 3)) == Q(2, 3)


def test_rat_names_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator in '3/0'"):
        rat("3/0")


def test_rat_refuses_floats():
    with pytest.raises(TypeError):
        rat(0.1)


def test_rat_str():
    assert rat_str(Q(3, 2)) == "3/2"
    assert rat_str(Q(4, 2)) == "2"
    assert rat_str(Q(-1, 3)) == "-1/3"


def test_arithmetic_is_exact():
    x = rat("1/3") + rat("1/6")
    assert x == Q(1, 2)


def test_rat_refuses_bools():
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(TypeError):
        rat(False)
