from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lscrystal.cartan import (
    ANTIDOMINANT,
    DOMINANT,
    GCM,
    LAMBDA,
    NEITHER,
    Weight,
    dominance_class,
    pairing,
    simple_reflect,
    simple_root,
)


def test_gcm_accepts_hyperbolic():
    g = GCM(3, 3)
    assert (g.a, g.b) == (3, 3)
    assert not g.boundary
    assert GCM(1, 5).boundary
    assert GCM(5, 1).boundary


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (1, 4), (4, 1), (0, 9), (-1, -9), (3, 0)])
def test_gcm_rejects_non_hyperbolic(a, b):
    with pytest.raises(ValueError):
        GCM(a, b)


@pytest.mark.parametrize("a,b", [(True, 5), (5, True), (3.0, 3), (3, "3")])
def test_gcm_rejects_non_int_entries(a, b):
    with pytest.raises(TypeError):
        GCM(a, b)


def test_weight_arithmetic_is_exact():
    u = Weight(Fraction(1, 3), -2)
    v = Weight(Fraction(2, 3), 5)
    assert u + v == Weight(1, 3)
    assert u - v == Weight(Fraction(-1, 3), -7)
    assert 3 * u == Weight(1, -6)
    assert -u == Weight(Fraction(-1, 3), 2)


# a power of ten with millions of digits, and a zero denominator
@pytest.mark.parametrize("c, refusal", [("1e-3000000", "needs a power of ten"), ("1/0", "has denominator 0")])
def test_weight_refuses_what_the_breakpoint_parser_refuses(c, refusal):
    for coords in ((c, 1), (1, c)):
        with pytest.raises(ValueError, match=f"^weight coordinate '{c}' {refusal}"):
            Weight(*coords)
    assert Weight("1/3", "-2") == Weight(Fraction(1, 3), -2)


def test_weight_str_signs():
    assert str(Weight(5, -2)) == "5L1 - 2L2"
    assert str(Weight(-1, 2)) == "-1L1 + 2L2"
    assert str(Weight(0, 1)) == "0L1 + 1L2"
    assert str(LAMBDA) == "1L1 - 1L2"


def test_pairing_reads_coordinates():
    assert pairing(LAMBDA, 1) == 1
    assert pairing(LAMBDA, 2) == -1
    with pytest.raises(ValueError):
        pairing(LAMBDA, 3)


def test_simple_roots():
    g = GCM(2, 3)
    assert simple_root(1, g) == Weight(2, -3)
    assert simple_root(2, g) == Weight(-2, 2)
    with pytest.raises(ValueError, match="must be 1 or 2, got 3"):
        simple_root(3, g)


def test_simple_reflection_frozen_values():
    g = GCM(3, 3)
    # r_1(L1 - L2) = -L1 + 2L2 and r_2(L1 - L2) = -2L1 + L2
    assert simple_reflect(1, LAMBDA, g) == Weight(-1, 2)
    assert simple_reflect(2, LAMBDA, g) == Weight(-2, 1)


@given(
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.sampled_from([(2, 3), (3, 2), (2, 5), (3, 3)]),
    st.sampled_from([1, 2]),
)
def test_simple_reflection_is_an_involution(c1, c2, ab, i):
    g = GCM(*ab)
    mu = Weight(c1, c2)
    assert simple_reflect(i, simple_reflect(i, mu, g), g) == mu


@given(st.integers(-30, 30), st.integers(-30, 30), st.sampled_from([1, 2]))
def test_reflection_flips_pairing_sign(c1, c2, i):
    g = GCM(2, 5)
    mu = Weight(c1, c2)
    assert pairing(simple_reflect(i, mu, g), i) == -pairing(mu, i)


def test_dominance_classes():
    assert dominance_class(Weight(1, 0)) == DOMINANT
    assert dominance_class(Weight(0, 0)) == DOMINANT
    assert dominance_class(Weight(-2, -1)) == ANTIDOMINANT
    assert dominance_class(LAMBDA) == NEITHER

