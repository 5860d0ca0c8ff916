import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lscrystal.cartan import GCM, LAMBDA, Weight, simple_reflect
from lscrystal.weyl import (
    IDENTITY,
    WeylElement,
    _checked_root,
    apply_weyl,
    hasse_neighbors,
    orbit_weight,
    positive_roots_recurrence,
    positive_roots_weyl,
    pq_table,
    reflect_by_root,
    root_pairing,
    window_elements,
    x,
    y,
)
from references import positive_root

GRIDS = [(2, 3), (3, 2), (2, 5), (3, 3)]

elements = st.builds(
    lambda fam, m: x(m) if fam == "x" else y(m),
    st.sampled_from("xy"),
    st.integers(0, 12),
)


def test_identity_is_canonicalized():
    assert x(0) == y(0) == IDENTITY
    assert IDENTITY.family == "x"
    assert str(y(0)) == "x0"
    assert x(2) != y(2)


def test_letters_rightmost_first():
    assert x(3).letters() == (1, 2, 1)
    assert y(3).letters() == (2, 1, 2)
    assert x(4).letters() == (1, 2, 1, 2)
    assert IDENTITY.letters() == ()


@given(elements)
def test_inverse_letters_reverse(w):
    assert w.inverse().letters() == tuple(reversed(w.letters()))


@given(elements, st.sampled_from(GRIDS), st.integers(-9, 9), st.integers(-9, 9))
def test_inverse_undoes_action(w, ab, c1, c2):
    g = GCM(*ab)
    mu = Weight(c1, c2)
    assert apply_weyl(w.inverse(), apply_weyl(w, mu, g), g) == mu


def test_linear_order():
    # positions in the order on the orbit are compared by order key
    assert x(2).order_key > x(1).order_key
    assert x(1).order_key > IDENTITY.order_key
    assert IDENTITY.order_key > y(1).order_key
    assert y(1).order_key > y(2).order_key
    assert y(3).order_key == WeylElement("y", 3).order_key
    assert y(2).order_key < x(1).order_key


def test_descent_and_reflected():
    # the descent reflection steps one place down the order
    assert x(2).descent_index == 2 and x(1).descent_index == 1
    assert y(2).descent_index == 1 and y(1).descent_index == 2
    assert x(2).reflected(2) == x(1)
    assert x(2).reflected(1) == x(3)
    assert y(2).reflected(1) == y(1)
    assert IDENTITY.reflected(1) == x(1)
    assert IDENTITY.reflected(2) == y(1)
    with pytest.raises(ValueError, match="must be 1 or 2, got 3"):
        x(2).reflected(3)
    with pytest.raises(ValueError):
        IDENTITY.descent_index


@given(elements, st.sampled_from(GRIDS), st.sampled_from([1, 2]))
def test_reflected_matches_weight_action(w, ab, i):
    g = GCM(*ab)
    assert orbit_weight(w.reflected(i), g) == simple_reflect(i, orbit_weight(w, g), g)


def test_pq_tables_frozen():
    assert pq_table(GCM(3, 3), 5).p == (1, 1, 2, 5, 13, 34)
    assert pq_table(GCM(3, 3), 5).q == (1, 1, 2, 5, 13, 34)
    assert pq_table(GCM(2, 3), 5).p == (1, 1, 2, 3, 7, 11)
    assert pq_table(GCM(2, 5), 7).p == (1, 1, 4, 7, 31, 55, 244, 433)
    assert pq_table(GCM(2, 5), 7).q == (1, 1, 1, 4, 7, 31, 55, 244)


def test_pq_table_rejects_short_windows():
    with pytest.raises(ValueError):
        pq_table(GCM(3, 3), 0)


def test_orbit_weights_keep_a_few_tables_per_matrix():
    # orbit_weight reads tables of power-of-two lengths: a walk over the
    # lengths up to 1000 keeps 11 of them, not one per length
    g = GCM(3, 3)
    orbit_weight.cache_clear()
    pq_table.cache_clear()
    tracemalloc.start()
    try:
        for k in range(1001):
            orbit_weight(x(k), g)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 10 * 2**20
    assert pq_table.cache_info().currsize == 11


def test_orbit_weights_frozen():
    g = GCM(3, 3)
    assert orbit_weight(IDENTITY, g) == LAMBDA
    assert orbit_weight(x(1), g) == Weight(-1, 2)
    assert orbit_weight(y(1), g) == Weight(-2, 1)
    assert orbit_weight(x(2), g) == Weight(5, -2)
    assert orbit_weight(y(2), g) == Weight(2, -5)


@given(elements, st.sampled_from(GRIDS))
def test_orbit_weight_closed_form_matches_word_action(w, ab):
    g = GCM(*ab)
    assert orbit_weight(w, g) == apply_weyl(w, LAMBDA, g)


@given(st.sampled_from(GRIDS), st.integers(0, 10), st.integers(0, 10))
def test_orbit_weights_are_distinct(ab, mx, my):
    g = GCM(*ab)
    wx = orbit_weight(x(mx), g)
    wy = orbit_weight(y(my), g)
    assert (wx == wy) == (mx == 0 and my == 0)


def test_positive_roots_frozen_33():
    g = GCM(3, 3)
    coords = {r.coords for r in positive_roots_weyl(g, 3)}
    assert {(0, 1), (1, 0), (1, 3), (3, 1), (3, 8), (8, 3)} <= coords
    assert positive_roots_recurrence(g, 3) == [(0, 1), (1, 0), (1, 3), (3, 1), (3, 8), (8, 3)]


@pytest.mark.parametrize("a,b", GRIDS)
def test_root_enumerations_agree(a, b):
    g = GCM(a, b)
    weyl = [r.coords for r in positive_roots_weyl(g, 10)]
    rec = positive_roots_recurrence(g, 20)
    assert len(set(weyl)) == len(weyl) == 40
    assert set(weyl) == set(rec)


@pytest.mark.parametrize("a,b", [(3, 3), (2, 5), (4, 4), (1, 5)])
def test_root_walk_matches_letter_by_letter_roots(a, b):
    g = GCM(a, b)
    for n in range(1, 61):
        ref = []
        for l in range(0, 2 * n, 2):
            ref += [positive_root(x(l), 2, g), positive_root(y(l + 1), 1, g)]
        for l in range(0, 2 * n, 2):
            ref += [positive_root(y(l), 1, g), positive_root(x(l + 1), 2, g)]
        assert positive_roots_weyl(g, n) == ref, n


@pytest.mark.parametrize("c, d", [(0, 0), (-1, 2), (3, -1)])
def test_checked_root_refuses_non_positive_coordinates(c, d):
    with pytest.raises(ValueError, match=rf"x2\(alpha_1\) is not a positive root: coords \({c}, {d}\)"):
        _checked_root(x(2), 1, c, d)


def test_root_pairing_frozen():
    g = GCM(3, 3)
    alpha2 = positive_root(IDENTITY, 2, g)
    assert root_pairing(orbit_weight(x(2), g), alpha2, g) == -2
    assert reflect_by_root(orbit_weight(x(2), g), alpha2, g) == orbit_weight(x(1), g)


@pytest.mark.parametrize("a,b", GRIDS)
def test_pairing_sign_classification(a, b):
    """Signs of <w.lambda, beta^vee> depend only on the parities: for even
    m the strictly negative roots are x_l(a2) with l even and y_l(a1)
    with l odd, for odd m the two parities swap, and the pairing is never
    zero.  Checked for both families, m <= 10, word length l <= 10."""
    g = GCM(a, b)
    for m in range(11):
        for fam in (x, y):
            wt = orbit_weight(fam(m), g)
            for l in range(11):
                for beta, neg_parity in (
                    (positive_root(x(l), 2, g), 0),
                    (positive_root(y(l), 1, g), 1),
                ):
                    val = root_pairing(wt, beta, g)
                    assert val != 0
                    expect_neg = (l % 2 == neg_parity) == (m % 2 == 0)
                    assert (val < 0) == expect_neg


def test_hasse_neighbors():
    up, down = hasse_neighbors(x(2)).up, hasse_neighbors(x(2)).down
    assert up == (x(3), 1) and down == (x(1), 2)
    assert hasse_neighbors(IDENTITY).up == (x(1), 1)
    assert hasse_neighbors(IDENTITY).down == (y(1), 2)
    assert hasse_neighbors(y(1)).down == (y(2), 1)


def test_window_elements_order():
    assert window_elements(2) == [x(2), x(1), IDENTITY, y(1), y(2)]
    assert window_elements(0) == [IDENTITY]
    with pytest.raises(ValueError):
        window_elements(-1)


def test_element_json_round_trip():
    for w in (x(4), y(7), IDENTITY):
        assert WeylElement.from_json(w.to_json()) == w


@pytest.mark.parametrize("m", [True, 1.0, "1"])
def test_element_rejects_non_integer_length(m):
    with pytest.raises(TypeError):
        WeylElement("x", m)
    with pytest.raises(TypeError):
        WeylElement.from_json({"family": "y", "m": m})
