from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lscrystal.cartan import GCM, Weight
from lscrystal.explicit import (
    FORM_I,
    FORM_II,
    ExplicitPath,
    e_explicit,
    enumerate_explicit,
    f_explicit,
    fe_explicit,
    from_ls_path,
    to_ls_path,
    validate_explicit,
    xi,
)
from lscrystal.paths import LSPath, e_generic, f_generic, h_function, straight_path, weight
from lscrystal.weyl import x, y
from references import partial_sums
from walks import deep_walk

G33 = GCM(3, 3)
G23 = GCM(2, 3)
G25 = GCM(2, 5)

WORKED = {
    (2, 3): ExplicitPath(FORM_I, 2, 3, (0, F(1, 7), F(2, 3), 1)),
    (2, 5): ExplicitPath(FORM_I, 2, 3, (0, F(1, 31), F(2, 7), 1)),
    (3, 3): ExplicitPath(FORM_I, 2, 3, (0, F(1, 13), F(2, 5), 1)),
}


def test_xi_parity():
    assert [xi(k) for k in range(5)] == [1, 0, 1, 0, 1]


def test_shape_validation():
    with pytest.raises(ValueError):
        ExplicitPath(FORM_I, -1, 1, (0, 1))
    with pytest.raises(ValueError):
        ExplicitPath(FORM_I, 0, 1, (0, F(1, 2)))
    with pytest.raises(ValueError):
        ExplicitPath(FORM_II, 1, 3, (0, F(1, 3), F(1, 2), 1))  # needs m >= s-1
    with pytest.raises(ValueError):
        ExplicitPath("iii", 0, 1, (0, 1))
    with pytest.raises(ValueError, match="s must be a positive integer"):
        ExplicitPath(FORM_I, 0, 0, (0,))


@pytest.mark.parametrize("m, s", [(1, 2), (2, 3), (4, 5)])
def test_form_ii_rejects_m_one_below_s(m, s):
    # the first direction would be y_0 = x_0, the identity
    sig = tuple(F(j, s) for j in range(s + 1))
    with pytest.raises(ValueError, match="starts at the identity"):
        ExplicitPath(FORM_II, m, s, sig)
    with pytest.raises(ValueError, match="starts at the identity"):
        validate_explicit(FORM_II, m, s, sig, G33)
    with pytest.raises(ValueError, match="starts at the identity"):
        ExplicitPath.from_json({"form": "ii", "m": m, "s": s, "sigmas": [str(t) for t in sig]})


@pytest.mark.parametrize("m, s", [(True, 1), (0, True), (1.0, 1), (0, "1")])
def test_shape_rejects_wrong_types(m, s):
    with pytest.raises(TypeError):
        ExplicitPath(FORM_I, m, s, (0, 1))


def test_constructor_keeps_given_fractions():
    sig = (F(0), F(1, 7), F(2, 3), F(1))
    assert ExplicitPath(FORM_I, 2, 3, [0, "1/7", F(2, 3), 1]).sigmas == sig


def test_straight_spelling_is_normalized():
    assert ExplicitPath(FORM_II, 0, 1, (0, 1)) == ExplicitPath(FORM_I, 0, 1, (0, 1))
    assert ExplicitPath(FORM_II, 0, 1, (0, 1)).form == FORM_I


def test_directions():
    assert ExplicitPath(FORM_I, 2, 3, (0, F(1, 13), F(2, 5), 1)).directions() == (x(4), x(3), x(2))
    assert ExplicitPath(FORM_II, 3, 2, (0, F(1, 2), 1)).directions() == (y(2), y(3))
    assert ExplicitPath(FORM_I, 0, 1, (0, 1)).directions() == (x(0),)


def test_integrality_validation():
    with pytest.raises(ValueError):
        validate_explicit(FORM_I, 0, 2, (0, F(1, 2), 1), G33)  # p_1 = 1 divides nothing
    assert validate_explicit(FORM_I, 0, 1, (0, 1), G33) == straight_explicit()
    assert validate_explicit(FORM_I, 2, 3, (0, F(1, 7), F(2, 3), 1), G23) == WORKED[(2, 3)]
    with pytest.raises(ValueError):
        validate_explicit(FORM_I, 2, 3, (0, F(1, 8), F(2, 3), 1), G23)
    with pytest.raises(ValueError):
        validate_explicit(FORM_I, 1, 1, (0, 1), GCM(1, 5))  # needs a, b >= 2


def straight_explicit():
    return ExplicitPath(FORM_I, 0, 1, (0, 1))


def test_ls_path_conversion_round_trip():
    for ep in WORKED.values():
        assert from_ls_path(to_ls_path(ep)) == ep
    assert from_ls_path(straight_path()) == straight_explicit()
    assert from_ls_path(straight_path(y(2))) == ExplicitPath(FORM_II, 2, 1, (0, 1))


def test_from_ls_path_rejects_non_runs():
    with pytest.raises(ValueError):
        from_ls_path(LSPath((x(1), y(1)), (F(0), F(1, 2), F(1))))
    with pytest.raises(ValueError):
        from_ls_path(LSPath((x(3), x(1)), (F(0), F(1, 2), F(1))))
    with pytest.raises(ValueError):
        from_ls_path(LSPath((y(1), y(3)), (F(0), F(1, 2), F(1))))


def test_second_family_conversion():
    # q_2 = 2 at (3,3): breakpoint 1/2 between y_1 and y_2
    pi = LSPath((y(1), y(2)), (F(0), F(1, 2), F(1)))
    assert from_ls_path(pi) == ExplicitPath(FORM_II, 2, 2, (0, F(1, 2), 1))


def test_partial_sums_of_straight():
    h1, h2 = partial_sums(straight_explicit(), G33)
    assert h1 == (F(0), F(1))
    assert h2 == (F(0), F(-1))
    assert Weight(h1[-1], h2[-1]) == Weight(1, -1)


def test_partial_sums_weight_matches_endpoint():
    for (a, b), ep in WORKED.items():
        g = GCM(a, b)
        h1, h2 = partial_sums(ep, g)
        assert Weight(h1[-1], h2[-1]) == weight(to_ls_path(ep), g)


def _assert_heights_match_engine(ep, gcm):
    sums = partial_sums(ep, gcm)
    for i in (1, 2):
        engine = tuple(v for _, v in h_function(to_ls_path(ep), i, gcm).points)
        assert sums[i - 1] == engine, (str(ep), i)


@pytest.mark.parametrize("ab", [(2, 3), (2, 5), (3, 3)])
def test_int_heights_match_engine_on_windows(ab):
    gcm = GCM(*ab)
    for ep in enumerate_explicit(gcm, 4, 3):
        _assert_heights_match_engine(ep, gcm)


def test_int_heights_match_engine_along_deep_walks():
    deepest, widest = 0, 0
    for w in deep_walk():
        ep = w.ep_after
        _assert_heights_match_engine(ep, G25)
        deepest = max(deepest, ep.s)
        widest = max(widest, max(t.denominator for t in ep.sigmas))
    # these walks reach s = 29 and 13-digit denominators
    assert deepest >= 25 and widest >= 10**12


@pytest.mark.parametrize("op", [f_explicit, e_explicit, fe_explicit])
@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize(
    "ab, ep",
    [
        ((3, 3), ExplicitPath(FORM_I, 0, 2, (0, F(1, 2), 1))),
        ((2, 3), ExplicitPath(FORM_I, 2, 3, (0, F(1, 8), F(2, 3), 1))),
        ((2, 3), ExplicitPath(FORM_I, 2, 3, (0, F(1, 7), F(3, 4), 1))),
        ((3, 3), ExplicitPath(FORM_II, 3, 2, (0, F(1, 3), 1))),
    ],
)
def test_operators_reject_off_grid_paths(op, i, ab, ep):
    with pytest.raises(ValueError, match="not a multiple"):
        op(ep, i, GCM(*ab))
    with pytest.raises(ValueError, match="not a multiple"):
        partial_sums(ep, GCM(*ab))


@pytest.mark.parametrize(
    "ab, form, m, sigmas, message",
    [
        # both interior breakpoints off their grids (1/5 and 1/2)
        ((3, 3), FORM_I, 1, (0, F(1, 3), F(3, 4), 1), "breakpoint 1 = 1/3 is not a multiple of 1/p_3 = 1/5"),
        # breakpoint 1 on its grid 1/13, breakpoints 2 and 3 off theirs
        (
            (3, 3),
            FORM_I,
            1,
            (0, F(1, 13), F(1, 3), F(3, 4), 1),
            "breakpoint 2 = 1/3 is not a multiple of 1/p_3 = 1/5",
        ),
        ((2, 5), FORM_II, 4, (0, F(1, 3), F(2, 3), 1), "breakpoint 1 = 1/3 is not a multiple of 1/q_3 = 1/4"),
    ],
)
def test_off_grid_error_names_the_first_off_grid_breakpoint(ab, form, m, sigmas, message):
    gcm = GCM(*ab)
    ep = ExplicitPath(form, m, len(sigmas) - 1, sigmas)
    calls = [partial_sums, lambda p, g: validate_explicit(p.form, p.m, p.s, p.sigmas, g)]
    for op in (f_explicit, e_explicit, fe_explicit):
        calls += [lambda p, g, op=op, i=i: op(p, i, g) for i in (1, 2)]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call(ep, gcm)
        assert str(err.value) == message


def test_grid_check_is_remembered_only_for_its_matrix():
    ep = validate_explicit(FORM_I, 2, 2, (0, F(1, 5), 1), G33)
    # passing for (3,3) says nothing about the grid of (2,5)
    with pytest.raises(ValueError, match=r"^breakpoint 1 = 1/5 is not a multiple of 1/p_3 = 1/7$"):
        f_explicit(ep, 1, G25)
    with pytest.raises(ValueError, match="1/p_3 = 1/7"):
        partial_sums(ep, G25)
    # the remembered check is no part of the value
    fresh = ExplicitPath(FORM_I, 2, 2, (0, F(1, 5), 1))
    assert ep == fresh and hash(ep) == hash(fresh)
    assert f_explicit(ep, 1, G33) == f_explicit(fresh, 1, GCM(3, 3))


def test_operator_frozen_values_on_straight():
    s = straight_explicit()
    assert f_explicit(s, 1, G33) == ExplicitPath(FORM_I, 1, 1, (0, 1))
    assert f_explicit(s, 2, G33) is None
    assert e_explicit(s, 2, G33) == ExplicitPath(FORM_II, 1, 1, (0, 1))
    assert e_explicit(s, 1, G33) is None
    # coming back down from y_1 crosses the straight path
    assert f_explicit(ExplicitPath(FORM_II, 1, 1, (0, 1)), 2, G33) == s


def test_worked_example_branches():
    ep = WORKED[(2, 3)]
    assert f_explicit(ep, 2, G23) == ExplicitPath(FORM_I, 2, 3, (0, F(2, 7), F(2, 3), 1))
    assert f_explicit(ep, 1, G23) == ExplicitPath(FORM_I, 3, 2, (0, F(1, 7), 1))
    assert f_explicit(WORKED[(2, 5)], 1, G25) == ExplicitPath(
        FORM_I, 2, 3, (0, F(1, 31), F(3, 7), 1)
    )
    assert f_explicit(WORKED[(3, 3)], 1, G33) == ExplicitPath(
        FORM_I, 2, 4, (0, F(1, 34), F(1, 13), F(2, 5), 1)
    )
    assert f_explicit(WORKED[(3, 3)], 2, G33) == ExplicitPath(
        FORM_I, 2, 3, (0, F(2, 13), F(2, 5), 1)
    )


def test_enumerate_explicit_counts():
    paths = enumerate_explicit(G33, 2, 2)
    assert len(paths) == 11
    assert all(
        validate_explicit(ep.form, ep.m, ep.s, ep.sigmas, G33) == ep for ep in paths
    )
    assert enumerate_explicit(G33, 0, 3) == {straight_explicit()}


def test_enumerate_explicit_rejects_boundary():
    with pytest.raises(ValueError):
        enumerate_explicit(GCM(1, 5), 2, 2)


def _pool(gcm):
    return sorted(enumerate_explicit(gcm, 3, 3), key=str)


@given(st.data(), st.sampled_from([(2, 3), (3, 3), (2, 5)]), st.sampled_from([1, 2]))
def test_closed_form_agrees_with_engine(data, ab, i):
    gcm = GCM(*ab)
    ep = data.draw(st.sampled_from(_pool(gcm)))
    pi = to_ls_path(ep)
    for closed, generic in ((f_explicit, f_generic), (e_explicit, e_generic)):
        lhs = closed(ep, i, gcm)
        rhs = generic(pi, i, gcm)
        if lhs is None:
            assert rhs is None
        else:
            assert rhs is not None and to_ls_path(lhs) == rhs


@given(st.data(), st.sampled_from([(2, 3), (3, 3)]), st.sampled_from([1, 2]))
def test_closed_form_inverse_pair(data, ab, i):
    gcm = GCM(*ab)
    ep = data.draw(st.sampled_from(_pool(gcm)))
    fi = f_explicit(ep, i, gcm)
    if fi is not None:
        assert e_explicit(fi, i, gcm) == ep
    ei = e_explicit(ep, i, gcm)
    if ei is not None:
        assert f_explicit(ei, i, gcm) == ep


def test_json_round_trip():
    ep = WORKED[(2, 3)]
    assert ExplicitPath.from_json(ep.to_json()) == ep
    assert ep.to_json() == {"form": "i", "m": 2, "s": 3, "sigmas": ["0", "1/7", "2/3", "1"]}
    assert ExplicitPath.from_json({"form": "i", "m": 0, "s": 1, "sigmas": [0, "1"]}) == straight_explicit()


@pytest.mark.parametrize(
    "fields",
    [
        {"m": True},
        {"s": True},
        {"m": 2.0},
        {"sigmas": ["0", 0.5, "1"]},
        {"sigmas": ["0", True, "1"]},
        {"sigmas": "01"},
    ],
)
def test_from_json_rejects_wrong_types(fields):
    data = {"form": "i", "m": 0, "s": 1, "sigmas": ["0", "1"]} | fields
    with pytest.raises(TypeError):
        ExplicitPath.from_json(data)
