"""The int representation of both path classes: order keys and the
breakpoint numerators over their least common denominator D.

Equality and hashing compare those ints, so they are only right when
every path, however it was built, carries the reduced D.
"""

import copy
import pickle
import sys
import time
from fractions import Fraction as F
from math import gcd

import pytest

from lscrystal.cartan import GCM, simple_reflect
from lscrystal.explicit import (
    FORM_I,
    FORM_II,
    ExplicitPath,
    e_explicit,
    f_explicit,
    from_ls_path,
    normal_forms_by_shape,
    to_ls_path,
)
from lscrystal.oracle import SearchBounds, enumerate_ls_paths
from lscrystal.paths import LSPath, e_generic, f_generic, straight_path
from lscrystal.weyl import BY_ORDER_KEY, IDENTITY, orbit_weight, pq_table, reflected_key, x, y
from references import denominator_policy
from walks import STEPS, deep_walk

G25 = GCM(2, 5)
G33 = GCM(3, 3)


def _assert_canonical(path, cls):
    """path equals, and hashes like, the path rebuilt from its own JSON."""
    assert gcd(*path.nums) == 1
    again = cls.from_json(path.to_json())
    assert again == path and hash(again) == hash(path), str(path)
    assert again.nums == path.nums


def _assert_images_canonical(pi, ep, gcm):
    for i in (1, 2):
        for op in (f_generic, e_generic):
            img = op(pi, i, gcm)
            if img is not None:
                _assert_canonical(img, LSPath)
                assert to_ls_path(from_ls_path(img)) == img
        if ep is not None:
            for op in (f_explicit, e_explicit):
                img = op(ep, i, gcm)
                if img is not None:
                    _assert_canonical(img, ExplicitPath)
                    assert from_ls_path(to_ls_path(img)) == img


def test_operator_images_are_canonical_along_deep_walks():
    widest = 0
    for w in deep_walk():
        closed, engine = w.closed, w.engine
        if closed is None:
            assert engine is None
            continue
        _assert_canonical(closed, ExplicitPath)
        _assert_canonical(engine, LSPath)
        assert to_ls_path(closed) == engine and from_ls_path(engine) == closed
        assert to_ls_path(from_ls_path(engine)) == engine
        widest = max(widest, engine.nums[-1])
    # the walks reach 13-digit denominators, where a stray factor shows
    assert widest >= 10**12


def test_operator_images_are_canonical_on_the_oracle_window():
    paths = enumerate_ls_paths(G33, SearchBounds(4, 3))
    assert len(paths) == 95
    for pi in sorted(paths, key=str):
        _assert_canonical(pi, LSPath)
        ep = from_ls_path(pi)
        assert to_ls_path(ep) == pi
        _assert_images_canonical(pi, ep, G33)


def test_spellings_of_one_path_are_equal():
    spellings = [
        LSPath((x(2), x(1)), (F(0), F(1, 3), F(1))),
        LSPath((x(2), x(1)), (0, "1/3", 1)),
        LSPath([x(2), x(1)], ["0", F(2, 6), "1"]),
        LSPath(keys=(2, 1), nums=(0, 1, 3)),
        LSPath(keys=(2, 1), nums=(0, 4, 12)),
    ]
    for pi in spellings:
        assert pi == spellings[0] and hash(pi) == hash(spellings[0])
        assert pi.keys == (2, 1) and pi.nums == (0, 1, 3)
    forms = [
        ExplicitPath(FORM_I, 2, 3, (F(0), F(1, 7), F(2, 3), F(1))),
        ExplicitPath(FORM_I, 2, 3, [0, "1/7", "2/3", 1]),
        ExplicitPath(FORM_I, 2, 3, nums=(0, 3, 14, 21)),
        ExplicitPath(FORM_I, 2, 3, nums=(0, 6, 28, 42)),
        from_ls_path(LSPath((x(4), x(3), x(2)), ("0", "1/7", "2/3", "1"))),
    ]
    for ep in forms:
        assert ep == forms[0] and hash(ep) == hash(forms[0])
        assert ep.nums == (0, 3, 14, 21)
    # the straight path's two spellings
    assert ExplicitPath(FORM_II, 0, 1, nums=(0, 5)) == ExplicitPath(FORM_I, 0, 1, (0, 1))
    assert straight_path(y(2)) == LSPath((y(2),), (0, 1)) == LSPath(keys=(-2,), nums=(0, 1))


def test_paths_that_differ_in_one_place_are_unequal():
    base = LSPath(keys=(2, 1), nums=(0, 2, 5))
    for other in (
        LSPath(keys=(2, 1), nums=(0, 1, 5)),  # one numerator
        LSPath(keys=(2, 1), nums=(0, 2, 7)),  # D
        LSPath(keys=(3, 1), nums=(0, 2, 5)),  # one direction
        LSPath(keys=(2, -1), nums=(0, 2, 5)),
    ):
        assert other != base
    ep = ExplicitPath(FORM_II, 3, 2, nums=(0, 1, 3))
    for other in (
        ExplicitPath(FORM_II, 3, 2, nums=(0, 2, 3)),
        ExplicitPath(FORM_II, 3, 2, nums=(0, 1, 4)),
        ExplicitPath(FORM_II, 4, 2, nums=(0, 1, 3)),
        ExplicitPath(FORM_I, 3, 2, nums=(0, 1, 3)),
    ):
        assert other != ep
    # a path is not equal to the normal form of it, nor to its ints
    assert to_ls_path(ep) != ep and base != (base.keys, base.nums)


def _window_and_walk_forms():
    """The (3,3) normal forms with m, s <= 3, then the states of four
    seeded 256-step walks at (2,5)."""
    yield from normal_forms_by_shape(G33, 3, 3)
    for w in deep_walk()[: 4 * STEPS]:
        yield w.ep_after


def test_paths_hash_their_fields_and_compare_only_within_their_class():
    # sets and dicts of paths keep their order only while a path hashes
    # as the tuple of its int fields
    count = 0
    for ep in _window_and_walk_forms():
        pi = to_ls_path(ep)
        pi_fields, ep_fields = (pi.keys, pi.nums), (ep.form, ep.m, ep.nums)
        assert hash(pi) == hash(pi_fields) and hash(ep) == hash(ep_fields)
        for path, foreign in ((pi, (ep, pi_fields, None)), (ep, (pi, ep_fields, None))):
            for other in foreign:
                assert path.__eq__(other) is NotImplemented
        count += 1
    assert count > 1024


def test_breakpoints_read_back_as_reduced_fractions():
    pi = LSPath(keys=(3, 2, 1), nums=(0, 4, 6, 12))
    assert pi.nums == (0, 2, 3, 6)
    assert pi.times == (F(0), F(1, 3), F(1, 2), F(1))
    assert all(type(t) is F for t in pi.times)
    assert pi.dirs == (x(3), x(2), x(1)) and pi.dirs[0] is BY_ORDER_KEY[3]
    ep = ExplicitPath(FORM_I, 1, 3, nums=(0, 4, 6, 12))
    assert ep.sigmas == (F(0), F(1, 3), F(1, 2), F(1))
    assert all(type(t) is F for t in ep.sigmas)
    assert ep.s == 3 and ep.keys == (3, 2, 1) and ep.directions() == pi.dirs


def test_copies_and_pickles_are_equal():
    for path in (
        LSPath(keys=(3, 2, -1), nums=(0, 1, 4, 9)),
        ExplicitPath(FORM_II, 3, 2, (0, "1/3", 1)),
    ):
        for again in (copy.copy(path), copy.deepcopy(path), pickle.loads(pickle.dumps(path))):
            assert again == path and hash(again) == hash(path) and again.nums == path.nums


@pytest.mark.parametrize(
    "path, field",
    [
        (straight_path(), "keys"),
        (straight_path(), "nums"),
        (straight_path(), "times"),
        (straight_path(), "dirs"),
        (ExplicitPath(FORM_I, 0, 1, (0, 1)), "m"),
        (ExplicitPath(FORM_I, 0, 1, (0, 1)), "form"),
        (ExplicitPath(FORM_I, 0, 1, (0, 1)), "nums"),
        (ExplicitPath(FORM_I, 0, 1, (0, 1)), "sigmas"),
    ],
)
def test_fields_cannot_be_assigned(path, field):
    with pytest.raises(AttributeError):
        setattr(path, field, getattr(path, field))
    with pytest.raises(AttributeError):
        delattr(path, field)
    with pytest.raises(AttributeError):
        path.extra = 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LSPath((), ()), "a path needs at least one direction"),
        (lambda: LSPath((IDENTITY,), (F(0), F(1, 2))), "breakpoints must run from 0 to 1"),
        (lambda: LSPath((IDENTITY,), ("1/2", 1)), "breakpoints must run from 0 to 1"),
        (lambda: LSPath((x(1),), (F(0), F(1, 2), F(1))), "1 directions need 2 breakpoints, got 3"),
        (
            lambda: LSPath((x(2), x(1), y(1)), (F(0), F(1, 2), F(1, 3), F(1))),
            "breakpoints not strictly increasing: "
            "(Fraction(0, 1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 1))",
        ),
        (lambda: LSPath((x(1), x(2)), (F(0), F(1, 2), F(1))), "directions not strictly decreasing: x1 !> x2"),
        (
            lambda: LSPath((x(3), y(1), y(1)), (0, "1/3", "1/2", 1)),
            "directions not strictly decreasing: y1 !> y1",
        ),
        (lambda: ExplicitPath(FORM_I, 0, 1, (F(0), F(1, 2))), "breakpoints must run from 0 to 1"),
        (lambda: ExplicitPath(FORM_I, 2, 3, (0, 1)), "s = 3 needs 4 breakpoints, got 2"),
        (
            lambda: ExplicitPath(FORM_I, 2, 3, (0, F(2, 3), F(1, 3), 1)),
            "breakpoints not strictly increasing: "
            "(Fraction(0, 1), Fraction(2, 3), Fraction(1, 3), Fraction(1, 1))",
        ),
    ],
)
def test_error_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LSPath(keys=(), nums=(0,)), "a path needs at least one direction"),
        (lambda: LSPath(keys=(1,), nums=(1, 2)), "breakpoints must run from 0 to 1"),
        (lambda: LSPath(keys=(2, 1), nums=(0, 1)), "2 directions need 3 breakpoints, got 2"),
        (
            lambda: LSPath(keys=(2, 1, -1), nums=(0, 3, 2, 6)),
            "breakpoints not strictly increasing: "
            "(Fraction(0, 1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 1))",
        ),
        (lambda: LSPath(keys=(1, 2), nums=(0, 1, 2)), "directions not strictly decreasing: x1 !> x2"),
        (lambda: ExplicitPath(FORM_I, 2, 3, nums=(0, 1)), "s = 3 needs 4 breakpoints, got 2"),
        (lambda: ExplicitPath(FORM_I, 2, 2, nums=(1, 2, 3)), "breakpoints must run from 0 to 1"),
    ],
)
def test_int_spelling_error_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_reflected_key_matches_weyl_reflection():
    # against the definition: the step's orbit weight is r_i of the weight
    for g in (GCM(2, 3), G25, G33, GCM(4, 4)):
        for key in range(-30, 31):
            for i in (1, 2):
                stepped = orbit_weight(BY_ORDER_KEY[reflected_key(key, i)], g)
                assert stepped == simple_reflect(i, orbit_weight(BY_ORDER_KEY[key], g), g)


@pytest.mark.parametrize("ab", [(1, 5), (5, 1), (2, 3), (3, 3), (2, 5)])
@pytest.mark.parametrize("m_max, s_max", [(0, 1), (2, 2), (4, 3), (7, 1)])
def test_denominator_policy_is_the_sorted_definition(ab, m_max, s_max):
    gcm = GCM(*ab)
    table = pq_table(gcm, max(m_max + s_max, 1))
    values = {F(j, d) for d in set(table.p) | set(table.q) for j in range(1, d)}
    assert denominator_policy(gcm, SearchBounds(m_max, s_max)) == tuple(sorted(values))


@pytest.mark.parametrize(
    "as_list, as_tuple",
    [
        (lambda: LSPath(keys=[1, 0], nums=[0, 1, 2]), lambda: LSPath(keys=(1, 0), nums=(0, 1, 2))),
        (lambda: LSPath(keys=[1, 0], nums=[0, 2, 4]), lambda: LSPath(keys=(1, 0), nums=(0, 1, 2))),
        (
            lambda: ExplicitPath(FORM_I, 1, 2, nums=[0, 1, 2]),
            lambda: ExplicitPath(FORM_I, 1, 2, nums=(0, 1, 2)),
        ),
    ],
)
def test_list_spelling_stores_tuples(as_list, as_tuple):
    # a path keeps no list it was given: its fields are tuples, so it is
    # hashable, equal to its tuple spelling and cannot be changed in place
    path, again = as_list(), as_tuple()
    assert path == again and hash(path) == hash(again)
    assert type(path.keys) is tuple and type(path.nums) is tuple


PAST_LIMIT = "needs a power of ten with more than {} digits"


@pytest.mark.parametrize(
    "point, reason",
    [
        ("1/0", "has denominator 0"),
        # a power of ten past the default limit of 4300 digits is refused
        # before it is built: 10**4301 from the exponent alone, 10**99999999999
        # would not fit in memory, and 10**5000 over the places after the point
        ("1e-4301", PAST_LIMIT),
        ("1e-99999999999", PAST_LIMIT),
        ("0." + "0" * 3999 + "1e-1000", PAST_LIMIT),
    ],
    ids=["zero-denominator", "past-the-limit", "far-past-the-limit", "places-and-exponent"],
)
@pytest.mark.parametrize(
    "build",
    [
        lambda t: ExplicitPath(FORM_I, 0, 2, ["0", t, "1"]),
        lambda t: LSPath((x(1),), ("0", t)),
        lambda t: ExplicitPath.from_json({"form": "i", "m": 0, "s": 2, "sigmas": ["0", t, "1"]}),
        lambda t: LSPath.from_json({"dirs": [{"family": "x", "m": 1}], "sigmas": ["0", t]}),
    ],
)
def test_bad_breakpoint_string_is_a_value_error(build, point, reason):
    with pytest.raises(ValueError) as err:
        build(point)
    assert str(err.value) == f"breakpoint {point!r} " + reason.format(sys.get_int_max_str_digits())


def test_long_malformed_exponent_is_refused_at_once():
    # the exponent is read in linear time: a pattern that tried every split
    # of these zeros would take minutes before Fraction refused the string
    point = "1e" + "0" * 10**5 + "x"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^Invalid literal for Fraction"):
        LSPath((x(1),), ("0", point))
    assert time.perf_counter() - start < 2
