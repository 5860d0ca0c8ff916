"""String data by the Pitman transform, against iteration.

paths.epsilon/phi read the string lengths off min H_i, and e_max/f_max
reflect the stretches where H_i sets a new running minimum; the
oracle's _strings applies e_i/f_i until it returns null.  The two must
agree on every path below, and the int paths.weight must agree with the
Fraction eval_path at t = 1.
"""

import pytest

from lscrystal.cartan import GCM, simple_root
from lscrystal.oracle import SearchBounds, _strings, enumerate_ls_paths
from lscrystal.paths import (
    LSPath,
    crystal_bfs,
    e_generic,
    e_max,
    epsilon,
    eval_path,
    f_generic,
    f_max,
    phi,
    straight_path,
    weight,
)
from lscrystal.weyl import x
from walks import deep_walk

G33 = GCM(3, 3)
G25 = GCM(2, 5)
ORACLE_MATRICES = ((3, 3), (2, 5), (2, 3))
BFS_MATRICES = ((1, 5), (5, 1), (3, 3), (2, 5))
# (count, end, operator): each Pitman pair and the operator it iterates
STRINGS = ((epsilon, e_max, e_generic), (phi, f_max, f_generic))
LONGEST_ITERATED = 2000


def _oracle_paths(a, b):
    return sorted(enumerate_ls_paths(GCM(a, b), SearchBounds(4, 3)), key=str)


def _bfs_nodes(a, b):
    return crystal_bfs(GCM(a, b), lambda pi, level: level < 8)[0]


def _assert_strings_iterate(pi, gcm, longest=LONGEST_ITERATED):
    """Every Pitman string end equals the iterated one; returns how many
    strings were iterated (those of at most `longest` steps)."""
    compared = 0
    for i in (1, 2):
        for count, end, op in STRINGS:
            n = count(pi, i, gcm)
            if n > longest:
                continue
            assert _strings(op, (pi,), i, gcm)[pi] == (n, end(pi, i, gcm)), (str(pi), i, op.__name__)
            compared += 1
    return compared


@pytest.mark.parametrize("ab", ORACLE_MATRICES)
def test_pitman_equals_iteration_on_oracle_window(ab):
    paths = _oracle_paths(*ab)
    assert sum(_assert_strings_iterate(pi, GCM(*ab)) for pi in paths) == 4 * len(paths)


@pytest.mark.parametrize("ab", BFS_MATRICES)
def test_pitman_equals_iteration_on_bfs_nodes(ab):
    nodes = _bfs_nodes(*ab)
    assert sum(_assert_strings_iterate(pi, GCM(*ab)) for pi in nodes) >= 4 * len(nodes) > 100


def test_pitman_equals_iteration_along_deep_walks():
    # every 8th path of each walk, on strings of at most 50 steps: long
    # paths with 13-digit denominators, where iteration stays cheap
    compared = 0
    for w in deep_walk():
        if w.step % 8 == 0:
            compared += _assert_strings_iterate(w.pi_after, G25, longest=50)
    assert compared > 1000


def test_pitman_splits_pieces():
    """Some string end in the oracle windows has a breakpoint its start
    does not have, so the comparisons above cover the split."""
    split = 0
    for ab in ORACLE_MATRICES:
        gcm = GCM(*ab)
        for pi in _oracle_paths(*ab):
            for i in (1, 2):
                for end in (e_max(pi, i, gcm), f_max(pi, i, gcm)):
                    split += not set(end.times) <= set(pi.times)
    assert split > 0


def test_straight_x20_strings():
    pi = straight_path(x(20))
    assert epsilon(pi, 2, G33) == 63_245_986
    assert phi(pi, 1, G33) == 165_580_141
    assert epsilon(pi, 1, G33) == phi(pi, 2, G33) == 0
    assert e_max(pi, 1, G33) == pi and f_max(pi, 2, G33) == pi
    top, bottom = e_max(pi, 2, G33), f_max(pi, 1, G33)
    assert e_generic(top, 2, G33) is None and f_generic(bottom, 1, G33) is None
    assert top == straight_path(x(19)) and bottom == straight_path(x(21))
    assert weight(top, G33) == weight(pi, G33) + 63_245_986 * simple_root(2, G33)
    assert weight(bottom, G33) == weight(pi, G33) - 165_580_141 * simple_root(1, G33)


# H_1 falls to -1/2 at t = 1/2 and ends at 0; H_2 ends at 1/2
HALF = LSPath((x(1), x(0)), (0, "1/2", 1))


@pytest.mark.parametrize("string_data", [epsilon, phi, e_max, f_max])
@pytest.mark.parametrize("i", [1, 2])
def test_string_data_reject_non_ls_paths(string_data, i):
    with pytest.raises(ValueError, match="not an LS path"):
        string_data(HALF, i, G33)


def _assert_weight_is_endpoint(pi, gcm):
    assert weight(pi, gcm) == eval_path(pi, 1, gcm), str(pi)


@pytest.mark.parametrize("ab", ORACLE_MATRICES)
def test_int_weight_is_endpoint_on_oracle_window(ab):
    for pi in _oracle_paths(*ab):
        _assert_weight_is_endpoint(pi, GCM(*ab))


@pytest.mark.parametrize("ab", BFS_MATRICES)
def test_int_weight_is_endpoint_on_bfs_nodes(ab):
    for pi in _bfs_nodes(*ab):
        _assert_weight_is_endpoint(pi, GCM(*ab))


def test_int_weight_is_endpoint_along_deep_walks():
    for w in deep_walk():
        _assert_weight_is_endpoint(w.pi_after, G25)


def test_int_weight_rejects_non_integral_endpoint():
    with pytest.raises(ValueError, match=r"path endpoint Weight\(0, 1/2\) is not integral; corrupt path"):
        weight(HALF, G33)
