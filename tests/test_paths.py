import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lscrystal.cartan import GCM, LAMBDA, Weight, pairing, simple_root
from lscrystal.explicit import enumerate_explicit, to_ls_path
from lscrystal.oracle import SearchBounds, enumerate_ls_paths
from lscrystal.paths import (
    LSPath,
    _int_heights,
    e_generic,
    e_max,
    epsilon,
    eval_path,
    f_generic,
    f_max,
    h_function,
    phi,
    straight_path,
    weight,
)
from lscrystal.weyl import IDENTITY, x, y
from walks import G25, deep_walk

G33 = GCM(3, 3)
G23 = GCM(2, 3)


def test_path_shape_validation():
    with pytest.raises(ValueError):
        LSPath((), (F(0), F(1)))
    with pytest.raises(ValueError):
        LSPath((IDENTITY,), (F(0), F(1, 2)))  # must end at 1
    with pytest.raises(ValueError):
        LSPath((x(1),), (F(0), F(1, 2), F(1)))  # time count mismatch
    with pytest.raises(ValueError):
        LSPath((x(2), x(1)), (F(0), F(1, 2), F(1, 3), F(1)))
    with pytest.raises(ValueError):
        LSPath((x(1), x(2)), (F(0), F(1, 2), F(1)))  # not decreasing
    with pytest.raises(ValueError):
        LSPath((x(1), x(1)), (F(0), F(1, 2), F(1)))


def test_straight_path():
    pi = straight_path()
    assert pi.dirs == (IDENTITY,) and pi.times == (F(0), F(1))
    assert pi.s == 1
    assert str(pi) == "(x0; 0, 1)"
    assert weight(pi, G33) == LAMBDA


def test_eval_path_exact():
    pi = straight_path()
    assert eval_path(pi, F(1, 3), G33) == Weight(F(1, 3), F(-1, 3))
    two = LSPath((x(1), IDENTITY), (F(0), F(1, 2), F(1)))
    assert eval_path(two, F(1, 2), G33) == Weight(F(-1, 2), 1)
    assert eval_path(two, 1, G33) == Weight(0, F(1, 2))
    for t in (F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            eval_path(two, t, G33)


# a power of ten with millions of digits, and a zero denominator
@pytest.mark.parametrize("t, refusal", [("1e-3000000", "needs a power of ten"), ("1/0", "has denominator 0")])
def test_eval_path_refuses_what_the_breakpoint_parser_refuses(t, refusal):
    with pytest.raises(ValueError, match=f"^path parameter '{t}' {refusal}"):
        eval_path(straight_path(), t, G33)
    assert eval_path(straight_path(), "1/3", G33) == Weight(F(1, 3), F(-1, 3))


def test_h_function_of_straight():
    h1 = h_function(straight_path(), 1, G33)
    assert h1.points == ((F(0), F(0)), (F(1), F(1)))
    h2 = h_function(straight_path(), 2, G33)
    assert h2.minimum() == -1
    assert eval_path(straight_path(), F(1, 2), G33).c2 == F(-1, 2)
    assert h2.local_min_values() == [F(-1)]


def test_operators_on_straight():
    pi = straight_path()
    assert f_generic(pi, 1, G33) == straight_path(x(1))
    assert f_generic(pi, 2, G33) is None
    assert e_generic(pi, 2, G33) == straight_path(y(1))
    assert e_generic(pi, 1, G33) is None


def test_string_lengths_on_straight():
    pi = straight_path()
    assert epsilon(pi, 1, G33) == 0 and phi(pi, 1, G33) == 1
    assert epsilon(pi, 2, G33) == 1 and phi(pi, 2, G33) == 0
    assert e_max(pi, 2, G33) == straight_path(y(1))
    assert f_max(pi, 2, G33) == pi


def test_f_creates_breakpoint_inside_a_piece():
    # here the crossing at height m+1 is not an existing breakpoint, so a
    # new one must be interpolated at 1/34 and a direction prepended
    pi = LSPath((x(4), x(3), x(2)), (F(0), F(1, 13), F(2, 5), F(1)))
    out = f_generic(pi, 1, G33)
    assert out == LSPath((x(5), x(4), x(3), x(2)), (F(0), F(1, 34), F(1, 13), F(2, 5), F(1)))
    assert e_generic(out, 1, G33) == pi


def test_worked_three_segment_path_both_branches():
    pi = LSPath((x(4), x(3), x(2)), (F(0), F(1, 7), F(2, 3), F(1)))
    assert f_generic(pi, 2, G23) == LSPath((x(4), x(3), x(2)), (F(0), F(2, 7), F(2, 3), F(1)))
    assert f_generic(pi, 1, G23) == LSPath((x(4), x(3)), (F(0), F(1, 7), F(1)))


def test_weight_is_endpoint():
    pi = LSPath((x(2), x(1)), (F(0), F(1, 2), F(1)))
    assert weight(pi, G33) == eval_path(pi, 1, G33) == Weight(2, 0)


def _paths(gcm, m_max, s_max):
    return sorted((to_ls_path(ep) for ep in enumerate_explicit(gcm, m_max, s_max)), key=str)


@given(st.data(), st.sampled_from([(2, 3), (3, 3)]), st.sampled_from([1, 2]))
def test_operators_are_mutually_inverse(data, ab, i):
    gcm = GCM(*ab)
    pi = data.draw(st.sampled_from(_paths(gcm, 3, 3)))
    fi = f_generic(pi, i, gcm)
    if fi is not None:
        assert e_generic(fi, i, gcm) == pi
    ei = e_generic(pi, i, gcm)
    if ei is not None:
        assert f_generic(ei, i, gcm) == pi


@given(st.data(), st.sampled_from([(2, 3), (3, 3)]), st.sampled_from([1, 2]))
def test_operator_weight_step(data, ab, i):
    gcm = GCM(*ab)
    pi = data.draw(st.sampled_from(_paths(gcm, 3, 3)))
    fi = f_generic(pi, i, gcm)
    if fi is not None:
        assert weight(fi, gcm) == weight(pi, gcm) - simple_root(i, gcm)


@given(st.data(), st.sampled_from([(2, 3), (3, 3)]), st.sampled_from([1, 2]))
def test_string_length_identities(data, ab, i):
    gcm = GCM(*ab)
    pi = data.draw(st.sampled_from(_paths(gcm, 3, 3)))
    h = h_function(pi, i, gcm)
    assert epsilon(pi, i, gcm) == -h.minimum()
    assert phi(pi, i, gcm) == h.points[-1][1] - h.minimum()
    assert phi(pi, i, gcm) - epsilon(pi, i, gcm) == pairing(weight(pi, gcm), i)


def test_max_operators_exhaust_strings():
    pi = LSPath((x(2),), (F(0), F(1)))
    top = e_max(pi, 2, G33)
    assert e_generic(top, 2, G33) is None
    assert epsilon(pi, 2, G33) == 2


def test_json_round_trip():
    pi = LSPath((x(4), x(3), x(2)), (F(0), F(1, 7), F(2, 3), F(1)))
    assert LSPath.from_json(pi.to_json()) == pi
    assert pi.to_json()["sigmas"] == ["0", "1/7", "2/3", "1"]


@pytest.mark.parametrize("sigmas", [["0", 0.5, "1"], ["0", True, "1"], "01"])
def test_from_json_rejects_wrong_breakpoint_types(sigmas):
    data = {"dirs": [{"family": "x", "m": 1}, {"family": "x", "m": 0}], "sigmas": sigmas}
    with pytest.raises(TypeError):
        LSPath.from_json(data)


@pytest.mark.parametrize("op", [f_generic, e_generic])
def test_missing_crossing_raises_outside_assert(op):
    # not an LS path: H_1 dips to -1/2 and comes back only to 0, so no
    # section between the minimum and one level above it exists
    pi = LSPath((x(1), IDENTITY), (F(0), F(1, 2), F(1)))
    with pytest.raises(RuntimeError, match="H_1"):
        op(pi, 1, G33)


# SHA-256 over the JSON of every f_generic/e_generic result (i = 1, 2,
# nulls included) in the order _generic_digest visits them.  It was
# computed by running _generic_digest at commit 87ad690, on the
# Fraction-only engine (Fraction breakpoint values, per-piece section
# reflection) that the int heights replaced, so it pins the operators'
# outputs across that rewrite.
PINNED_GENERIC_DIGEST = "b791a0e80f007f5d80f8c88182a37cb7c8bec25cc2fcc34b3522546ef6bd6b42"


def _generic_digest() -> tuple[str, int]:
    digest = hashlib.sha256()
    calls = 0

    def feed(pi, gcm):
        nonlocal calls
        out = []
        for op in (f_generic, e_generic):
            for i in (1, 2):
                r = op(pi, i, gcm)
                calls += 1
                line = json.dumps(None if r is None else r.to_json(), sort_keys=True)
                digest.update(line.encode() + b"\n")
                if r is not None:
                    out.append(r)
        return out

    # every enumerated LS path of two deep matrices
    for ab in ((3, 3), (2, 5)):
        gcm = GCM(*ab)
        for pi in sorted(enumerate_ls_paths(gcm, SearchBounds(4, 3)), key=str):
            feed(pi, gcm)
    # the boundary matrices, where only this engine runs: 12 BFS levels
    for ab in ((1, 5), (5, 1)):
        gcm = GCM(*ab)
        seen = {straight_path()}
        frontier = [straight_path()]
        for _ in range(12):
            nxt = []
            for pi in frontier:
                for r in feed(pi, gcm):
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
            frontier = sorted(nxt, key=str)
    return digest.hexdigest(), calls


def test_generic_operators_match_pinned_digest():
    digest, calls = _generic_digest()
    assert calls == 1648
    assert digest == PINNED_GENERIC_DIGEST


def test_int_heights_witnessed_along_deep_walks():
    deepest, widest = 0, 0
    for w in deep_walk():
        pi, is_f, i = w.pi, w.is_f, w.i
        if w.step == 0:
            wt = weight(pi, G25)
        den, _, _, heights = _int_heights(pi, i, G25)
        assert h_function(pi, i, G25).minimum() == F(min(heights), den), (str(pi), i)
        step = w.engine
        if step is not None:
            wt = wt - simple_root(i, G25) if is_f else wt + simple_root(i, G25)
            assert weight(step, G25) == wt
            back = e_generic(step, i, G25) if is_f else f_generic(step, i, G25)
            assert back == pi, (str(pi), is_f, i)
            pi = step
        deepest = max(deepest, pi.s)
        widest = max(widest, max(t.denominator for t in pi.times))
    # these walks reach s = 29 and 13-digit denominators
    assert deepest >= 25 and widest >= 10**12
