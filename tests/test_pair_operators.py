"""The pair functions fe_explicit and fe_generic, and the closed-form branches.

Each pair function reads one height profile of H_i for both root
operators, so it must return exactly (f_i, e_i) of the single-operator
functions, nulls and errors included.  The branch test classifies each
closed-form step from the definition (the Fraction witness h_function),
not from explicit.py's own arithmetic.
"""

import pytest

from lscrystal import oracle
from lscrystal.cartan import GCM
from lscrystal.explicit import (
    FORM_I,
    FORM_II,
    ExplicitPath,
    e_explicit,
    enumerate_explicit,
    f_explicit,
    fe_explicit,
    normal_forms_by_shape,
    to_ls_path,
)
from lscrystal.oracle import CheckResult, check_operator_equivalence
from lscrystal.paths import e_generic, f_generic, fe_generic, h_function
from walks import STEPS, deep_walk

G33 = GCM(3, 3)
G25 = GCM(2, 5)


def _assert_pairs(ep, gcm):
    pi = to_ls_path(ep)
    for i in (1, 2):
        assert fe_explicit(ep, i, gcm) == (f_explicit(ep, i, gcm), e_explicit(ep, i, gcm)), (str(ep), i)
        assert fe_generic(pi, i, gcm) == (f_generic(pi, i, gcm), e_generic(pi, i, gcm)), (str(pi), i)


@pytest.mark.parametrize("ab", [(3, 3), (2, 5), (4, 4)])
def test_pair_functions_equal_both_operators_on_windows(ab):
    gcm = GCM(*ab)
    forms = list(normal_forms_by_shape(gcm, 4, 3))
    assert len(forms) == len(set(forms)) == len(enumerate_explicit(gcm, 4, 3))
    for ep in forms:
        _assert_pairs(ep, gcm)


def test_pair_functions_equal_both_operators_along_deep_walks():
    # the first 12 walks
    deepest = 0
    for w in deep_walk()[: 12 * STEPS]:
        _assert_pairs(w.ep, G25)
        deepest = max(deepest, w.ep_after.s)
    assert deepest >= 25


def test_pair_functions_reject_a_bad_index_and_a_boundary_matrix():
    ep = ExplicitPath(FORM_I, 0, 1, (0, 1))
    with pytest.raises(ValueError, match="simple root index"):
        fe_explicit(ep, 3, G33)
    with pytest.raises(ValueError, match="a >= 2 and b >= 2"):
        fe_explicit(ep, 1, GCM(1, 5))


def _branch(ep, i, gcm, lowering):
    """The closed-form branch f_i (lowering) or e_i takes on ep, read off
    H_i by the definition: None, grown, straight, moved or shrunk."""
    points = h_function(to_ls_path(ep), i, gcm).points
    times = [t for t, _ in points]
    values = [v for _, v in points]
    low, s = min(values), ep.s
    if lowering:
        u = max(k for k, v in enumerate(values) if v == low)
        if u == s:
            return None
        # H_i climbs one level on piece u + 1 in time 1/c
        c = (values[u + 1] - values[u]) / (times[u + 1] - times[u])
        fits, end = times[u] + 1 / c < times[u + 1], 0
    else:
        u = values.index(low)
        if u == 0:
            return None
        # H_i falls one level on piece u in time 1/c
        c = (values[u - 1] - values[u]) / (times[u] - times[u - 1])
        fits, end = times[u - 1] < times[u] - 1 / c, s
    if u == end:
        return "grown" if fits else "straight"
    return "moved" if fits else "shrunk"


def _shape_step(branch, ep, out, lowering):
    """What the branch does to (form, m, s)."""
    step = 1 if ep.form == FORM_I else -1
    if branch == "grown":
        return (ep.form, ep.m if lowering else ep.m - step, ep.s + 1)
    if branch == "moved":
        return (ep.form, ep.m, ep.s)
    if branch == "shrunk":
        return (ep.form, ep.m + step if lowering else ep.m, ep.s - 1)
    # straight: the last direction reflected
    return (out.form, out.m, 1)


def test_every_closed_form_branch_is_hit():
    hit = {}
    for ep in enumerate_explicit(G33, 4, 3):
        for lowering, op in ((True, f_explicit), (False, e_explicit)):
            for i in (1, 2):
                out = op(ep, i, G33)
                branch = _branch(ep, i, G33, lowering)
                hit.setdefault((lowering, ep.form), set()).add(branch)
                if branch is None:
                    assert out is None, (str(ep), lowering, i)
                    continue
                shape = (out.form, out.m, out.s)
                assert shape == _shape_step(branch, ep, out, lowering), (str(ep), branch, i)
                if branch == "moved":
                    assert out != ep
                if branch == "straight":
                    assert out.keys == (ep.directions()[-1].reflected(i).order_key,)
    every = {None, "grown", "straight", "moved", "shrunk"}
    for lowering in (True, False):
        assert hit[lowering, FORM_I] | hit[lowering, FORM_II] == every, lowering
    # in this window e_i reaches the straight branch from form i only
    assert hit[True, FORM_II] == hit[False, FORM_I] == every
    assert hit[False, FORM_II] == every - {"straight"}


# engine results whose (first key, last key, s) the spoiled from_ls_path
# maps to None; their first failures differ between generation order and
# str order
SPOILED = {(5, 4, 2), (6, 3, 4), (-2, -3, 2)}


def test_reported_counterexample_is_the_first_in_str_order(monkeypatch):
    real = oracle.from_ls_path

    def spoiled(pi):
        return None if (pi.keys[0], pi.keys[-1], pi.s) in SPOILED else real(pi)

    monkeypatch.setattr(oracle, "from_ls_path", spoiled)
    report = check_operator_equivalence(G33, 4, 3)
    # recorded with the sorted sweep, before the pair functions
    assert report.results == (
        CheckResult(
            "operator-equivalence",
            7112,
            {
                "path": {"form": "i", "m": 3, "s": 3, "sigmas": ["0", "1/17", "1/13", "1"]},
                "op": "f2",
                "closed-form": {"form": "i", "m": 3, "s": 4, "sigmas": ["0", "1/89", "1/17", "1/13", "1"]},
                "engine": {
                    "dirs": [
                        {"family": "x", "m": 6},
                        {"family": "x", "m": 5},
                        {"family": "x", "m": 4},
                        {"family": "x", "m": 3},
                    ],
                    "sigmas": ["0", "1/89", "1/17", "1/13", "1"],
                },
            },
        ),
    )
