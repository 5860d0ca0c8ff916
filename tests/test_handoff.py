"""The conversions between the two path classes hand their fields across
without validating them again.

to_ls_path and from_ls_path build their results with the private
constructors LSPath._from_valid and ExplicitPath._from_valid.  That is
only sound if what they build is exactly what the validating public
constructors would build from the same fields: the same tuples, equal,
with the same hash, and just as frozen, copyable and picklable.
"""

import ast
import copy
import hashlib
import pickle
from dataclasses import FrozenInstanceError
from math import gcd
from pathlib import Path

import pytest

from lscrystal.cartan import GCM, reduced_breakpoint_ints
from lscrystal.explicit import (
    ExplicitPath,
    from_ls_path,
    normal_forms_by_shape,
    to_ls_path,
)
from lscrystal import explicit, paths
from lscrystal.paths import LSPath
from walks import deep_walk, deep_walk_steps


def _assert_same_value(got, want):
    assert type(got) is type(want)
    assert type(got.nums) is tuple and got.nums == want.nums
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert repr(got) == repr(want) and got.to_json() == want.to_json()


def _assert_frozen_and_portable(path):
    for name in path.__slots__:
        with pytest.raises(FrozenInstanceError):
            setattr(path, name, getattr(path, name))
    for again in (copy.copy(path), pickle.loads(pickle.dumps(path))):
        assert again == path and hash(again) == hash(path)
        assert again.nums == path.nums


def _assert_handoff(ep: ExplicitPath, pi: LSPath):
    """Both conversions of one path match the validating constructors."""
    ls = to_ls_path(ep)
    want_ls = LSPath(keys=ep.keys, nums=ep.nums)
    _assert_same_value(ls, want_ls)
    assert type(ls.keys) is tuple and ls.keys == want_ls.keys
    _assert_frozen_and_portable(ls)

    closed = from_ls_path(pi)
    want_ep = ExplicitPath(closed.form, closed.m, closed.s, nums=pi.nums)
    _assert_same_value(closed, want_ep)
    assert (closed.form, closed.m, closed.s) == (ep.form, ep.m, ep.s)
    assert closed.sigmas == want_ep.sigmas
    _assert_frozen_and_portable(closed)


@pytest.mark.parametrize("ab", [(2, 3), (2, 5), (3, 3)])
def test_handoff_matches_validating_constructors_on_normal_forms(ab):
    gcm = GCM(*ab)
    count = 0
    for ep in normal_forms_by_shape(gcm, 4, 3):
        _assert_handoff(ep, LSPath(keys=ep.keys, nums=ep.nums))
        count += 1
    assert count > 100


def test_handoff_matches_validating_constructors_along_deep_walks():
    widest = 0
    for w in deep_walk():
        closed, engine = w.closed, w.engine
        if closed is None:
            assert engine is None
            continue
        _assert_handoff(closed, engine)
        widest = max(widest, engine.nums[-1])
    # the walks reach 13-digit denominators and both families
    assert widest >= 10**12


# SHA-256 of the stored fields of both images at every step of the
# shared deep walk (walks.deep_walk), recorded when both engines still
# scaled every numerator by the whole slope and left the gcd to the
# constructors.  The stored form is canonical, so how an operator
# builds its breakpoints must not move it.
DEEP_WALK_STATES_SHA256 = "b75e589d3c1f1f524334b2acd153195e5910d531142ac5c18c116a5ad31c9c55"


def test_deep_walk_states_match_their_recorded_digest():
    digest = hashlib.sha256()
    steps = 0
    for w in deep_walk():
        closed, engine = w.closed, w.engine
        digest.update(repr(None if closed is None else (closed.form, closed.m, closed.nums)).encode())
        digest.update(repr(None if engine is None else (engine.keys, engine.nums)).encode())
        steps += 1
    assert steps == 20 * 256
    assert digest.hexdigest() == DEEP_WALK_STATES_SHA256


def test_deep_walk_operators_build_breakpoints_over_reduced_denominators(monkeypatch):
    # a moved or split breakpoint is put over D * c/gcd(c, r), not D * c,
    # so the constructors seldom find a common factor left to divide
    # out; scaling by the whole slope left one in 83% of these tuples
    built = unreduced = 0

    def counting(nums):
        nonlocal built, unreduced
        built += 1
        unreduced += gcd(*nums) > 1
        return reduced_breakpoint_ints(nums)

    monkeypatch.setattr(explicit, "reduced_breakpoint_ints", counting)
    monkeypatch.setattr(paths, "reduced_breakpoint_ints", counting)
    # the uncached walk, so that its operators run under the patch
    for _ in deep_walk_steps():
        pass
    assert built > 5000
    assert unreduced <= built // 4, (unreduced, built)


def test_paths_imports_nothing_from_explicit():
    # the generic engine is the semantics the closed forms are checked
    # against, so the private constructor must not tie it to them
    tree = ast.parse(Path(paths.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    assert not any(name.split(".")[-1] == "explicit" for name in names), sorted(names)
