"""The duality Phi of the crystal, and the tables folded onto it.

Littelmann's dual path pi*(t) = pi(1 - t) - pi(1) satisfies
e_i(pi*) = (f_i pi)* (Ann. Math. 142, 1995).  Composed with the diagram
automorphism (a, b) <-> (b, a), which swaps the indices 1 and 2, it
sends the crystal of L1 - L2 at (a, b) onto the one at (b, a).  On the
stored ints Phi reverses and negates the direction keys and replaces
the numerators n_u by D - n_{s-u}; form i (m, s) goes to form ii
(m + s - 1, s) and back.

The first half checks Phi as a fourth witness on both operator engines
and on the Pitman string ends.  The second half pins what explicit.py
and weyl.py read off it: the form-ii shape tables are form i at the
transposed matrix, and q of (a, b) is p of (b, a).
"""

from operator import sub

import pytest

from lscrystal.cartan import GCM
from lscrystal.explicit import (
    FORM_I,
    FORM_II,
    ExplicitPath,
    _on_grid,
    _shape_table,
    enumerate_explicit,
    fe_explicit,
    from_ls_path,
    normal_forms_of_shapes,
    to_ls_path,
    xi,
)
from lscrystal.paths import LSPath, e_max, epsilon, f_max, fe_generic, phi
from lscrystal.weyl import pq_table
from walks import G25, deep_walk

WINDOW_MATRICES = ((3, 3), (2, 5), (4, 2))
FOLD_MATRICES = ((2, 3), (3, 2), (2, 5), (5, 2), (3, 3), (4, 4), (7, 3))


def transposed(gcm: GCM) -> GCM:
    return GCM(gcm.b, gcm.a)


def dual_ls(pi: LSPath) -> LSPath:
    den = pi.nums[-1]
    return LSPath(keys=tuple([-k for k in reversed(pi.keys)]), nums=tuple([den - n for n in reversed(pi.nums)]))


def dual_explicit(ep: ExplicitPath) -> ExplicitPath:
    s, den = ep.s, ep.nums[-1]
    nums = tuple([den - n for n in reversed(ep.nums)])
    if ep.form == FORM_I:
        return ExplicitPath(FORM_II, ep.m + s - 1, s, nums=nums)
    return ExplicitPath(FORM_I, ep.m - s + 1, s, nums=nums)


def _dual_or_none(dual, path):
    return None if path is None else dual(path)


def _assert_operators_intertwine(ep: ExplicitPath, gcm: GCM) -> int:
    """Phi(ep) is a normal form of the transposed matrix, and Phi takes
    f_i to e_{3-i} and e_i to f_{3-i} on both engines; returns how many
    identities were checked."""
    dual_gcm = transposed(gcm)
    pi = to_ls_path(ep)
    dual_pi = dual_ls(pi)
    dual_ep = _on_grid(from_ls_path(dual_pi), dual_gcm)
    assert dual_ep == _on_grid(dual_explicit(ep), dual_gcm), str(ep)
    assert to_ls_path(dual_ep) == dual_pi
    for i in (1, 2):
        f_x, e_x = fe_explicit(ep, i, gcm)
        dual_f_x, dual_e_x = fe_explicit(dual_ep, 3 - i, dual_gcm)
        assert _dual_or_none(dual_explicit, f_x) == dual_e_x, (str(ep), i)
        assert _dual_or_none(dual_explicit, e_x) == dual_f_x, (str(ep), i)
        f_g, e_g = fe_generic(pi, i, gcm)
        dual_f_g, dual_e_g = fe_generic(dual_pi, 3 - i, dual_gcm)
        assert _dual_or_none(dual_ls, f_g) == dual_e_g, (str(pi), i)
        assert _dual_or_none(dual_ls, e_g) == dual_f_g, (str(pi), i)
    return 9


def _assert_strings_intertwine(pi: LSPath, gcm: GCM) -> int:
    """Phi takes epsilon_i to phi_{3-i} and e_i^max to f_{3-i}^max;
    returns how many identities were checked."""
    dual_gcm = transposed(gcm)
    dual_pi = dual_ls(pi)
    for i in (1, 2):
        assert epsilon(pi, i, gcm) == phi(dual_pi, 3 - i, dual_gcm), (str(pi), i)
        assert phi(pi, i, gcm) == epsilon(dual_pi, 3 - i, dual_gcm), (str(pi), i)
        assert dual_ls(e_max(pi, i, gcm)) == f_max(dual_pi, 3 - i, dual_gcm), (str(pi), i)
    return 6


@pytest.mark.parametrize("ab, m_max", [((3, 3), 4), ((2, 5), 3), ((4, 2), 4)])
def test_phi_intertwines_on_window(ab, m_max):
    gcm = GCM(*ab)
    forms = enumerate_explicit(gcm, m_max, 3)
    # Phi maps the window onto every normal form at (b, a) of the image
    # shapes, form i (m, s) to form ii (m + s - 1, s) and back
    shapes = {(FORM_II, ep.m + ep.s - 1, ep.s) if ep.form == FORM_I else (FORM_I, ep.m - ep.s + 1, ep.s) for ep in forms}
    image = set(normal_forms_of_shapes(transposed(gcm), shapes))
    assert {dual_explicit(ep) for ep in forms} == image
    checked = 0
    for ep in forms:
        checked += _assert_operators_intertwine(ep, gcm) + _assert_strings_intertwine(to_ls_path(ep), gcm)
    assert checked == 15 * len(forms)


def test_phi_intertwines_along_deep_walks():
    # the operators at every 2nd step, the string ends at every 8th
    deepest, checked = 0, 0
    for w in deep_walk():
        pi = w.pi_after
        if w.step % 2 == 0:
            checked += _assert_operators_intertwine(from_ls_path(pi), G25)
        if w.step % 8 == 0:
            checked += _assert_strings_intertwine(pi, G25)
        deepest = max(deepest, len(pi.keys))
    assert deepest >= 25 and checked == 20 * (128 * 9 + 32 * 6)


def test_phi_is_an_involution_fixing_the_straight_path():
    gcm = GCM(2, 5)
    for ep in enumerate_explicit(gcm, 3, 3):
        assert dual_explicit(dual_explicit(ep)) == ep
    straight = ExplicitPath(FORM_I, 0, 1, nums=(0, 1))
    assert dual_explicit(straight) == straight
    assert dual_ls(to_ls_path(straight)) == to_ls_path(straight)


# ---------------------------------------------------------------------------
# the fold: form ii and q read off form i and p at the transposed matrix


def _direct_form_ii_table(gcm: GCM, m: int, s: int):
    """The form-ii table straight from the q table, piece j being y_k
    with k = m - s + j: (grid, slopes, jumps)."""
    q, run = pq_table(gcm, m + s).q, range(m - s + 1, m + 1)
    grid = q[m - s + 2 : m + 1]
    h1 = tuple((-1) ** k * q[k + xi(k + 1)] for k in run)
    h2 = tuple((-1) ** (k + 1) * q[k + xi(k)] for k in run)
    return grid, (h1, h2), tuple(tuple(map(sub, h[1:], h)) for h in (h1, h2))


@pytest.mark.parametrize("ab", FOLD_MATRICES)
def test_form_ii_table_is_form_i_at_the_transposed_matrix(ab):
    gcm = GCM(*ab)
    for m in range(41):
        for s in range(1, min(m, 15) + 1):
            table = _shape_table(gcm, FORM_II, m, s)
            assert (table.grid, table.slopes, table.jumps) == _direct_form_ii_table(gcm, m, s), (m, s)


@pytest.mark.parametrize("ab", FOLD_MATRICES)
def test_q_is_p_of_the_transposed_matrix(ab):
    gcm = GCM(*ab)
    lengths = (50, 10, 200, 1)
    tables = [pq_table(gcm, n) for n in lengths]
    for n, table in zip(lengths, tables):
        assert table.q == pq_table(transposed(gcm), n).p
        assert len(table.p) == len(table.q) == n + 1
        # a table asked for after a longer one is that table's prefix
        assert table.p == tables[2].p[: n + 1] and table.q == tables[2].q[: n + 1]
