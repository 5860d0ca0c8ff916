"""Reference views that only the tests read.

Each is a direct, slower or Fraction-valued form of something the
package computes another way, kept here as the value a test checks the
package against.
"""

from fractions import Fraction

from lscrystal.cartan import GCM
from lscrystal.explicit import ExplicitPath, _heights, _on_grid, _shape_table
from lscrystal.oracle import SearchBounds, _numerators, _policy_by_denominator
from lscrystal.weyl import PositiveRoot, WeylElement, _checked_root


def denominator_policy(gcm: GCM, bounds: SearchBounds) -> tuple[Fraction, ...]:
    """Candidate interior breakpoints: reduced fractions in (0, 1) whose
    denominator divides some p_k or q_k with k <= m_max + s_max, in
    increasing order: the Fraction view of oracle._policy_by_denominator.

    Every normal-form breakpoint in the window has this shape by the
    integrality conditions, so enumerating over the policy set cannot
    miss a classified path.
    """
    n = bounds.table_len
    common, rows = _policy_by_denominator(gcm, n)
    nums = sorted(k for d, _ in rows for k in _numerators(gcm, n, d))
    return tuple(Fraction(k, common) for k in nums)


def partial_sums(ep: ExplicitPath, gcm: GCM) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(H_1, H_2) at sigma_0..sigma_s from the closed-form int heights.

    The last entries are the weight coordinates.  A breakpoint off its
    grid raises ValueError.
    """
    table = _shape_table(gcm, ep.form, ep.m, len(ep.nums) - 1)
    den = _on_grid(ep, gcm).nums[-1]
    h1, h2 = (tuple([Fraction(h, den) for h in _heights(ep, slopes)]) for slopes in table.slopes)
    return h1, h2


def _act_on_root_coords(w: WeylElement, c: int, d: int, gcm: GCM) -> tuple[int, int]:
    # r_1: c alpha_1 + d alpha_2 -> (a d - c) alpha_1 + d alpha_2, and
    # r_2 fixes c, sends d -> b c - d
    for i in w.letters():
        if i == 1:
            c = gcm.a * d - c
        else:
            d = gcm.b * c - d
    return c, d


def positive_root(w: WeylElement, i: int, gcm: GCM) -> PositiveRoot:
    """w(alpha_i), built letter by letter: the reference for
    weyl.positive_roots_weyl and the oracle's chain roots."""
    c0, d0 = (1, 0) if i == 1 else (0, 1)
    return _checked_root(w, i, *_act_on_root_coords(w, c0, d0, gcm))
