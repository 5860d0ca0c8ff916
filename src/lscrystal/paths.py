"""Lakshmibai-Seshadri paths and the generic root operators.

A path is a strictly decreasing tuple of orbit directions together
with breakpoints 0 = s_0 < ... < s_s = 1; it is identified with the
piecewise-linear map t -> sum over completed segments plus the partial
one.  The operators e_i and f_i act by reflecting a section of the path
where the height function H_i crosses one integer level, which on this
representation is purely combinatorial: the direction of every piece
inside the section steps to its r_i-neighbour and nothing else moves.

The engine here is the semantics: it computes the section boundaries
t_0, t_1 by exact rational root-finding on H_i and makes no use of the
closed-form normal-form operators (those live in explicit.py and are
checked against this module).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import GCM, Weight, pairing, rationals_from_json
from .weyl import (
    GREATER,
    IDENTITY,
    OrbitWeight,
    WeylElement,
    orbit_compare,
    orbit_weight,
)


@dataclass(frozen=True)
class LSPath:
    dirs: tuple[WeylElement, ...]
    times: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "dirs", tuple(self.dirs))
        object.__setattr__(self, "times", tuple(Fraction(t) for t in self.times))
        if len(self.dirs) < 1:
            raise ValueError("a path needs at least one direction")
        if len(self.times) != len(self.dirs) + 1:
            raise ValueError(
                f"{len(self.dirs)} directions need {len(self.dirs) + 1} "
                f"breakpoints, got {len(self.times)}"
            )
        if self.times[0] != 0 or self.times[-1] != 1:
            raise ValueError("breakpoints must run from 0 to 1")
        for t0, t1 in zip(self.times, self.times[1:]):
            if not t0 < t1:
                raise ValueError(f"breakpoints not strictly increasing: {self.times}")
        for u, v in zip(self.dirs, self.dirs[1:]):
            if orbit_compare(u, v) != GREATER:
                raise ValueError(f"directions not strictly decreasing: {u} !> {v}")

    @property
    def s(self) -> int:
        return len(self.dirs)

    def __str__(self):
        dirs = ", ".join(str(d) for d in self.dirs)
        times = ", ".join(str(t) for t in self.times)
        return f"({dirs}; {times})"

    def to_json(self) -> dict:
        return {
            "dirs": [d.to_json() for d in self.dirs],
            "sigmas": [str(t) for t in self.times],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LSPath":
        dirs = tuple(WeylElement.from_json(d) for d in data["dirs"])
        return cls(dirs, rationals_from_json(data["sigmas"]))


def straight_path(w: WeylElement = IDENTITY) -> LSPath:
    return LSPath((w,), (Fraction(0), Fraction(1)))


@dataclass(frozen=True)
class PiecewiseLinear:
    """A continuous piecewise-linear function on [0, 1] by its breakpoints."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def minimum(self) -> Fraction:
        # segment slopes are constant, so the min over breakpoints is
        # the global min
        return min(v for _, v in self.points)

    def value_at(self, t) -> Fraction:
        t = Fraction(t)
        pts = self.points
        if not pts[0][0] <= t <= pts[-1][0]:
            raise ValueError(f"t = {t} outside [{pts[0][0]}, {pts[-1][0]}]")
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t <= t1:
                return v0 + (t - t0) * (v1 - v0) / (t1 - t0)
        return pts[-1][1]

    def local_min_values(self) -> list[Fraction]:
        """Values at local minima, endpoints included when one-sidedly minimal."""
        pts = self.points
        if len(pts) == 1:
            return [pts[0][1]]
        vals = []
        if pts[0][1] < pts[1][1]:
            vals.append(pts[0][1])
        for k in range(1, len(pts) - 1):
            if pts[k - 1][1] > pts[k][1] < pts[k + 1][1]:
                vals.append(pts[k][1])
        if pts[-2][1] > pts[-1][1]:
            vals.append(pts[-1][1])
        return vals


def eval_path(pi: LSPath, t, gcm: GCM) -> Weight:
    """The path map at time t (exact; 0 at t = 0)."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"path parameter must lie in [0, 1], got {t}")
    acc = Weight(0, 0)
    for k, d in enumerate(pi.dirs):
        lo, hi = pi.times[k], pi.times[k + 1]
        if t >= hi:
            acc = acc + (hi - lo) * orbit_weight(d, gcm).weight
        else:
            acc = acc + (t - lo) * orbit_weight(d, gcm).weight
            break
    return acc


def weight(pi: LSPath, gcm: GCM) -> Weight:
    wt = eval_path(pi, 1, gcm)
    if not wt.is_integral:
        raise ValueError(f"path endpoint {wt!r} is not integral; corrupt path")
    return wt


def _breakpoint_values(pi: LSPath, i: int, gcm: GCM) -> list[Fraction]:
    """H_i at the breakpoints (prefix sums of gap * direction pairing)."""
    vals = [Fraction(0)]
    for k, d in enumerate(pi.dirs):
        gap = pi.times[k + 1] - pi.times[k]
        vals.append(vals[-1] + gap * pairing(orbit_weight(d, gcm).weight, i))
    return vals


def h_function(pi: LSPath, i: int, gcm: GCM) -> PiecewiseLinear:
    vals = _breakpoint_values(pi, i, gcm)
    return PiecewiseLinear(tuple(zip(pi.times, vals)))


def _slope(d: WeylElement, i: int, gcm: GCM) -> Fraction:
    return pairing(orbit_weight(d, gcm).weight, i)


def _rebuild(pieces: list[tuple[WeylElement, Fraction, Fraction]]) -> LSPath:
    """Drop empty pieces, merge equal adjacent directions, make the path."""
    merged: list[tuple[WeylElement, Fraction, Fraction]] = []
    for d, lo, hi in pieces:
        if lo == hi:
            continue
        if merged and merged[-1][0] == d:
            merged[-1] = (d, merged[-1][1], hi)
        else:
            merged.append((d, lo, hi))
    dirs = tuple(d for d, _, _ in merged)
    times = (merged[0][1],) + tuple(hi for _, _, hi in merged)
    return LSPath(dirs, times)


def _reflect_section(pi: LSPath, i: int, t0: Fraction, t1: Fraction) -> LSPath:
    """Step every direction inside (t0, t1) to its r_i-neighbour.

    The prefix keeps its values and the suffix is rigidly shifted, so
    on the (dirs, times) representation nothing outside the section
    changes at all.
    """
    pieces = []
    for k, d in enumerate(pi.dirs):
        lo, hi = pi.times[k], pi.times[k + 1]
        cuts = [t for t in (t0, t1) if lo < t < hi]
        marks = [lo] + cuts + [hi]
        for a_, b_ in zip(marks, marks[1:]):
            inside = t0 <= a_ and b_ <= t1
            pieces.append((d.reflected(i) if inside else d, a_, b_))
    return _rebuild(pieces)


def f_generic(pi: LSPath, i: int, gcm: GCM) -> LSPath | None:
    """Lowering operator: null when H_i(1) equals the minimum.

    Otherwise t_0 is the last time the minimum is attained and t_1 the
    first time after it where H_i returns to min + 1; the section in
    between is reflected.
    """
    h = _breakpoint_values(pi, i, gcm)
    m = min(h)
    if h[-1] == m:
        return None
    j0 = max(k for k, v in enumerate(h) if v == m)
    t0 = pi.times[j0]
    t1 = None
    for u in range(j0 + 1, len(h)):
        if h[u] >= m + 1:
            if h[u] == m + 1:
                t1 = pi.times[u]
            else:
                t1 = pi.times[u - 1] + (m + 1 - h[u - 1]) / _slope(pi.dirs[u - 1], i, gcm)
            break
    if t1 is None:
        # H ends at least one above its min, so a crossing must exist
        raise RuntimeError(f"f_{i}: H_{i} never climbs back from its minimum on {pi}")
    return _reflect_section(pi, i, t0, t1)


def e_generic(pi: LSPath, i: int, gcm: GCM) -> LSPath | None:
    """Raising operator: null when the minimum of H_i is 0.

    Otherwise t_1 is the first time the minimum is attained and t_0 the
    last time before it where H_i was still at min + 1.
    """
    h = _breakpoint_values(pi, i, gcm)
    m = min(h)
    if m == 0:
        return None
    j1 = min(k for k, v in enumerate(h) if v == m)
    t1 = pi.times[j1]
    t0 = None
    for u in range(j1 - 1, -1, -1):
        if h[u] >= m + 1:
            if h[u] == m + 1:
                t0 = pi.times[u]
            else:
                t0 = pi.times[u] + (m + 1 - h[u]) / _slope(pi.dirs[u], i, gcm)
            break
    if t0 is None:
        # H starts at 0 > min, so a crossing must exist
        raise RuntimeError(f"e_{i}: H_{i} never falls from 0 to its minimum on {pi}")
    return _reflect_section(pi, i, t0, t1)


def epsilon(pi: LSPath, i: int, gcm: GCM) -> int:
    n = 0
    cur = e_generic(pi, i, gcm)
    while cur is not None:
        n += 1
        cur = e_generic(cur, i, gcm)
    return n


def phi(pi: LSPath, i: int, gcm: GCM) -> int:
    n = 0
    cur = f_generic(pi, i, gcm)
    while cur is not None:
        n += 1
        cur = f_generic(cur, i, gcm)
    return n


def e_max(pi: LSPath, i: int, gcm: GCM) -> LSPath:
    cur = pi
    nxt = e_generic(cur, i, gcm)
    while nxt is not None:
        cur = nxt
        nxt = e_generic(cur, i, gcm)
    return cur


def f_max(pi: LSPath, i: int, gcm: GCM) -> LSPath:
    cur = pi
    nxt = f_generic(cur, i, gcm)
    while nxt is not None:
        cur = nxt
        nxt = f_generic(cur, i, gcm)
    return cur


def iota(pi: LSPath, gcm: GCM) -> OrbitWeight:
    """First direction of the path."""
    return orbit_weight(pi.dirs[0], gcm)


def kappa(pi: LSPath, gcm: GCM) -> OrbitWeight:
    """Last direction of the path."""
    return orbit_weight(pi.dirs[-1], gcm)
