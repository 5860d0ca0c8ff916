"""Lakshmibai-Seshadri paths and the generic root operators.

A path is a strictly decreasing tuple of orbit directions together
with breakpoints 0 = s_0 < ... < s_s = 1; it is identified with the
piecewise-linear map t -> sum over completed segments plus the partial
one.  The operators e_i and f_i act by reflecting a section of the path
where the height function H_i crosses one integer level, which on this
representation is purely combinatorial: the direction of every piece
inside the section steps to its r_i-neighbour and nothing else moves.

The engine here is the semantics: it computes the section boundaries
t_0, t_1 by exact root-finding on H_i and makes no use of the
closed-form normal-form operators (those live in explicit.py and are
checked against this module).  It assumes nothing about the
breakpoints beyond their order: with D the lcm of the path's own
breakpoint denominators, D*H_i at the breakpoints and the piece slopes
<orbit weight, alpha_i^vee> are plain ints, the minimum and the climb
back to min + 1 are searched on those, and a Fraction is made only for
a crossing inside a piece.  The section is then found by index: t_0
(for f) or t_1 (for e) is a breakpoint, the other end is a breakpoint
or splits one known piece.  Breakpoints stay reduced Fractions, and
h_function/eval_path/weight stay on Fraction as an independent witness
of the int heights (epsilon = -min H_i is checked against it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cartan import GCM, Weight, breakpoints, pairing, rationals_from_json
from .weyl import IDENTITY, WeylElement, orbit_weight


@dataclass(frozen=True)
class LSPath:
    dirs: tuple[WeylElement, ...]
    times: tuple[Fraction, ...]

    def __post_init__(self):
        dirs = self.dirs
        if type(dirs) is not tuple:
            dirs = tuple(dirs)
            object.__setattr__(self, "dirs", dirs)
        if len(dirs) < 1:
            raise ValueError("a path needs at least one direction")
        if len(self.times) != len(dirs) + 1:
            raise ValueError(
                f"{len(dirs)} directions need {len(dirs) + 1} "
                f"breakpoints, got {len(self.times)}"
            )
        object.__setattr__(self, "times", breakpoints(self.times))
        for u, v in zip(dirs, dirs[1:]):
            if u.order_key <= v.order_key:
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


def _int_heights(pi: LSPath, i: int, gcm: GCM) -> tuple[int, list[int], list[int], list[int]]:
    """D, D*t at the breakpoints, the piece slopes and D*H_i at the breakpoints.

    D is the lcm of the path's own breakpoint denominators, so every
    value is an int; the slopes are the ints <orbit weight, alpha_i^vee>.
    """
    times = pi.times
    den = lcm(*[t.denominator for t in times])
    num = [t.numerator * (den // t.denominator) for t in times]
    slopes = [pairing(orbit_weight(d, gcm).weight, i).numerator for d in pi.dirs]
    heights = [0]
    acc = 0
    for k, c in enumerate(slopes):
        acc += (num[k + 1] - num[k]) * c
        heights.append(acc)
    return den, num, slopes, heights


def _reflect_pieces(dirs: list[WeylElement], times: list[Fraction], i: int, lo: int, hi: int) -> LSPath:
    """Step pieces lo..hi-1 to their r_i-neighbours and make the path.

    The prefix keeps its values and the suffix is rigidly shifted, so
    on the (dirs, times) representation nothing outside the section
    changes at all.  Reflection is a bijection on directions, so equal
    neighbours can only appear across the two ends of the section;
    those pieces are merged.
    """
    for k in range(lo, hi):
        dirs[k] = dirs[k].reflected(i)
    for k in (hi, lo):
        if 0 < k < len(dirs) and dirs[k - 1] == dirs[k]:
            del dirs[k]
            del times[k]
    return LSPath(tuple(dirs), tuple(times))


def f_generic(pi: LSPath, i: int, gcm: GCM) -> LSPath | None:
    """Lowering operator: null when H_i(1) equals the minimum.

    Otherwise t_0 is the last time the minimum is attained and t_1 the
    first time after it where H_i returns to min + 1; the section in
    between is reflected.
    """
    den, num, slopes, h = _int_heights(pi, i, gcm)
    m = min(h)
    if h[-1] == m:
        return None
    j0 = len(h) - 1 - h[::-1].index(m)
    level = m + den
    for u in range(j0 + 1, len(h)):
        if h[u] >= level:
            break
    else:
        # H ends at least one above its min, so a crossing must exist
        raise RuntimeError(f"f_{i}: H_{i} never climbs back from its minimum on {pi}")
    dirs, times = list(pi.dirs), list(pi.times)
    if h[u] > level:
        # t_1 lies inside piece u - 1: split it there
        c = slopes[u - 1]
        dirs.insert(u - 1, dirs[u - 1])
        times.insert(u, Fraction(num[u - 1] * c + level - h[u - 1], den * c))
    return _reflect_pieces(dirs, times, i, j0, u)


def e_generic(pi: LSPath, i: int, gcm: GCM) -> LSPath | None:
    """Raising operator: null when the minimum of H_i is 0.

    Otherwise t_1 is the first time the minimum is attained and t_0 the
    last time before it where H_i was still at min + 1.
    """
    den, num, slopes, h = _int_heights(pi, i, gcm)
    m = min(h)
    if m == 0:
        return None
    j1 = h.index(m)
    level = m + den
    for u in range(j1 - 1, -1, -1):
        if h[u] >= level:
            break
    else:
        # H starts at 0 > min, so a crossing must exist
        raise RuntimeError(f"e_{i}: H_{i} never falls from 0 to its minimum on {pi}")
    dirs, times = list(pi.dirs), list(pi.times)
    if h[u] > level:
        # t_0 lies inside piece u: split it there
        c = slopes[u]
        dirs.insert(u, dirs[u])
        times.insert(u + 1, Fraction(num[u] * c + level - h[u], den * c))
        u += 1
        j1 += 1
    return _reflect_pieces(dirs, times, i, u, j1)


def _string(op, pi: LSPath, i: int, gcm: GCM) -> tuple[int, LSPath]:
    """Apply op until it returns null: the number of steps and the last path."""
    n, cur = 0, pi
    nxt = op(cur, i, gcm)
    while nxt is not None:
        n, cur = n + 1, nxt
        nxt = op(cur, i, gcm)
    return n, cur


def epsilon(pi: LSPath, i: int, gcm: GCM) -> int:
    return _string(e_generic, pi, i, gcm)[0]


def phi(pi: LSPath, i: int, gcm: GCM) -> int:
    return _string(f_generic, pi, i, gcm)[0]


def e_max(pi: LSPath, i: int, gcm: GCM) -> LSPath:
    return _string(e_generic, pi, i, gcm)[1]


def f_max(pi: LSPath, i: int, gcm: GCM) -> LSPath:
    return _string(f_generic, pi, i, gcm)[1]


def crystal_bfs(gcm: GCM, expand) -> tuple[list[LSPath], list[tuple[int, int, int]]]:
    """Breadth-first search of the crystal graph from the straight path.

    Returns the nodes in discovery order and each f_i-edge once, as
    (source index, target index, i).  A node's images are taken in the
    order f_1, f_2, e_1, e_2, and only when expand(node, level) holds,
    level being the node's distance from the start.
    """
    start = straight_path()
    nodes = [start]
    index = {start: 0}
    edges: dict[tuple[int, int, int], None] = {}
    frontier, level = [start], 0
    while frontier:
        nxt = []
        for pi in frontier:
            if not expand(pi, level):
                continue
            for lowering, op in ((True, f_generic), (False, e_generic)):
                for i in (1, 2):
                    img = op(pi, i, gcm)
                    if img is None:
                        continue
                    if img not in index:
                        index[img] = len(nodes)
                        nodes.append(img)
                        nxt.append(img)
                    src, dst = (pi, img) if lowering else (img, pi)
                    edges[(index[src], index[dst], i)] = None
        frontier, level = nxt, level + 1
    return nodes, list(edges)
