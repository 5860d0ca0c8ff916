"""Lakshmibai-Seshadri paths and the generic root operators.

A path is a strictly decreasing tuple of orbit directions together
with breakpoints 0 = s_0 < ... < s_s = 1; it is identified with the
piecewise-linear map t -> sum over completed segments plus the partial
one.  The operators e_i and f_i act by reflecting a section of the path
where the height function H_i crosses one integer level, which on this
representation is purely combinatorial: the direction of every piece
inside the section steps to its r_i-neighbour and nothing else moves.

A path is stored in ints: the order keys of its directions and the
breakpoint numerators n_u = s_u * D over their least common denominator
D, so gcd(D, *numerators) = 1; D itself is the last numerator, as
s_s = 1.  That form is canonical, so equality and hashing, which Frozen
derives from (keys, nums), compare ints only; the breakpoints as
reduced Fractions (times) and the directions as WeylElements (dirs)
are derived when read.

The engine here is the semantics: it computes the section boundaries
t_0, t_1 by exact root-finding on H_i and makes no use of the
closed-form normal-form operators (those live in explicit.py and are
checked against this module).  It assumes nothing about the
breakpoints beyond their order: D*H_i at the breakpoints and the piece
slopes <orbit weight, alpha_i^vee> are plain ints, and the minimum and
the climb back to min + 1 are searched on those.  The section is then
found by index: t_0 (for f) or t_1 (for e) is a breakpoint, the other
end is a breakpoint or splits one known piece of slope c at r/(D*|c|)
after its start.  _split, the one place a piece is cut, puts that
point straight over D*k with k = |c|/gcd(|c|, r), so the numerators
are scaled by k alone.

f_i reflects after the last minimum of H_i and e_i before the first,
so one height profile serves both: f_generic and e_generic each build
it and hand it whole to their branch, _lowered or _raised, and
fe_generic builds it once and hands it to both, for callers that need
the pair.  Each branch reads its minimum and its section off that one
profile.

The string data need no iteration.  epsilon = -min H_i and phi = H_i(1)
- min H_i (Littelmann, Ann. Math. 142, 1995), and e_max/f_max are the
Pitman transform and its dual (Biane, Bougerol, O'Connell, Duke Math.
J. 130, 2005): every stretch where H_i sets a new running minimum,
scanning from the left for e and from the right for f, is reflected.
All four read the int heights, in O(s); the iterated strings are kept
in the oracle as their ground truth.  weight sums the gap numerators
times the int orbit-weight coordinates over D.  h_function and
eval_path stay on Fraction as an independent witness of the int
heights (epsilon = -min H_i is checked against it).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import gt, mul, sub

from .cartan import (
    GCM,
    Frozen,
    Weight,
    breakpoint_ints,
    pairing,
    rationals_from_json,
    reduced_breakpoint_ints,
)
from .weyl import BY_ORDER_KEY, IDENTITY, WeylElement, orbit_weight, reflected_key


class LSPath(Frozen):
    """Directions and breakpoints, stored as (keys, nums).

    LSPath(dirs, times) takes WeylElements and breakpoints as Fractions,
    ints or decimal strings; LSPath(keys=..., nums=...) takes the
    directions' order keys and the breakpoint numerators over their
    last entry, and divides out their gcd.  Either way the directions
    must strictly decrease and the breakpoints strictly increase from 0
    to 1.  Instances are immutable.

    LSPath._from_valid(keys, nums), which Frozen compiles, stores the
    two tuples as they are, without any of these checks.  It is only
    for a caller that holds them from a path object whose own invariant
    already implies this one (keys a strictly decreasing int tuple, nums
    a tuple of ints from 0 strictly up to D with gcd 1, one more entry
    than keys); explicit.to_ls_path is that caller.  Everything else,
    the operators here included, builds its results through the
    validating constructor.
    """

    __slots__ = ("keys", "nums")

    def __init__(self, dirs=None, times=None, *, keys=None, nums=None):
        if keys is None:
            keys = tuple([d.order_key for d in dirs])
            points = times
        else:
            points = nums
        if len(keys) < 1:
            raise ValueError("a path needs at least one direction")
        if len(points) != len(keys) + 1:
            raise ValueError(
                f"{len(keys)} directions need {len(keys) + 1} "
                f"breakpoints, got {len(points)}"
            )
        nums = breakpoint_ints(times) if nums is None else reduced_breakpoint_ints(nums)
        if not all(map(gt, keys, keys[1:])):
            u, v = next((u, v) for u, v in zip(keys, keys[1:]) if u <= v)
            raise ValueError(
                f"directions not strictly decreasing: {BY_ORDER_KEY[u]} !> {BY_ORDER_KEY[v]}"
            )
        self._store(tuple(keys), nums)

    def __reduce__(self):
        return LSPath, (self.dirs, self.times)

    @property
    def dirs(self) -> tuple[WeylElement, ...]:
        return tuple([BY_ORDER_KEY[k] for k in self.keys])

    @property
    def times(self) -> tuple[Fraction, ...]:
        den = self.nums[-1]
        return tuple([Fraction(n, den) for n in self.nums])

    @property
    def s(self) -> int:
        return len(self.keys)

    def __repr__(self):
        return f"LSPath(dirs={self.dirs!r}, times={self.times!r})"

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
    return LSPath(keys=(w.order_key,), nums=(0, 1))


class PiecewiseLinear(Frozen):
    """A continuous piecewise-linear function on [0, 1] by its breakpoints."""

    __slots__ = ("points",)

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
    times = pi.times
    acc = Weight(0, 0)
    for k, d in enumerate(pi.dirs):
        lo, hi = times[k], times[k + 1]
        if t >= hi:
            acc = acc + (hi - lo) * orbit_weight(d, gcm)
        else:
            acc = acc + (t - lo) * orbit_weight(d, gcm)
            break
    return acc


def h_function(pi: LSPath, i: int, gcm: GCM) -> PiecewiseLinear:
    """H_i at the breakpoints (prefix sums of gap * direction pairing)."""
    times = pi.times
    vals = [Fraction(0)]
    for k, d in enumerate(pi.dirs):
        gap = times[k + 1] - times[k]
        vals.append(vals[-1] + gap * pairing(orbit_weight(d, gcm), i))
    return PiecewiseLinear(tuple(zip(times, vals)))


class _Slopes(dict):
    """Order key -> <orbit weight of that direction, alpha_i^vee>, as int,
    each looked up once."""

    def __init__(self, gcm: GCM, i: int):
        super().__init__()
        self.gcm, self.i = gcm, i

    def __missing__(self, key: int) -> int:
        c = self[key] = pairing(orbit_weight(BY_ORDER_KEY[key], self.gcm), self.i).numerator
        return c


@lru_cache(maxsize=None)
def _slope_table(gcm: GCM, i: int) -> _Slopes:
    return _Slopes(gcm, i)


# D, the breakpoint numerators, the piece slopes and D*H_i at the breakpoints
_Profile = tuple[int, tuple[int, ...], list[int], list[int]]


def _int_heights(pi: LSPath, i: int, gcm: GCM) -> _Profile:
    """D, the breakpoint numerators, the piece slopes and D*H_i at the breakpoints.

    Every value is an int: the path stores its breakpoints over D, and
    the slopes are the ints <orbit weight, alpha_i^vee>.  This is the
    one height profile that f_i, e_i and the string data all read.
    """
    nums = pi.nums
    slopes = list(map(_slope_table(gcm, i).__getitem__, pi.keys))
    # prefix sums of (gap numerator) * slope
    heights = list(accumulate(map(mul, map(sub, nums[1:], nums), slopes), initial=0))
    return nums[-1], nums, slopes, heights


def weight(pi: LSPath, gcm: GCM) -> Weight:
    """The endpoint pi(1), in int: D^-1 times the sum over the pieces of
    (gap numerator) * (c1, c2) of the piece's orbit weight.  Coordinate
    i of a weight is its pairing with alpha_i^vee, so that sum is
    D*H_i(1) for i = 1, 2."""
    den = pi.nums[-1]
    c1, c2 = [_int_heights(pi, i, gcm)[3][-1] for i in (1, 2)]
    if c1 % den or c2 % den:
        wt = Weight(Fraction(c1, den), Fraction(c2, den))
        raise ValueError(f"path endpoint {wt!r} is not integral; corrupt path")
    return Weight(c1 // den, c2 // den)


def _reflect_pieces(keys: list[int], nums: list[int], i: int, lo: int, hi: int) -> LSPath:
    """Step pieces lo..hi-1 to their r_i-neighbours and make the path.

    The prefix keeps its values and the suffix is rigidly shifted, so
    on the (directions, breakpoints) representation nothing outside the
    section changes at all.  Reflection is a bijection on directions, so
    equal neighbours can only appear across the two ends of the
    section; those pieces are merged.
    """
    for k in range(lo, hi):
        keys[k] = reflected_key(keys[k], i)
    for k in (hi, lo):
        if 0 < k < len(keys) and keys[k - 1] == keys[k]:
            del keys[k]
            del nums[k]
    return LSPath(keys=tuple(keys), nums=tuple(nums))


def f_generic(pi: LSPath, i: int, gcm: GCM) -> LSPath | None:
    """Lowering operator: null when H_i(1) equals the minimum.

    Otherwise t_0 is the last time the minimum is attained and t_1 the
    first time after it where H_i returns to min + 1; the section in
    between is reflected.
    """
    return _lowered(pi, i, _int_heights(pi, i, gcm))


def e_generic(pi: LSPath, i: int, gcm: GCM) -> LSPath | None:
    """Raising operator: null when the minimum of H_i is 0.

    Otherwise t_1 is the first time the minimum is attained and t_0 the
    last time before it where H_i was still at min + 1.
    """
    return _raised(pi, i, _int_heights(pi, i, gcm))


def fe_generic(pi: LSPath, i: int, gcm: GCM) -> tuple[LSPath | None, LSPath | None]:
    """(f_generic, e_generic) of pi from one height profile."""
    profile = _int_heights(pi, i, gcm)
    return _lowered(pi, i, profile), _raised(pi, i, profile)


def _lowered(pi: LSPath, i: int, profile: _Profile) -> LSPath | None:
    """f_i of pi from its _int_heights profile."""
    den, num, slopes, h = profile
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
    keys, nums = list(pi.keys), list(num)
    if h[u] > level:
        # t_1 lies inside piece u - 1, where H climbs with slope c > 0
        _split(keys, nums, u - 1, slopes[u - 1], level - h[u - 1])
    return _reflect_pieces(keys, nums, i, j0, u)


def _raised(pi: LSPath, i: int, profile: _Profile) -> LSPath | None:
    """e_i of pi from its _int_heights profile."""
    den, num, slopes, h = profile
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
    keys, nums = list(pi.keys), list(num)
    if h[u] > level:
        # t_0 lies inside piece u, where H falls with slope -c < 0; the
        # section starts at its second half
        _split(keys, nums, u, -slopes[u], h[u] - level)
        return _reflect_pieces(keys, nums, i, u + 1, j1 + 1)
    return _reflect_pieces(keys, nums, i, u, j1)


def _split(keys: list[int], nums: list[int], u: int, c: int, r: int) -> None:
    """Cut piece u in place where D*H_i has moved by r > 0 from the
    piece's start, which is r/(D*c) after it, c > 0 the absolute slope.

    The cut is put straight over D*k with k = c/gcd(c, r), and the other
    numerators are scaled by k alone.  Both halves keep the piece's
    direction.
    """
    g = gcd(c, r)
    k = c // g
    cut = nums[u] * k + r // g
    if k > 1:
        nums[:] = [n * k for n in nums]
    keys.insert(u, keys[u])
    nums.insert(u + 1, cut)


def _string_heights(pi: LSPath, i: int, gcm: GCM) -> tuple[int, tuple[int, ...], list[int], list[int], int]:
    """_int_heights and the minimum of D*H_i.  On an LS path both it and
    D*H_i(1) are multiples of D; otherwise the string data raise
    ValueError."""
    den, nums, slopes, h = _int_heights(pi, i, gcm)
    low = min(h)
    if low % den or h[-1] % den:
        raise ValueError(
            f"H_{i} has minimum {Fraction(low, den)} and endpoint {Fraction(h[-1], den)}, "
            f"not both integers; {pi} is not an LS path"
        )
    return den, nums, slopes, h, low


def epsilon(pi: LSPath, i: int, gcm: GCM) -> int:
    """The length of the e_i-string through pi: -min H_i."""
    den, _, _, _, low = _string_heights(pi, i, gcm)
    return -low // den


def phi(pi: LSPath, i: int, gcm: GCM) -> int:
    """The length of the f_i-string through pi: H_i(1) - min H_i."""
    den, _, _, h, low = _string_heights(pi, i, gcm)
    return (h[-1] - low) // den


def _pitman(pi: LSPath, i: int, gcm: GCM, from_left: bool) -> LSPath:
    """Reflect every stretch where H_i sets a new running minimum.

    Scanning from the left this is e_i^max pi(t) = pi(t) - min_{u<=t}
    H_i(u) alpha_i, scanning from the right f_i^max, the dual transform.
    A piece sets a new minimum over all of its length or from the point
    where it crosses the running minimum on; _split cuts such a piece
    there.  Equal neighbours are then merged.
    """
    _, nums, slopes, h, _ = _string_heights(pi, i, gcm)
    # piece -> the running minimum it falls below, for each piece that
    # sets a new one; as seen from the scan, the piece starts at h[k]
    # (from the left) or at h[k + 1] (from the right)
    marks = {}
    if from_left:
        low = 0
        for k in range(len(slopes)):
            if h[k + 1] < low:
                marks[k] = low
                low = h[k + 1]
    else:
        low = h[-1]
        for k in range(len(slopes) - 1, -1, -1):
            if h[k] < low:
                marks[k] = low
                low = h[k]
    if not marks:
        return pi
    # right to left, so a cut leaves the pieces still to visit where they were
    keys, out = list(pi.keys), list(nums)
    for k in sorted(marks, reverse=True):
        if (h[k] if from_left else h[k + 1]) == marks[k]:
            keys[k] = reflected_key(keys[k], i)
            continue
        # H_i meets the running minimum inside the piece, |h[k] - level|
        # over D*|slope| after its start; out is over D times the cuts' k
        _split(keys, out, k, abs(slopes[k]), abs(h[k] - marks[k]) * (out[-1] // nums[-1]))
        half = k + 1 if from_left else k
        keys[half] = reflected_key(keys[half], i)
    for k in range(len(keys) - 1, 0, -1):
        if keys[k - 1] == keys[k]:
            del keys[k]
            del out[k]
    return LSPath(keys=tuple(keys), nums=tuple(out))


def e_max(pi: LSPath, i: int, gcm: GCM) -> LSPath:
    """The top of the e_i-string through pi, by the Pitman transform."""
    top = _pitman(pi, i, gcm, True)
    if e_generic(top, i, gcm) is not None:
        raise RuntimeError(f"e_{i} does not vanish on e_{i}^max({pi}) = {top}")
    return top


def f_max(pi: LSPath, i: int, gcm: GCM) -> LSPath:
    """The bottom of the f_i-string through pi, by the dual Pitman transform."""
    bottom = _pitman(pi, i, gcm, False)
    if f_generic(bottom, i, gcm) is not None:
        raise RuntimeError(f"f_{i} does not vanish on f_{i}^max({pi}) = {bottom}")
    return bottom


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
    frontier, level = [0], 0
    while frontier:
        nxt = []
        for k in frontier:
            pi = nodes[k]
            if not expand(pi, level):
                continue
            # one height profile per i for both of its images
            (f1, e1), (f2, e2) = fe_generic(pi, 1, gcm), fe_generic(pi, 2, gcm)
            for img, i, lowering in ((f1, 1, True), (f2, 2, True), (e1, 1, False), (e2, 2, False)):
                if img is None:
                    continue
                j = index.setdefault(img, len(nodes))
                if j == len(nodes):
                    nodes.append(img)
                    nxt.append(j)
                edges[(k, j, i) if lowering else (j, k, i)] = None
        frontier, level = nxt, level + 1
    return nodes, list(edges)
