"""Normal forms for the crystal of shape L1 - L2 and closed-form operators.

For a, b >= 2 every path in the crystal is a run of consecutive
directions inside a single Weyl family: form i is
(x_{m+s-1}.L, ..., x_m.L) with breakpoint u a multiple of 1/p_{m+s-u},
and form ii is (y_{m-s+1}.L, ..., y_m.L) with breakpoint u a multiple
of 1/q_{m-s+u+1}.  The operators below move (m, s, sigmas) around by
closed formulas built on the p table and never consult the
piecewise-linear engine in paths.py; the test suite drives both engines
over full enumeration windows and demands exact agreement.

The closed forms run in int only.  Let c_j be the slope of H_i on piece
j, a signed entry of the p or q table.  At breakpoint u the slope jumps
by c_{u+1} - c_u, which is 2, -a or -b times that breakpoint's own grid
denominator p_{m+s-u} or q_{m-s+u+1}: this is Littelmann's integrality
condition sigma <nu, beta^vee> in Z (Ann. Math. 142, 1995, "Paths and
root operators in representation theory").  Summing by parts,

    H_i(sigma_u) = N_u + sigma_u c_u,   N_u = -sum_{j<u} sigma_j (c_{j+1} - c_j),

and every term of N_u is an integer.  So each height is an integer plus
one breakpoint times one slope, and no Fraction is built.  The slopes
and their jumps depend on the shape alone and are read from its table;
over the path's denominator D the heights are

    D*H_i(sigma_u) = n_u c_u - sum_{j<u} n_j (c_{j+1} - c_j),

a running sum of int products with no division.  The integrality that
makes N_u an integer is the grid condition D | n_u * grid_u, which
_on_grid tests before any height is used.  A path remembers the matrix
it passed that test for, so a path that an operator returned, already
through _on_grid, is not tested again when it is the next input.

f_i acts after the last breakpoint where H_i is lowest and e_i before
the first, so one height profile serves both: f_explicit and
e_explicit each build it and hand it whole to their branch, _lowered
or _raised, and fe_explicit builds it once and hands it to both.  Each
branch reads its minimum and its section off that one profile.  What
depends on the shape (form, m, s) alone, the grid of integrality
denominators and the slopes c_j for i = 1 and i = 2, is one cached
table per matrix and shape; the direction keys need no matrix and are
cached by shape alone.

Only form i has a table formula, on the p table.  Form ii is read off
it through the duality Phi: Littelmann's dual path
pi*(t) = pi(1 - t) - pi(1), with e_i(pi*) = (f_i pi)*, composed with
the diagram automorphism (a, b) <-> (b, a), which swaps the indices
1 and 2.  On the stored ints Phi reverses and negates the direction
keys and replaces n_u by D - n_{s-u}; it takes form ii (m, s) at
(a, b) to form i (m - s + 1, s) at (b, a), and f_i to e_{3-i}.  So
the form-ii table is that form-i table with the grid reversed, the
slopes negated, reversed and swapped between i = 1 and 2, and the
jumps reversed and swapped.  The engine in paths.py never uses Phi.

Like LSPath, an ExplicitPath stores its breakpoints as the int
numerators n_u = sigma_u * D over their least common denominator D,
with gcd(D, *numerators) = 1 and D = n_s.  D is the path's own, not
the p/q grid (which would need the matrix).  The heights are then the
ints D*H_i(sigma_u) = D*N_u + n_u c_u over one denominator, and the
minimum search compares plain ints.  A moved breakpoint sigma_u +- 1/c
is (n_u k +- D/g)/(D k) with g = gcd(c, D) and k = c/g, so it is built
in int straight over D*k and the other numerators are scaled by k
alone, so the constructor seldom finds a common factor left to divide
out.  The conversions to and from LSPath hand the numerators across
unchanged.

The conversions build their results with the private constructors
LSPath._from_valid and ExplicitPath._from_valid, which cartan.Frozen
compiles for every value class: they store the fields without checking
them, because the source's invariant already implies the target's.
An ExplicitPath's nums start at 0, rise strictly and have gcd 1, and
its keys are a strictly decreasing run of length s: a valid LSPath.  An LSPath whose keys are one consecutive run of one
family is a valid ExplicitPath: form i takes any m >= 0 and s >= 1,
and a form ii run with both end keys negative has m >= s >= 1, which
is all the constructor asks of form ii.  Every operator result, on
either side, still goes through its class's validating constructor,
and on this side through _on_grid.

The straight path through the identity is spelled form i with m = 0;
a form ii spelling of it normalizes to that in the constructor.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from operator import sub

from .cartan import (
    GCM,
    Frozen,
    breakpoint_ints,
    rationals_from_json,
    reduced_breakpoint_ints,
)
from .paths import LSPath
from .weyl import BY_ORDER_KEY, WeylElement, X, pq_table_covering

FORM_I = "i"
FORM_II = "ii"


def xi(k: int) -> int:
    return 1 if k % 2 == 0 else 0


class ExplicitPath(Frozen):
    """One normal form: family, top index data (m, s), breakpoints.

    ExplicitPath(form, m, s, sigmas) takes the breakpoints as Fractions,
    ints or decimal strings; ExplicitPath(form, m, s, nums=...) takes
    their numerators over the last entry and divides out their gcd.
    The breakpoints are stored as those numerators; sigmas reads them
    back as reduced Fractions.  Instances are immutable.

    The constructor checks everything that does not need the matrix
    (types, shapes, monotonicity, m >= s for form ii except the straight
    path m = 0, s = 1); breakpoint integrality does need it and lives in
    validate_explicit.  ExplicitPath._from_valid skips these checks and
    is only for from_ls_path (see the module docstring); like the
    constructor, it leaves the _on_grid verdict empty.
    """

    __slots__ = ("form", "m", "nums", "_on_grid_of")

    def __init__(self, form, m, s, sigmas=None, *, nums=None):
        if form not in (FORM_I, FORM_II):
            raise ValueError(f"form must be {FORM_I!r} or {FORM_II!r}, got {form!r}")
        if type(m) is not int:  # bool is an int subclass
            raise TypeError(f"m must be an integer, got {m!r}")
        if m < 0:
            raise ValueError(f"m must be a nonnegative integer, got {m!r}")
        if type(s) is not int:
            raise TypeError(f"s must be an integer, got {s!r}")
        if s < 1:
            raise ValueError(f"s must be a positive integer, got {s!r}")
        points = sigmas if nums is None else nums
        if len(points) != s + 1:
            raise ValueError(f"s = {s} needs {s + 1} breakpoints, got {len(points)}")
        nums = breakpoint_ints(sigmas) if nums is None else reduced_breakpoint_ints(nums)
        if form == FORM_II:
            if m < s - 1:
                raise ValueError(f"form ii needs m >= s - 1, got m = {m}, s = {s}")
            if m == s - 1 > 0:
                # the first direction would be y_0 = x_0, which only the
                # straight path holds
                raise ValueError(
                    f"form ii with m = s - 1 starts at the identity y_0, got m = {m}, s = {s}"
                )
            if m == 0:
                # the straight identity path; canonical spelling is form i
                form = FORM_I
        self._store(form, m, nums)

    def __reduce__(self):
        return ExplicitPath, (self.form, self.m, self.s, self.sigmas)

    @property
    def s(self) -> int:
        return len(self.nums) - 1

    @property
    def sigmas(self) -> tuple[Fraction, ...]:
        den = self.nums[-1]
        return tuple([Fraction(n, den) for n in self.nums])

    @property
    def keys(self) -> tuple[int, ...]:
        """Order keys of the directions: m + s - 1 down to m on form i,
        -(m - s + 1) down to -m on form ii."""
        return _shape_keys(self.form, self.m, len(self.nums) - 1)

    def directions(self) -> tuple[WeylElement, ...]:
        return tuple([BY_ORDER_KEY[k] for k in self.keys])

    def __repr__(self):
        return f"ExplicitPath(form={self.form!r}, m={self.m!r}, s={self.s!r}, sigmas={self.sigmas!r})"

    def __str__(self):
        times = ", ".join(str(t) for t in self.sigmas)
        return f"{self.form}(m={self.m}, s={self.s}; {times})"

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "m": self.m,
            "s": self.s,
            "sigmas": [str(t) for t in self.sigmas],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExplicitPath":
        return cls(data["form"], data["m"], data["s"], rationals_from_json(data["sigmas"]))


# _on_grid writes the cache slot after construction
_set_on_grid_of = ExplicitPath._on_grid_of.__set__


def _require_deep(gcm: GCM):
    if gcm.boundary:
        raise ValueError(f"normal forms need a >= 2 and b >= 2, got ({gcm.a}, {gcm.b})")


class _ShapeTable(Frozen):
    """What the closed forms read off one shape (form, m, s) of a matrix.

    grid holds the integrality denominators of breakpoints 1..s-1,
    p_{m+s-u} on form i and q_{m-s+u+1} on form ii; slopes[i - 1] holds
    the slopes c_1..c_s of H_i, c_j = <direction of piece j,
    alpha_i^vee>, and jumps[i - 1] their jumps c_{u+1} - c_u at
    breakpoints 1..s-1.  The direction keys need no matrix: _shape_keys.
    """

    __slots__ = ("grid", "slopes", "jumps")


@lru_cache(maxsize=None)
def _shape_keys(form: str, m: int, s: int) -> tuple[int, ...]:
    """The order keys of the directions of one shape."""
    top = m + s - 1 if form == FORM_I else s - 1 - m
    return tuple(range(top, top - s, -1))


@lru_cache(maxsize=None)
def _shape_table(gcm: GCM, form: str, m: int, s: int) -> _ShapeTable:
    """The table of one shape, built once per matrix.

    Form i is read off the p table: piece j is x_k with k = m + s - j.
    Form ii is the form-i table at the transposed matrix and shape
    (m - s + 1, s), carried back by the duality Phi of the module
    docstring.
    """
    if form == FORM_II:
        dual = _shape_table(GCM(gcm.b, gcm.a), FORM_I, m - s + 1, s)
        slopes = tuple(tuple([-c for c in reversed(h)]) for h in reversed(dual.slopes))
        jumps = tuple(h[::-1] for h in reversed(dual.jumps))
        return _ShapeTable(dual.grid[::-1], slopes, jumps)
    p, run = pq_table_covering(gcm, m + s).p, range(m + s - 1, m - 1, -1)
    h1 = tuple([(-1) ** k * p[k + xi(k)] for k in run])
    h2 = tuple([(-1) ** (k + 1) * p[k + xi(k + 1)] for k in run])
    jumps = tuple(tuple(map(sub, h[1:], h)) for h in (h1, h2))
    return _ShapeTable(p[m + s - 1 : m : -1], (h1, h2), jumps)


def _off_grid(ep: ExplicitPath, u: int, den: int) -> ValueError:
    name = f"p_{ep.m + ep.s - u}" if ep.form == FORM_I else f"q_{ep.m - ep.s + u + 1}"
    return ValueError(f"breakpoint {u} = {ep.sigmas[u]} is not a multiple of 1/{name} = 1/{den}")


def _on_grid(ep: ExplicitPath, gcm: GCM) -> ExplicitPath:
    """ep, once every interior breakpoint n_u/D is a multiple of
    1/grid_u, that is once D divides n_u * grid_u.

    The answer depends only on the immutable ep and gcm, so a path
    that passed remembers the matrix object it passed for and is not
    checked again for it; an equal but distinct GCM checks again.
    """
    if ep._on_grid_of is gcm:
        return ep
    nums = ep.nums
    den = nums[-1]
    for u, g in enumerate(_shape_table(gcm, ep.form, ep.m, len(nums) - 1).grid, 1):
        if nums[u] * g % den:
            raise _off_grid(ep, u, g)
    _set_on_grid_of(ep, gcm)
    return ep


def validate_explicit(form: str, m: int, s: int, sigmas, gcm: GCM) -> ExplicitPath:
    """Build a fully checked path: shape first, then breakpoint integrality."""
    _require_deep(gcm)
    return _on_grid(ExplicitPath(form, m, s, sigmas), gcm)


def to_ls_path(ep: ExplicitPath) -> LSPath:
    return LSPath._from_valid(ep.keys, ep.nums)


def from_ls_path(pi: LSPath) -> ExplicitPath:
    """Read (form, m, s) off a consecutive one-family direction run.

    Rejects anything else; on paths that actually belong to the crystal
    this never fires, which is exactly the classification statement the
    oracle checks.
    """
    # LSPath keeps its direction keys strictly decreasing, and x_k has
    # key k >= 0 while y_k has key -k < 0, so the run mixes families
    # exactly when its end keys differ in sign, and a one-family run is
    # consecutive exactly when its end keys are s - 1 apart
    keys = pi.keys
    s = len(keys)
    first, last = keys[0], keys[-1]
    if (first >= 0) != (last >= 0):
        raise ValueError(f"directions mix families: {pi}")
    if first - last != s - 1:
        raise ValueError(f"direction indices are not consecutive: {pi}")
    # form ii here has m = -last >= s, so it is neither the straight
    # path nor a run from y_0
    if last >= 0:
        return ExplicitPath._from_valid(FORM_I, last, pi.nums)
    return ExplicitPath._from_valid(FORM_II, -last, pi.nums)


def _heights(ep: ExplicitPath, slopes: tuple[int, ...], jumps: tuple[int, ...]) -> list[int]:
    """D*H_i at sigma_0..sigma_s, D the path's denominator.

    D*H_i(sigma_u) = n_u c_u - sum_{j<u} n_j (c_{j+1} - c_j), from the
    module docstring.  The caller has passed ep through _on_grid: off
    its grid the integer N_u of the closed form does not exist.
    """
    nums = ep.nums
    heights = [0]
    below = 0  # -D*N_u
    for n, c, jump in zip(nums[1:], slopes, jumps):
        heights.append(n * c - below)
        below += n * jump
    heights.append(nums[-1] * slopes[-1] - below)
    return heights


def _straight(w: WeylElement) -> ExplicitPath:
    form = FORM_I if w.family == X else FORM_II
    return ExplicitPath(form, w.m, 1, nums=(0, 1))


def _check_index(i: int):
    if i not in (1, 2):
        raise ValueError(f"simple root index must be 1 or 2, got {i}")


def _profile(ep: ExplicitPath, i: int, gcm: GCM) -> tuple[list[int], tuple[int, ...]]:
    """D*H_i at sigma_0..sigma_s and the slopes of H_i: the one height
    profile that f_i and e_i both read."""
    _require_deep(gcm)
    _check_index(i)
    _on_grid(ep, gcm)
    table = _shape_table(gcm, ep.form, ep.m, len(ep.nums) - 1)
    slopes = table.slopes[i - 1]
    return _heights(ep, slopes, table.jumps[i - 1]), slopes


def f_explicit(ep: ExplicitPath, i: int, gcm: GCM) -> ExplicitPath | None:
    """Lowering operator in closed form; null when H_i ends on its minimum.

    Both forms take the same branches and differ only in the sign of
    step.  Every returned path is revalidated, so a wrong branch here
    fails loudly instead of producing a malformed normal form; a
    breakpoint of ep off its grid raises ValueError.
    """
    return _lowered(ep, i, gcm, _profile(ep, i, gcm))


def e_explicit(ep: ExplicitPath, i: int, gcm: GCM) -> ExplicitPath | None:
    """Raising operator in closed form; null when H_i never dips below 0.

    Both forms take the same branches and differ only in the sign of
    step.  A breakpoint of ep off its grid raises ValueError.
    """
    return _raised(ep, i, gcm, _profile(ep, i, gcm))


def fe_explicit(ep: ExplicitPath, i: int, gcm: GCM) -> tuple[ExplicitPath | None, ExplicitPath | None]:
    """(f_explicit, e_explicit) of ep from one height profile."""
    profile = _profile(ep, i, gcm)
    return _lowered(ep, i, gcm, profile), _raised(ep, i, gcm, profile)


def _lowered(ep: ExplicitPath, i: int, gcm: GCM, profile: tuple[list[int], tuple[int, ...]]) -> ExplicitPath | None:
    """f_i of ep from its _profile: u0 is the last breakpoint where H_i
    is lowest."""
    heights, slopes = profile
    u0 = len(heights) - 1 - heights[::-1].index(min(heights))
    form, m, nums = ep.form, ep.m, ep.nums
    s = len(nums) - 1
    den = nums[-1]
    # m moves by step when the last piece, x_m or y_m, is used up
    step = 1 if form == FORM_I else -1
    if u0 == s:
        return None
    # H_i climbs one level on piece u0 + 1 in time 1/c: the moved
    # breakpoint sigma_u0 + 1/c has numerator n_u0 * k + D/g over D * k,
    # where g = gcd(c, D) and k = c/g is all that D has to grow by
    c = abs(slopes[u0])
    g = gcd(c, den)
    k = c // g
    new = nums[u0] * k + den // g
    fits = new < nums[u0 + 1] * k
    if u0 == 0 and fits:
        # a new first piece, up to sigma_1 = 1/c
        grown = (0, new, *[n * k for n in nums[1:]])
        return _on_grid(ExplicitPath(form, m, s + 1, nums=grown), gcm)
    if u0 == 0:
        return _straight(ep.directions()[-1].reflected(i))
    if fits:
        return _on_grid(ExplicitPath(form, m, s, nums=_scaled(nums, k, u0, new)), gcm)
    return _on_grid(ExplicitPath(form, m + step, s - 1, nums=nums[: s - 1] + (den,)), gcm)


def _raised(ep: ExplicitPath, i: int, gcm: GCM, profile: tuple[list[int], tuple[int, ...]]) -> ExplicitPath | None:
    """e_i of ep from its _profile: u1 is the first breakpoint where H_i
    is lowest."""
    heights, slopes = profile
    u1 = heights.index(min(heights))
    form, m, nums = ep.form, ep.m, ep.nums
    s = len(nums) - 1
    den = nums[-1]
    # m moves by -step when a piece is added after the last one, x_m or y_m
    step = 1 if form == FORM_I else -1
    if u1 == 0:
        return None
    # H_i falls one level on piece u1 in time 1/c: the moved breakpoint
    # sigma_u1 - 1/c has numerator n_u1 * k - D/g over D * k, where
    # g = gcd(c, D) and k = c/g is all that D has to grow by
    c = abs(slopes[u1 - 1])
    g = gcd(c, den)
    k = c // g
    new = nums[u1] * k - den // g
    fits = nums[u1 - 1] * k < new
    if u1 == s and fits:
        # a new last piece, from sigma_s = 1 - 1/c
        grown = (*[n * k for n in nums[:s]], new, den * k)
        return _on_grid(ExplicitPath(form, m - step, s + 1, nums=grown), gcm)
    if u1 == s:
        return _straight(ep.directions()[-1].reflected(i))
    if fits:
        return _on_grid(ExplicitPath(form, m, s, nums=_scaled(nums, k, u1, new)), gcm)
    return _on_grid(ExplicitPath(form, m, s - 1, nums=(0,) + nums[2:]), gcm)


def _scaled(nums: tuple[int, ...], k: int, u: int, new: int) -> tuple[int, ...]:
    """nums times k, with entry u replaced by new."""
    if k == 1:
        return (*nums[:u], new, *nums[u + 1 :])
    out = [n * k for n in nums]
    out[u] = new
    return tuple(out)


def enumerate_explicit(gcm: GCM, m_max: int, s_max: int) -> set[ExplicitPath]:
    """All valid normal forms with m <= m_max and s <= s_max."""
    return set(normal_forms_by_shape(gcm, m_max, s_max))


def normal_forms_by_shape(
    gcm: GCM, m_max: int, s_max: int, k: int = 0, n: int = 1
) -> Iterator[ExplicitPath]:
    """The normal forms of enumerate_explicit, shape by shape: m from 0
    up, then s from 1 up, form i before form ii (which needs m >= s).

    With n > 1 only the forms at positions k, k + n, k + 2n, ... of that
    order are yielded, and only those are built.
    """
    shapes = (
        (form, m, s)
        for m in range(m_max + 1)
        for s in range(1, s_max + 1)
        for form in ((FORM_I, FORM_II) if m >= s else (FORM_I,))
    )
    return normal_forms_of_shapes(gcm, shapes, k, n)


def normal_forms_of_shapes(
    gcm: GCM, shapes: Iterable[tuple[str, int, int]], k: int = 0, n: int = 1
) -> Iterator[ExplicitPath]:
    """Every valid normal form of the shapes (form, m, s), shape by shape
    in the order given; with n > 1 only the forms at positions k, k + n,
    k + 2n, ... of that order, and only those are built.

    Breakpoints are generated as exact multiples of the integrality
    denominators, so every candidate is valid by construction; a
    denominator of 1 (p_1, q_1, and q_2 when a = 2) simply contributes
    no interior breakpoint choices.
    """
    _require_deep(gcm)
    candidates = (
        (shape, nums) for shape in shapes for nums in _interior_choices(_shape_table(gcm, *shape).grid)
    )
    for (form, m, s), nums in islice(candidates, k, None, n):
        yield _on_grid(ExplicitPath(form, m, s, nums=nums), gcm)


def _interior_choices(dens: tuple[int, ...]):
    """All increasing (0, n_1, ..., n_k, D) over D = lcm(dens) with n_u/D
    a multiple of 1/dens[u-1]: the breakpoints as ints, not reduced."""
    den = lcm(*dens)
    steps = [den // d for d in dens]

    def extend(prefix: tuple[int, ...], u: int):
        if u == len(dens):
            yield prefix + (den,)
            return
        step = steps[u]
        for n in range((prefix[-1] // step + 1) * step, den, step):
            yield from extend(prefix + (n,), u + 1)

    yield from extend((0,), 0)
