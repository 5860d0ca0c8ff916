"""Normal forms for the crystal of shape L1 - L2 and closed-form operators.

For a, b >= 2 every path in the crystal is a run of consecutive
directions inside a single Weyl family: form i is
(x_{m+s-1}.L, ..., x_m.L) with breakpoint u a multiple of 1/p_{m+s-u},
and form ii is (y_{m-s+1}.L, ..., y_m.L) with breakpoint u a multiple
of 1/q_{m-s+u+1}.  The operators below move (m, s, sigmas) around by
closed formulas built on the p/q tables and never consult the
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
one breakpoint times one slope, the minimum search cross-multiplies
small ints, and a Fraction is built only for a breakpoint that a
returned path stores.

The straight path through the identity is spelled form i with m = 0;
a form ii spelling of it normalizes to that in the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import GCM, breakpoints, rationals_from_json
from .paths import LSPath
from .weyl import PQTable, WeylElement, X, pq_table, x, y

FORM_I = "i"
FORM_II = "ii"

ZERO = Fraction(0)
ONE = Fraction(1)


def xi(k: int) -> int:
    return 1 if k % 2 == 0 else 0


@dataclass(frozen=True)
class ExplicitPath:
    """One normal form: family, top index data (m, s), breakpoints.

    The constructor checks everything that does not need the matrix
    (types, shapes, monotonicity, m >= s for form ii except the straight
    path m = 0, s = 1); breakpoint integrality does need it and lives in
    validate_explicit.
    """

    form: str
    m: int
    s: int
    sigmas: tuple[Fraction, ...]

    def __post_init__(self):
        if self.form not in (FORM_I, FORM_II):
            raise ValueError(f"form must be {FORM_I!r} or {FORM_II!r}, got {self.form!r}")
        if type(self.m) is not int:  # bool is an int subclass
            raise TypeError(f"m must be an integer, got {self.m!r}")
        if self.m < 0:
            raise ValueError(f"m must be a nonnegative integer, got {self.m!r}")
        if type(self.s) is not int:
            raise TypeError(f"s must be an integer, got {self.s!r}")
        if self.s < 1:
            raise ValueError(f"s must be a positive integer, got {self.s!r}")
        if len(self.sigmas) != self.s + 1:
            raise ValueError(f"s = {self.s} needs {self.s + 1} breakpoints, got {len(self.sigmas)}")
        object.__setattr__(self, "sigmas", breakpoints(self.sigmas))
        if self.form == FORM_II:
            if self.m < self.s - 1:
                raise ValueError(f"form ii needs m >= s - 1, got m = {self.m}, s = {self.s}")
            if self.m == self.s - 1 > 0:
                # the first direction would be y_0 = x_0, which only the
                # straight path holds
                raise ValueError(
                    f"form ii with m = s - 1 starts at the identity y_0, got m = {self.m}, s = {self.s}"
                )
            if self.m == 0:
                # the straight identity path; canonical spelling is form i
                object.__setattr__(self, "form", FORM_I)

    def directions(self) -> tuple[WeylElement, ...]:
        if self.form == FORM_I:
            return tuple(x(self.m + self.s - j) for j in range(1, self.s + 1))
        return tuple(y(self.m - self.s + j) for j in range(1, self.s + 1))

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


def _require_deep(gcm: GCM):
    if gcm.boundary:
        raise ValueError(f"normal forms need a >= 2 and b >= 2, got ({gcm.a}, {gcm.b})")


def _grid(form: str, m: int, s: int, table: PQTable) -> tuple[int, ...]:
    """Integrality denominators of breakpoints 1..s-1: p_{m+s-u} or q_{m-s+u+1}."""
    if form == FORM_I:
        return table.p[m + s - 1 : m : -1]
    return table.q[m - s + 2 : m + 1]


def _off_grid(ep: ExplicitPath, u: int, den: int) -> ValueError:
    name = f"p_{ep.m + ep.s - u}" if ep.form == FORM_I else f"q_{ep.m - ep.s + u + 1}"
    return ValueError(f"breakpoint {u} = {ep.sigmas[u]} is not a multiple of 1/{name} = 1/{den}")


def validate_explicit(form: str, m: int, s: int, sigmas, gcm: GCM) -> ExplicitPath:
    """Build a fully checked path: shape first, then breakpoint integrality."""
    _require_deep(gcm)
    ep = ExplicitPath(form, m, s, sigmas)
    for u, den in enumerate(_grid(ep.form, ep.m, ep.s, pq_table(gcm, ep.m + ep.s)), 1):
        if den % ep.sigmas[u].denominator:
            raise _off_grid(ep, u, den)
    return ep


def to_ls_path(ep: ExplicitPath) -> LSPath:
    return LSPath(ep.directions(), ep.sigmas)


def from_ls_path(pi: LSPath) -> ExplicitPath:
    """Read (form, m, s) off a consecutive one-family direction run.

    Rejects anything else; on paths that actually belong to the crystal
    this never fires, which is exactly the classification statement the
    oracle checks.
    """
    # LSPath keeps its directions strictly decreasing and every x_k lies
    # above every y_l, so the run mixes families exactly when its ends
    # differ, and a one-family run is consecutive exactly when its ends
    # are s - 1 apart
    s = len(pi.dirs)
    first, last = pi.dirs[0], pi.dirs[-1]
    if first.family != last.family:
        raise ValueError(f"directions mix families: {pi}")
    m = last.m
    if first.family == X:
        if first.m != m + s - 1:
            raise ValueError(f"direction indices are not consecutive: {pi}")
        return ExplicitPath(FORM_I, m, s, pi.times)
    if first.m != m - s + 1:
        raise ValueError(f"direction indices are not consecutive: {pi}")
    return ExplicitPath(FORM_II, m, s, pi.times)


def _slopes(ep: ExplicitPath, i: int, table: PQTable) -> list[int]:
    """<direction of piece j, alpha_i^vee> for j = 1..s, from the p/q tables.

    Piece j is x_k with k = m + s - j on form i and y_k with
    k = m - s + j on form ii.
    """
    m, s = ep.m, ep.s
    if ep.form == FORM_I:
        p = table.p
        if i == 1:
            return [(-1) ** k * p[k + xi(k)] for k in range(m + s - 1, m - 1, -1)]
        return [(-1) ** (k + 1) * p[k + xi(k + 1)] for k in range(m + s - 1, m - 1, -1)]
    q = table.q
    if i == 1:
        return [(-1) ** k * q[k + xi(k + 1)] for k in range(m - s + 1, m + 1)]
    return [(-1) ** (k + 1) * q[k + xi(k)] for k in range(m - s + 1, m + 1)]


def _heights(ep: ExplicitPath, slopes: list[int], grid: tuple[int, ...]) -> list[tuple[int, int]]:
    """H_i at sigma_0..sigma_s as (numerator, positive denominator) pairs.

    Uses H_i(sigma_u) = N_u + sigma_u c_u from the module docstring.
    sigma_u = n/d with d dividing its grid denominator, which divides
    the slope jump there, so N_u stays an integer.  A breakpoint off its
    grid raises ValueError.
    """
    heights = [(0, 1)]
    whole = 0
    for u in range(1, ep.s):
        t = ep.sigmas[u]
        n, d = t.numerator, t.denominator
        if grid[u - 1] % d:
            raise _off_grid(ep, u, grid[u - 1])
        c = slopes[u - 1]
        heights.append((whole * d + n * c, d))
        whole -= n * ((slopes[u] - c) // d)
    heights.append((whole + slopes[-1], 1))
    return heights


def partial_sums(ep: ExplicitPath, gcm: GCM) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(H_1, H_2) at sigma_0..sigma_s from the closed-form int heights.

    The last entries are the weight coordinates.  A breakpoint off its
    grid raises ValueError.
    """
    table = pq_table(gcm, ep.m + ep.s)
    grid = _grid(ep.form, ep.m, ep.s, table)
    h1, h2 = (
        tuple(Fraction(n, d) for n, d in _heights(ep, _slopes(ep, i, table), grid))
        for i in (1, 2)
    )
    return h1, h2


def _straight(w: WeylElement) -> ExplicitPath:
    form = FORM_I if w.family == X else FORM_II
    return ExplicitPath(form, w.m, 1, (ZERO, ONE))


def _check_index(i: int):
    if i not in (1, 2):
        raise ValueError(f"simple root index must be 1 or 2, got {i}")


def _search(ep: ExplicitPath, i: int, gcm: GCM, last: bool) -> tuple[int, list[int]]:
    """The first (or last) breakpoint where H_i is lowest, and the slopes."""
    _require_deep(gcm)
    _check_index(i)
    table = pq_table(gcm, ep.m + ep.s)
    slopes = _slopes(ep, i, table)
    heights = _heights(ep, slopes, _grid(ep.form, ep.m, ep.s, table))
    best, (bn, bd) = 0, heights[0]
    for u in range(1, len(heights)):
        n, d = heights[u]
        lhs, rhs = n * bd, bn * d
        if lhs < rhs or last and lhs == rhs:
            best, bn, bd = u, n, d
    return best, slopes


def f_explicit(ep: ExplicitPath, i: int, gcm: GCM) -> ExplicitPath | None:
    """Lowering operator in closed form; null when H_i ends on its minimum.

    Both forms take the same branches and differ only in the sign of
    step.  Every returned path is revalidated, so a wrong branch here
    fails loudly instead of producing a malformed normal form; a
    breakpoint of ep off its grid raises ValueError.
    """
    u0, slopes = _search(ep, i, gcm, last=True)
    form, m, s, sig = ep.form, ep.m, ep.s, ep.sigmas
    # m moves by step when the last piece, x_m or y_m, is used up
    step = 1 if form == FORM_I else -1
    if u0 == s:
        return None
    # H_i climbs one level on piece u0 + 1 in time 1/den; new = sig[u0] + 1/den
    den = abs(slopes[u0])
    t, nxt = sig[u0], sig[u0 + 1]
    num, dd = t.numerator * den + t.denominator, t.denominator * den
    new = Fraction(num, dd) if num * nxt.denominator < nxt.numerator * dd else None
    if u0 == 0 and new is not None:
        return validate_explicit(form, m, s + 1, (ZERO, new) + sig[1:], gcm)
    if u0 == 0:
        return _straight(ep.directions()[-1].reflected(i))
    if new is not None:
        return validate_explicit(form, m, s, sig[:u0] + (new,) + sig[u0 + 1 :], gcm)
    return validate_explicit(form, m + step, s - 1, sig[: s - 1] + (ONE,), gcm)


def e_explicit(ep: ExplicitPath, i: int, gcm: GCM) -> ExplicitPath | None:
    """Raising operator in closed form; null when H_i never dips below 0.

    Both forms take the same branches and differ only in the sign of
    step.  A breakpoint of ep off its grid raises ValueError.
    """
    u1, slopes = _search(ep, i, gcm, last=False)
    form, m, s, sig = ep.form, ep.m, ep.s, ep.sigmas
    # m moves by -step when a piece is added after the last one, x_m or y_m
    step = 1 if form == FORM_I else -1
    if u1 == 0:
        return None
    # H_i falls one level on piece u1 in time 1/den; new = sig[u1] - 1/den
    den = abs(slopes[u1 - 1])
    t, prev = sig[u1], sig[u1 - 1]
    num, dd = t.numerator * den - t.denominator, t.denominator * den
    new = Fraction(num, dd) if prev.numerator * dd < num * prev.denominator else None
    if u1 == s and new is not None:
        return validate_explicit(form, m - step, s + 1, sig[:s] + (new, ONE), gcm)
    if u1 == s:
        return _straight(ep.directions()[-1].reflected(i))
    if new is not None:
        return validate_explicit(form, m, s, sig[:u1] + (new,) + sig[u1 + 1 :], gcm)
    return validate_explicit(form, m, s - 1, (ZERO,) + sig[2:], gcm)


def enumerate_explicit(gcm: GCM, m_max: int, s_max: int) -> set[ExplicitPath]:
    """All valid normal forms with m <= m_max and s <= s_max.

    Breakpoints are generated as exact multiples of the integrality
    denominators, so every candidate is valid by construction; a
    denominator of 1 (p_1, q_1, and q_2 when a = 2) simply contributes
    no interior breakpoint choices.
    """
    _require_deep(gcm)
    found: set[ExplicitPath] = set()
    table = pq_table(gcm, m_max + s_max)
    for m in range(m_max + 1):
        for s in range(1, s_max + 1):
            for form in (FORM_I, FORM_II) if m >= s else (FORM_I,):
                for sig in _interior_choices(_grid(form, m, s, table)):
                    found.add(validate_explicit(form, m, s, sig, gcm))
    return found


def _interior_choices(dens: tuple[int, ...]):
    """All (0, t_1, ..., t_k, 1) with t_u a multiple of 1/dens[u-1], increasing.

    The walk runs over integer numerators; each grid point j/dens[u] is
    made a Fraction once per call and shared by every tuple holding it.
    """
    points = [[Fraction(j, den) for j in range(den)] for den in dens]

    def extend(prefix: tuple[Fraction, ...], u: int, num: int, den: int):
        # the last breakpoint of prefix is num/den
        if u == len(dens):
            yield prefix + (ONE,)
            return
        d = dens[u]
        for j in range(num * d // den + 1, d):
            yield from extend(prefix + (points[u][j],), u + 1, j, d)

    yield from extend((ZERO,), 0, 0, 1)
