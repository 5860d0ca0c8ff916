"""The infinite dihedral Weyl group acting on the orbit of L1 - L2.

Elements are words alternating in the two simple reflections and are
written x_m (word ending in r_1 on the right) or y_m (ending in r_2),
with x_0 = y_0 the identity.  The orbit of L1 - L2 is a single chain in
the induced order,

    ... > x_2.L > x_1.L > L > y_1.L > y_2.L > ...,

and the integer sequences p_m, q_m below give every orbit weight in
closed form: orbit_weight(w, gcm) is the Weight of w applied to L1 - L2.
Positive real roots are carried together with a Weyl witness w(alpha_i)
so coroot pairings need no bilinear form; positive_roots_weyl lists
them by witness, and the oracle's chain search takes its roots from it.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import GCM, Frozen, Weight, pairing, simple_reflect, slot_setters

X = "x"
Y = "y"


class WeylElement(Frozen):
    """x_m or y_m in canonical form (m = 0 is always stored as family x)."""

    __slots__ = ("family", "m", "_hash")

    def __init__(self, family: str, m: int):
        if family not in (X, Y):
            raise ValueError(f"family must be {X!r} or {Y!r}, got {family!r}")
        if type(m) is not int:  # bool is an int subclass
            raise TypeError(f"length must be an integer, got {m!r}")
        if m < 0:
            raise ValueError(f"length must be a nonnegative integer, got {m!r}")
        if m == 0 and family != X:
            family = X
        _set_family(self, family)
        _set_m(self, m)
        _set_element_hash(self, hash((family, m)))

    def __hash__(self):
        return self._hash

    @property
    def is_identity(self) -> bool:
        return self.m == 0

    def letters(self) -> tuple[int, ...]:
        """Simple-reflection indices of the word, rightmost (applied first) first."""
        first = 1 if self.family == X else 2
        return tuple(first if k % 2 == 0 else 3 - first for k in range(self.m))

    def inverse(self) -> "WeylElement":
        # reversing the word flips the family exactly when m is even
        if self.m % 2 == 0 and self.m > 0:
            return WeylElement(X if self.family == Y else Y, self.m)
        return self

    @property
    def order_key(self) -> int:
        """Position in the linear order on the orbit: x_m -> +m, y_m -> -m."""
        return self.m if self.family == X else -self.m

    @property
    def descent_index(self) -> int:
        """The i with r_i moving this element one step toward the identity.

        Only defined away from the identity: the reflection r_i sends
        x_m.L to x_{m-1}.L for i = 2 (m even) or 1 (m odd), and y_m.L
        to y_{m-1}.L for i = 1 (m even) or 2 (m odd).
        """
        if self.is_identity:
            raise ValueError("the identity has no descent")
        if self.family == X:
            return 2 if self.m % 2 == 0 else 1
        return 1 if self.m % 2 == 0 else 2

    def reflected(self, i: int) -> "WeylElement":
        """The element whose orbit weight is r_i applied to this one's.

        Every orbit element has exactly two neighbours in the Hasse
        chain, one per simple reflection; this steps to the neighbour
        for r_i.
        """
        if i not in (1, 2):
            raise ValueError(f"simple root index must be 1 or 2, got {i}")
        if self.is_identity:
            return x(1) if i == 1 else y(1)
        if i == self.descent_index:
            return WeylElement(self.family, self.m - 1)
        return WeylElement(self.family, self.m + 1)

    def __str__(self):
        return f"{self.family}{self.m}"

    def to_json(self) -> dict:
        return {"family": self.family, "m": self.m}

    @classmethod
    def from_json(cls, data: dict) -> "WeylElement":
        family = data["family"]
        m = data["m"]
        if family not in (X, Y):
            raise ValueError(f"not a Weyl element: {data!r}")
        return cls(family, m)


_set_family, _set_m, _set_element_hash = slot_setters(WeylElement)


def x(m: int) -> WeylElement:
    return WeylElement(X, m)


def y(m: int) -> WeylElement:
    return WeylElement(Y, m)


IDENTITY = x(0)


class _ByOrderKey(dict):
    def __missing__(self, key: int) -> WeylElement:
        w = self[key] = x(key) if key >= 0 else y(-key)
        return w


# order key -> its element, each built once: paths store their directions
# as order keys and read the elements back through this table
BY_ORDER_KEY = _ByOrderKey()


def apply_weyl(w: WeylElement, mu: Weight, gcm: GCM) -> Weight:
    """Apply w letter by letter, rightmost factor first."""
    for i in w.letters():
        mu = simple_reflect(i, mu, gcm)
    return mu


class PQTable(Frozen):
    """p_0..p_n and q_0..q_n.

    p_0 = p_1 = 1 and p_{m+2} = b p_{m+1} - p_m for even m,
    a p_{m+1} - p_m for odd m; q is the same with a and b swapped.
    For a, b >= 2 both sequences are coprime in consecutive pairs and
    strictly increasing from index 2 on.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: tuple[int, ...], q: tuple[int, ...]):
        _set_p(self, p)
        _set_q(self, q)


_set_p, _set_q = slot_setters(PQTable)


@lru_cache(maxsize=None)
def pq_table(gcm: GCM, n: int) -> PQTable:
    if n < 1:
        raise ValueError(f"table length must be at least 1, got n={n}")
    p = [1, 1]
    q = [1, 1]
    for m in range(n - 1):
        if m % 2 == 0:
            p.append(gcm.b * p[-1] - p[-2])
            q.append(gcm.a * q[-1] - q[-2])
        else:
            p.append(gcm.a * p[-1] - p[-2])
            q.append(gcm.b * q[-1] - q[-2])
    return PQTable(tuple(p[: n + 1]), tuple(q[: n + 1]))


@lru_cache(maxsize=None)
def orbit_weight(w: WeylElement, gcm: GCM) -> Weight:
    """Closed-form weight of w applied to L1 - L2.

    x_m.L = p_{m+1} L1 - p_m L2 for even m and -p_m L1 + p_{m+1} L2 for
    odd m; the y family mirrors this with q and the coordinates swapped.
    Agrees with apply_weyl(w, LAMBDA, gcm) (tested, not recomputed here).
    """
    m = w.m
    t = pq_table(gcm, m + 1)
    if w.family == X:
        return Weight(t.p[m + 1], -t.p[m]) if m % 2 == 0 else Weight(-t.p[m], t.p[m + 1])
    return Weight(t.q[m], -t.q[m + 1]) if m % 2 == 0 else Weight(-t.q[m + 1], t.q[m])


# ---------------------------------------------------------------------------
# positive real roots


class PositiveRoot(Frozen):
    """A positive real root w(alpha_i), stored with the witness (w, i).

    coords = (c, d) are the coefficients on alpha_1, alpha_2.  The
    witness makes the coroot pairing exact: <mu, beta^vee> =
    <w^{-1} mu, alpha_i^vee>.
    """

    __slots__ = ("witness", "index", "coords")

    def __init__(self, witness: WeylElement, index: int, coords: tuple[int, int]):
        _set_witness(self, witness)
        _set_index(self, index)
        _set_coords(self, coords)

    def __str__(self):
        return f"{self.witness}(a{self.index})={self.coords}"


_set_witness, _set_index, _set_coords = slot_setters(PositiveRoot)


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
    c0, d0 = (1, 0) if i == 1 else (0, 1)
    return _checked_root(w, i, *_act_on_root_coords(w, c0, d0, gcm))


def _checked_root(w: WeylElement, i: int, c: int, d: int) -> PositiveRoot:
    if (c, d) == (0, 0) or c < 0 or d < 0:
        raise ValueError(f"{w}(alpha_{i}) is not a positive root: coords ({c}, {d})")
    return PositiveRoot(w, i, (c, d))


def root_as_weight(coords: tuple[int, int], gcm: GCM) -> Weight:
    """c alpha_1 + d alpha_2 expanded in the fundamental-weight basis."""
    c, d = coords
    return Weight(2 * c - gcm.a * d, 2 * d - gcm.b * c)


def root_pairing(mu: Weight, beta: PositiveRoot, gcm: GCM):
    """<mu, beta^vee>, pulled back along the witness."""
    return pairing(apply_weyl(beta.witness.inverse(), mu, gcm), beta.index)


def reflect_by_root(mu: Weight, beta: PositiveRoot, gcm: GCM) -> Weight:
    """r_beta(mu) = mu - <mu, beta^vee> beta."""
    return mu - root_pairing(mu, beta, gcm) * root_as_weight(beta.coords, gcm)


def positive_roots_weyl(gcm: GCM, n: int) -> list[PositiveRoot]:
    """First 2n roots from each of the two root families.

    One family is {x_l(alpha_2), y_{l+1}(alpha_1)} and the other
    {y_l(alpha_1), x_{l+1}(alpha_2)}, both over even l; together these
    are all x_l(alpha_2) and y_l(alpha_1), without duplicates.  Each
    root is one simple reflection, by the new leftmost letter, away
    from the root before it on its walk, so the list costs O(n) steps;
    positive_root builds a root letter by letter.
    """
    xs = _roots_along(X, 2, gcm, 2 * n)
    ys = _roots_along(Y, 1, gcm, 2 * n)
    roots = []
    for l in range(0, 2 * n, 2):
        roots += (xs[l], ys[l + 1])
    for l in range(0, 2 * n, 2):
        roots += (ys[l], xs[l + 1])
    return roots


def _roots_along(family: str, i: int, gcm: GCM, count: int) -> list[PositiveRoot]:
    """w(alpha_i) for the elements w of one family with lengths 0..count-1,
    each one reflection, by w's leftmost letter, from the one before."""
    c, d = (1, 0) if i == 1 else (0, 1)
    letters = WeylElement(family, count).letters()
    roots = []
    for l in range(count):
        roots.append(_checked_root(WeylElement(family, l), i, c, d))
        if letters[l] == 1:
            c = gcm.a * d - c
        else:
            d = gcm.b * c - d
    return roots


def positive_roots_recurrence(gcm: GCM, n: int) -> list[tuple[int, int]]:
    """Root coordinates {(c_j, d_{j+1}), (c_{j+1}, d_j)} for 0 <= j < n.

    c_0 = d_0 = 0, c_1 = d_1 = 1, c_{k+1} = a d_k - c_{k-1} and
    d_{k+1} = b c_k - d_{k-1}.
    """
    c, d = [0, 1], [0, 1]
    for _ in range(n - 1):
        c_next, d_next = gcm.a * d[-1] - c[-2], gcm.b * c[-1] - d[-2]
        c.append(c_next)
        d.append(d_next)
    out = []
    for j in range(n):
        out.append((c[j], d[j + 1]))
        out.append((c[j + 1], d[j]))
    return out


# ---------------------------------------------------------------------------
# the Hasse chain


class HasseNeighbors(Frozen):
    """Both neighbours of an orbit element, each with its edge label.

    The chain is infinite in both directions, so neither side is ever
    missing.  The label i on an edge means the two endpoint weights are
    swapped by r_i.
    """

    __slots__ = ("up", "down")

    def __init__(self, up: tuple[WeylElement, int], down: tuple[WeylElement, int]):
        _set_up(self, up)
        _set_down(self, down)


_set_up, _set_down = slot_setters(HasseNeighbors)


def hasse_neighbors(w: WeylElement) -> HasseNeighbors:
    n1, n2 = w.reflected(1), w.reflected(2)
    if n1.order_key > w.order_key:
        return HasseNeighbors(up=(n1, 1), down=(n2, 2))
    return HasseNeighbors(up=(n2, 2), down=(n1, 1))


def window_elements(m_max: int) -> list[WeylElement]:
    """Orbit window [x_{m_max}, ..., x_1, identity, y_1, ..., y_{m_max}],
    listed from the top of the order down."""
    if m_max < 0:
        raise ValueError(f"window radius must be nonnegative, got {m_max}")
    tops = [x(m) for m in range(m_max, 0, -1)]
    bottoms = [y(m) for m in range(1, m_max + 1)]
    return tops + [IDENTITY] + bottoms
