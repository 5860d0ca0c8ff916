"""Exact arithmetic for the rank-2 hyperbolic Cartan datum.

Weights are written in the basis of fundamental weights, so the pair
(c1, c2) stands for c1*L1 + c2*L2 and pairing with a simple coroot just
reads off a coordinate.  Everything is exact (int / Fraction); floats
never appear.

Both path classes store their breakpoints 0 = t_0 < ... < t_s = 1 as
ints: the numerators n_u = t_u * D over the least common denominator D,
which is the last numerator, so gcd(D, *numerators) = 1 and equal
breakpoints have equal numerators.  breakpoint_ints and
reduced_breakpoint_ints below make and check that form.

The package's immutable value classes (the matrix, weights, Weyl
elements, the p/q tables, roots, both path classes, search bounds and
reports) derive from Frozen below, a __slots__ base in place of
@dataclass(frozen=True).  Frozen compiles every class's field stores
from its slots, so no module writes to a slot by hand except
explicit._on_grid, which fills the one cache slot.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import lt

DOMINANT = "dominant"
ANTIDOMINANT = "antidominant"
NEITHER = "neither"


def _frozen_error(message: str) -> Exception:
    # dataclasses (with inspect, ast and dis behind it) is imported only
    # when the error is raised
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in __slots__, in constructor order;
    slots whose names start with an underscore hold derived values (a
    cache) and are not fields.  The base compiles, per class and as
    @dataclass does, one store over the slots: cls._store(self, *fields)
    puts each field, and None in each underscore slot, through the
    slot's member descriptor setter, which skips __setattr__.  A class
    that only stores its fields defines no __init__ and gets the store
    as its constructor; a class that validates writes its own __init__,
    which ends in one self._store(...) call.  cls._from_valid(*fields)
    is the store on a new instance, without the constructor's checks,
    for a caller whose data already holds the class's invariant.  From
    the fields, the base gives what @dataclass(frozen=True) gave:

    - repr "Name(field=value, ...)";
    - == between two instances of one class, field by field, and
      NotImplemented against anything else;
    - hash(field tuple), so sets and dicts keep their order;
    - dataclasses.FrozenInstanceError on assignment or deletion of any
      attribute;
    - pickle and copy through __reduce__, which calls the class with
      the field values, so a copy passes its constructor's checks;
    - __match_args__, the fields, for class patterns.

    A subclass may override any of these (both path classes print and
    pickle their derived form, Weight prints its bare coordinates).
    dataclasses.fields, is_dataclass, asdict and replace do not apply.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # compiled now, not on first call, so that its signature names
        # the fields, as the dataclass constructor's did
        if "__init__" not in vars(cls):
            _install(cls, "__init__", _FIELD_METHOD_SOURCE["_store"])
        # the rest are compiled per class on first use.  A class's own stay.
        for name in _FIELD_METHOD_SOURCE:
            if name not in vars(cls):
                setattr(cls, name, _compiled_on_first_call(cls, name))

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self):
        pairs = zip(self.__match_args__, self._field_values())
        return f"{self.__class__.__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def __reduce__(self):
        return self.__class__, self._field_values()

    def __setattr__(self, name, value):
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen_error(f"cannot delete field {name!r}")


# method templates over one class: {fields} its field names, {self} and
# {other} its field tuples on self and other, {stores} a setter call per
# slot.  _from_valid takes named parameters, not *fields, which would
# cost a tuple per call on the path conversions.
_FIELD_METHOD_SOURCE = {
    "__eq__": (
        "def __eq__(self, other):\n"
        "    if other.__class__ is not self.__class__:\n"
        "        return NotImplemented\n"
        "    return {self} == {other}\n"
    ),
    "__hash__": "def __hash__(self):\n    return hash({self})\n",
    "_store": "def {name}(self, {fields}):\n{stores}",
    "_from_valid": "def {name}(cls, {fields}):\n    self = _new(cls)\n{stores}    return self\n",
}


def _install(cls: type, name: str, template: str):
    """Compile template over cls's slots as the function name, and put
    it on cls as its method name (a classmethod for _from_valid)."""
    fields = cls.__match_args__

    def values(obj: str) -> str:
        return "(" + "".join(f"{obj}.{field}, " for field in fields) + ")"

    stores = "".join(
        f"    _set_{slot}(self, {slot if slot in fields else None})\n" for slot in cls.__slots__
    )
    source = template.format(
        name=name, fields=", ".join(fields), self=values("self"), other=values("other"), stores=stores
    )
    namespace = {f"_set_{slot}": vars(cls)[slot].__set__ for slot in cls.__slots__}
    namespace["_new"] = object.__new__
    exec(source, namespace)
    method = namespace[name]
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    setattr(cls, name, classmethod(method) if name == "_from_valid" else method)


def _compiled_on_first_call(cls: type, name: str):
    """A stand-in for cls's method name that, on its first call,
    compiles the method over cls's slots, puts it on cls in its own
    place and calls it.  A compile costs about 0.1 ms, so import pays
    none and a run only for the methods it uses."""

    def first_call(obj, *args):
        _install(cls, name, _FIELD_METHOD_SOURCE[name])
        return getattr(obj, name)(*args)

    return classmethod(first_call) if name == "_from_valid" else first_call


class GCM(Frozen):
    """Generalized Cartan matrix [[2, -a], [-b, 2]] with a*b > 4.

    a = 1 or b = 1 is allowed (still hyperbolic when the product
    exceeds 4) but makes parts of the orbit combinatorics degenerate;
    that state is exposed as `boundary` and callers that need
    a, b >= 2 must check it.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if type(a) is not int or type(b) is not int:  # bool is an int subclass
            raise TypeError("matrix entries must be integers")
        if a < 1 or b < 1:
            raise ValueError(f"need a >= 1 and b >= 1, got ({a}, {b})")
        if a * b <= 4:
            raise ValueError(f"not hyperbolic: a*b = {a * b} <= 4")
        self._store(a, b)

    @property
    def boundary(self) -> bool:
        """True when a = 1 or b = 1."""
        return self.a == 1 or self.b == 1


class Weight(Frozen):
    """A weight c1*L1 + c2*L2 with exact rational coordinates.

    Orbit weights (and anything a path evaluates to at t = 1) are
    integral; values at interior times are genuinely rational, so the
    coordinates are stored as Fractions throughout.
    """

    __slots__ = ("c1", "c2")

    def __init__(self, c1, c2):
        self._store(Fraction(c1), Fraction(c2))

    def __add__(self, other):
        return Weight(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other):
        return Weight(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self):
        return Weight(-self.c1, -self.c2)

    def __rmul__(self, scalar):
        return Weight(scalar * self.c1, scalar * self.c2)

    def __repr__(self):
        return f"Weight({self.c1}, {self.c2})"

    def __str__(self):
        c2 = self.c2
        sign = "+" if c2 >= 0 else "-"
        return f"{self.c1}L1 {sign} {abs(c2)}L2"


LAMBDA = Weight(1, -1)  # the fixed shape L1 - L2


def rationals_from_json(values) -> tuple[Fraction, ...]:
    """Exact rationals from a JSON list of fraction strings or integers.

    Floats are refused rather than read exactly (0.1 would become
    3602879701896397/36028797018963968), and so are booleans; a wrong
    type raises TypeError, a malformed string or a zero denominator
    ValueError.
    """
    if not isinstance(values, list):
        raise TypeError(f"breakpoints must be a list, got {values!r}")
    for t in values:
        if type(t) not in (str, int):  # bool is an int subclass
            raise TypeError(f"breakpoint must be a string or an integer, got {t!r}")
    return tuple([_breakpoint(t) for t in values])


# a breakpoint string in Fraction's decimal grammar with an exponent:
# the digits after the point, the exponent's sign and its digits.  Each
# repeat is bounded by the next token, so a match takes linear time.
_SCIENTIFIC = re.compile(r"\s*[-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.((?:\d+(?:_\d+)*)?))?[eE]([-+]?)(\d+(?:_\d+)*)\s*")


def _breakpoint(t) -> Fraction:
    """Fraction(t), with a zero denominator ("1/0") a ValueError.

    So is a decimal string with an exponent for which Fraction would
    build a power of ten with more digits than the int-to-string limit
    allows.  Fraction builds 10**|exponent| in full, and for a negative
    exponent a denominator of 10**(places - exponent), places the digits
    after the point; the limit never sees either, though it stops every
    other long digit string: "1e-30000000" cost a CLI run 41 s.  The
    limit is read, never set, and 0 means none.
    """
    limit = sys.get_int_max_str_digits()
    scientific = _SCIENTIFIC.fullmatch(t) if limit and isinstance(t, str) else None
    if scientific:
        places, sign, digits = scientific.groups()
        digits = digits.replace("_", "").lstrip("0")
        # 10**n has n + 1 digits; an exponent longer than the limit is past it
        exponent = int(sign + (digits or "0")) if len(digits) <= len(str(limit)) else limit
        if max(abs(exponent), len((places or "").replace("_", "")) - exponent) >= limit:
            raise ValueError(f"breakpoint {t!r} needs a power of ten with more than {limit} digits")
    try:
        return Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"breakpoint {t!r} has denominator 0") from None


def breakpoint_ints(times) -> tuple[int, ...]:
    """times as ints: the numerators n_u = t_u * D over their least
    common denominator D, which is the last entry (t_s = 1).

    times are Fractions, ints or decimal strings and must run strictly
    upward from 0 to 1; ValueError otherwise, also for a string with a
    zero denominator.  The caller checks the count first, so times has
    at least two entries.
    """
    if type(times) is not tuple or not all(type(t) is Fraction for t in times):
        times = tuple([_breakpoint(t) for t in times])
    den = lcm(*[t.denominator for t in times])
    nums = tuple([t.numerator * (den // t.denominator) for t in times])
    if nums[-1] != den:
        raise ValueError("breakpoints must run from 0 to 1")
    return reduced_breakpoint_ints(nums)


def reduced_breakpoint_ints(nums: tuple[int, ...]) -> tuple[int, ...]:
    """Breakpoints given as numerators over their last entry D, checked
    to run strictly upward from 0 and divided by their gcd, so that D is
    the least common denominator.

    Two paths are equal exactly when their reduced numerators are, so
    every path goes through here.
    """
    if nums[0] != 0:
        raise ValueError("breakpoints must run from 0 to 1")
    if not all(map(lt, nums, nums[1:])):
        den = nums[-1]
        times = tuple(Fraction(n, den) for n in nums) if den > 0 else nums
        raise ValueError(f"breakpoints not strictly increasing: {times}")
    g = gcd(*nums)
    if g == 1:
        # a tuple is returned as it is; a list is copied, so no path keeps it
        return tuple(nums)
    # tuples of path data are built from lists: CPython builds a tuple
    # from a generator at a guessed size and then resizes it, which
    # leaves blocks stranded in its per-size tuple free lists
    return tuple([n // g for n in nums])


def pairing(mu: Weight, i: int) -> Fraction:
    """<mu, alpha_i^vee>: coordinate i of mu in the fundamental basis."""
    if i == 1:
        return mu.c1
    if i == 2:
        return mu.c2
    raise ValueError(f"simple root index must be 1 or 2, got {i}")


def simple_root(i: int, gcm: GCM) -> Weight:
    """alpha_i in the fundamental-weight basis, forced by the GCM columns."""
    if i == 1:
        return Weight(2, -gcm.b)
    if i == 2:
        return Weight(-gcm.a, 2)
    raise ValueError(f"simple root index must be 1 or 2, got {i}")


def simple_reflect(i: int, mu: Weight, gcm: GCM) -> Weight:
    """r_i(mu) = mu - <mu, alpha_i^vee> alpha_i."""
    return mu - pairing(mu, i) * simple_root(i, gcm)


def dominance_class(mu: Weight) -> str:
    """dominant / antidominant / neither by the signs of the coordinates.

    The zero weight reports dominant; it never occurs on the orbit of
    L1 - L2.
    """
    if mu.c1 >= 0 and mu.c2 >= 0:
        return DOMINANT
    if mu.c1 <= 0 and mu.c2 <= 0:
        return ANTIDOMINANT
    return NEITHER
