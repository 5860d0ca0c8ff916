"""The value classes on cartan.Frozen behave as the frozen dataclasses
they replaced.

Each class is checked against a twin: the @dataclass(frozen=True) it
used to be, fields and validation as they were, defined here as the
reference.  The twin carries the real class's __qualname__, so the two
reprs can be compared as text.  Weight has no twin: it keeps its own
repr and str, so it is pinned on its own.  Every class whose source
defines no __init__, and so takes the constructor Frozen compiles from
its slots, has a twin; every other one stores through the compiled
_store, and every class's compiled _from_valid rebuilds its instances
from their fields.  Also pinned: importing the command line pulls in
none of dataclasses, inspect and typing.
"""

import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction as F
from pathlib import Path

import pytest

import lscrystal
from lscrystal.cartan import GCM, Frozen, Weight
from lscrystal.explicit import ExplicitPath, _ShapeTable, validate_explicit
from lscrystal.oracle import CheckResult, SearchBounds, VerificationReport
from lscrystal.paths import LSPath, PiecewiseLinear
from lscrystal.weyl import HasseNeighbors, PositiveRoot, PQTable, WeylElement, orbit_weight, x, y


@dataclass(frozen=True)
class GCMTwin:
    a: int
    b: int

    def __post_init__(self):
        if type(self.a) is not int or type(self.b) is not int:
            raise TypeError("matrix entries must be integers")
        if self.a < 1 or self.b < 1:
            raise ValueError(f"need a >= 1 and b >= 1, got ({self.a}, {self.b})")
        if self.a * self.b <= 4:
            raise ValueError(f"not hyperbolic: a*b = {self.a * self.b} <= 4")


@dataclass(frozen=True)
class WeylElementTwin:
    family: str
    m: int

    def __post_init__(self):
        if self.family not in ("x", "y"):
            raise ValueError(f"family must be 'x' or 'y', got {self.family!r}")
        if type(self.m) is not int:
            raise TypeError(f"length must be an integer, got {self.m!r}")
        if self.m < 0:
            raise ValueError(f"length must be a nonnegative integer, got {self.m!r}")
        if self.m == 0 and self.family != "x":
            object.__setattr__(self, "family", "x")


@dataclass(frozen=True)
class PQTableTwin:
    p: tuple
    q: tuple


@dataclass(frozen=True)
class PositiveRootTwin:
    witness: WeylElement
    index: int
    coords: tuple


@dataclass(frozen=True)
class HasseNeighborsTwin:
    up: tuple
    down: tuple


@dataclass(frozen=True)
class ShapeTableTwin:
    grid: tuple
    slopes: tuple
    jumps: tuple


@dataclass(frozen=True)
class PiecewiseLinearTwin:
    points: tuple


@dataclass(frozen=True)
class SearchBoundsTwin:
    m_max: int
    s_max: int

    def __post_init__(self):
        for name in ("m_max", "s_max"):
            if type(getattr(self, name)) is not int:
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.m_max < 0:
            raise ValueError(f"m_max must be nonnegative, got {self.m_max}")
        if self.s_max < 1:
            raise ValueError(f"s_max must be positive, got {self.s_max}")


@dataclass(frozen=True)
class CheckResultTwin:
    name: str
    checked: int
    counterexample: dict | None


@dataclass(frozen=True)
class VerificationReportTwin:
    results: tuple


PASS = CheckResult("weight-step", 12, None)
FAIL = CheckResult("bfs-coverage", 3, {"path": {"dirs": [], "sigmas": ["0", "1"]}})

# class, its twin, constructor calls (args, kwargs) that succeed, and
# calls that fail
CASES = {
    "GCM": (
        GCM,
        GCMTwin,
        [((3, 3), {}), ((2, 5), {}), ((1, 5), {}), ((), {"a": 5, "b": 1})],
        [((True, 5), {}), ((3.0, 3), {}), ((0, 5), {}), ((2, 2), {}), ((-1, -9), {}), (("3", 3), {})],
    ),
    "WeylElement": (
        WeylElement,
        WeylElementTwin,
        [(("x", 3), {}), (("y", 2), {}), (("y", 0), {}), ((), {"family": "x", "m": 0})],
        [(("z", 1), {}), (("x", True), {}), (("x", 1.0), {}), (("y", -1), {}), ((None, 1), {})],
    ),
    "PQTable": (
        PQTable,
        PQTableTwin,
        [(((1, 1, 2, 5), (1, 1, 2, 5)), {}), ((), {"p": (1, 1), "q": (1, 1)})],
        [(((1, 1),), {})],
    ),
    "PositiveRoot": (
        PositiveRoot,
        PositiveRootTwin,
        [((x(2), 2, (3, 8)), {}), ((), {"witness": y(1), "index": 1, "coords": (1, 3)})],
        [((x(2), 2), {})],
    ),
    "HasseNeighbors": (
        HasseNeighbors,
        HasseNeighborsTwin,
        [(((x(1), 1), (y(1), 2)), {}), ((), {"up": (x(3), 2), "down": (x(2), 1)})],
        [(((x(1), 1),), {})],
    ),
    "PiecewiseLinear": (
        PiecewiseLinear,
        PiecewiseLinearTwin,
        [((((F(0), F(0)), (F(1, 2), F(-1)), (F(1), F(1))),), {}), ((), {"points": ((F(0), F(0)),)})],
        [((), {})],
    ),
    "_ShapeTable": (
        _ShapeTable,
        ShapeTableTwin,
        [
            (((2, 5), ((3, -1, 2), (-8, 3, -1)), ((-4, 3), (11, -4))), {}),
            ((), {"grid": (), "slopes": ((2,), (-3,)), "jumps": ((), ())}),
        ],
        [(((2, 5), ((3, -1, 2), (-8, 3, -1))), {}), ((), {"grid": (), "slopes": (), "jumps": (), "den": 1})],
    ),
    "SearchBounds": (
        SearchBounds,
        SearchBoundsTwin,
        [((3, 3), {}), ((0, 1), {}), ((), {"m_max": 5, "s_max": 2})],
        [((True, 2), {}), ((2, 2.0), {}), ((-1, 1), {}), ((2, 0), {}), ((-1, "x"), {}), ((2,), {})],
    ),
    "CheckResult": (
        CheckResult,
        CheckResultTwin,
        [
            (("weight-step", 12, None), {}),
            (("bfs-coverage", 3, {"path": {"dirs": [], "sigmas": ["0", "1"]}}), {}),
            ((), {"name": "n", "checked": 0, "counterexample": None}),
        ],
        [(("n", 1), {}), (("n", 1, None, None), {})],
    ),
    "VerificationReport": (
        VerificationReport,
        VerificationReportTwin,
        [(((PASS, FAIL),), {}), (((),), {}), ((), {"results": (PASS,)})],
        [((), {})],
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, twin, good, bad = CASES[request.param]
    twin.__qualname__ = cls.__qualname__
    return cls, twin, good, bad


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as err:
        return type(err), str(err)


def _outcome(make, args, kwargs):
    try:
        make(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - the exception is the outcome compared
        return type(err), str(err).split("() ")[-1]
    return None


def test_repr_eq_and_hash_match_the_dataclass(case):
    cls, twin, good, _ = case
    for args, kwargs in good:
        got, want = cls(*args, **kwargs), twin(*args, **kwargs)
        assert repr(got) == repr(want)
        assert got.__match_args__ == twin.__match_args__
        assert [getattr(got, n) for n in got.__match_args__] == [getattr(want, n) for n in got.__match_args__]
        again = cls(*args, **kwargs)
        assert got == again and not got != again and got is not again
        assert _hash_or_error(got) == _hash_or_error(want)
        assert _hash_or_error(got) == _hash_or_error(again)
        # against another class: NotImplemented, so == falls back to identity
        for other in (want, object(), None, tuple(getattr(got, n) for n in got.__match_args__)):
            assert got.__eq__(other) is NotImplemented
            assert got != other and not got == other
        with pytest.raises(TypeError):
            got < again  # noqa: B015 - no ordering, as with order=False
    got = [cls(*args, **kwargs) for args, kwargs in good]
    want = [twin(*args, **kwargs) for args, kwargs in good]
    assert [[p == q for q in got] for p in got] == [[p == q for q in want] for p in want]


def test_assignment_and_deletion_raise_frozen_instance_error(case):
    cls, twin, good, _ = case
    args, kwargs = good[0]
    got, want = cls(*args, **kwargs), twin(*args, **kwargs)
    for name in (*got.__match_args__, "not_a_field"):
        messages = []
        for obj in (got, want):
            with pytest.raises(FrozenInstanceError) as err:
                setattr(obj, name, 1)
            messages.append(str(err.value))
            with pytest.raises(FrozenInstanceError) as err:
                delattr(obj, name)
            messages.append(str(err.value))
        assert messages[:2] == messages[2:]
    assert repr(got) == repr(want)


def test_validation_errors_match_the_dataclass(case):
    cls, twin, _, bad = case
    for args, kwargs in bad:
        got = _outcome(cls, args, kwargs)
        assert got is not None, (args, kwargs)
        assert got == _outcome(twin, args, kwargs), (args, kwargs)


def test_constructor_signature_matches_the_dataclass(case):
    cls, twin, _, _ = case

    def shape(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert shape(cls) == shape(twin)


def test_copy_deepcopy_and_pickle_round_trips(case):
    cls, twin, good, _ = case
    for args, kwargs in good:
        got, want = cls(*args, **kwargs), twin(*args, **kwargs)
        for again in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert type(again) is cls
            assert again == got and repr(again) == repr(want)
            assert _hash_or_error(again) == _hash_or_error(want)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(got, protocol)) == got
        assert repr(copy.deepcopy(want)) == repr(copy.deepcopy(got))


def _package_value_classes() -> dict:
    """Every Frozen subclass in the package, by name, with its source."""
    for info in pkgutil.iter_modules(lscrystal.__path__):
        importlib.import_module(f"lscrystal.{info.name}")
    classes, todo = [], [Frozen]
    while todo:
        todo = [sub for cls in todo for sub in cls.__subclasses__()]
        classes += todo
    ours = [cls for cls in classes if cls.__module__.startswith("lscrystal.")]
    return {cls.__qualname__: inspect.getsource(cls) for cls in ours}


def test_every_class_with_the_compiled_constructor_has_a_twin():
    sources = _package_value_classes()
    compiled = {name for name, src in sources.items() if not re.search(r"^    def __init__\(", src, re.M)}
    assert compiled <= set(CASES)
    assert compiled == {
        "PQTable",
        "PositiveRoot",
        "HasseNeighbors",
        "PiecewiseLinear",
        "_ShapeTable",
        "CheckResult",
        "VerificationReport",
    }


def test_every_other_class_stores_through_one_store_call():
    sources = _package_value_classes()
    own = {name for name, src in sources.items() if re.search(r"^    def __init__\(", src, re.M)}
    assert own == {"GCM", "Weight", "WeylElement", "LSPath", "ExplicitPath", "SearchBounds"}
    for name in own:
        assert sources[name].count("self._store(") == 1, name
        assert "__set__" not in sources[name], name


def _one_of_each() -> list:
    """The twin cases' instances, and one of each class without a twin."""
    made = [cls(*args, **kwargs) for cls, _, good, _ in CASES.values() for args, kwargs in good]
    paths = [LSPath(keys=(3, 2), nums=(0, 1, 3)), ExplicitPath("ii", 3, 2, ("0", "1/2", "1"))]
    return [*made, Weight(F(1, 3), -2), *paths]


def test_from_valid_rebuilds_every_value_class_from_its_fields():
    made = _one_of_each()
    assert {type(obj).__qualname__ for obj in made} == set(_package_value_classes())
    for obj in made:
        again = type(obj)._from_valid(*[getattr(obj, name) for name in obj.__match_args__])
        assert type(again) is type(obj) and again is not obj
        assert again == obj and repr(again) == repr(obj)
        assert _hash_or_error(again) == _hash_or_error(obj)


def test_explicit_path_from_valid_starts_with_no_grid_verdict():
    g = GCM(3, 3)
    ep = validate_explicit("i", 2, 2, ("0", "1/5", "1"), g)
    assert ep._on_grid_of is g
    again = ExplicitPath._from_valid(ep.form, ep.m, ep.nums)
    assert again == ep and again._on_grid_of is None
    assert ExplicitPath("i", 2, 2, ("0", "1/5", "1"))._on_grid_of is None


def test_check_result_passes_exactly_without_a_counterexample():
    ok, bad = CheckResult("n", 4, None), CheckResult("n", 4, {"k": 0})
    assert ok.passed and not bad.passed
    assert VerificationReport((ok,)).to_json_lines() == ['{"check": "n", "checked": 4, "status": "pass"}']
    fail = '{"check": "n", "checked": 4, "counterexample": {"k": 0}, "status": "fail"}'
    assert VerificationReport((bad,)).to_json_lines() == [fail]
    assert VerificationReport((ok,)).all_passed and not VerificationReport((ok, bad)).all_passed


def test_no_class_writes_its_own_hash():
    # each hash is the compiled hash(field tuple); none is cached in a slot
    sources = _package_value_classes()
    assert {"GCM", "WeylElement", "LSPath", "ExplicitPath"} <= set(sources)
    assert not [name for name, src in sources.items() if re.search(r"^    def __hash__\(", src, re.M)]
    assert GCM.__slots__ == ("a", "b") and WeylElement.__slots__ == ("family", "m")


def test_canonical_spelling_survives_the_round_trips():
    # y_0 is stored as x_0, by the constructor a copy goes through again
    w = WeylElement("y", 0)
    for again in (w, copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert again.family == "x" and again == WeylElement("x", 0)
        assert hash(again) == hash(WeylElementTwin("y", 0))


def test_sets_and_dicts_keep_the_dataclass_order():
    # equal hashes put the elements in the same slots, so iteration order
    # over a set or a dict of them is the one the dataclasses gave
    got = [WeylElement(f, m) for m in range(8) for f in "xy"]
    want = [WeylElementTwin(f, m) for m in range(8) for f in "xy"]
    assert [str(w) for w in set(got)] == [f"{w.family}{w.m}" for w in set(want)]
    bounds = [SearchBounds(m, s) for m in range(6) for s in range(1, 4)]
    twins = [SearchBoundsTwin(m, s) for m in range(6) for s in range(1, 4)]
    assert [(b.m_max, b.s_max) for b in set(bounds)] == [(b.m_max, b.s_max) for b in set(twins)]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, lscrystal.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_frozen_instance_error_is_imported_on_the_error_path():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from lscrystal import GCM\n"
        "g = GCM(3, 3)\n"
        "assert 'dataclasses' not in sys.modules\n"
        "try:\n"
        "    g.a = 4\n"
        "except Exception as err:\n"
        "    print(type(err).__module__, type(err).__name__, err)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "dataclasses FrozenInstanceError cannot assign to field 'a'\n"


WEIGHTS = (Weight(7, -3), Weight(F(1, 3), -2), Weight(-F(5, 2), F(9, 4)), Weight(0, 0))


@pytest.mark.parametrize("w", WEIGHTS, ids=str)
def test_weight_assignment_and_deletion_raise_frozen_instance_error(w):
    before = (w.c1, w.c2)
    for name in ("c1", "c2", "not_a_field"):
        with pytest.raises(FrozenInstanceError) as err:
            setattr(w, name, 1)
        assert str(err.value) == f"cannot assign to field {name!r}"
        with pytest.raises(FrozenInstanceError) as err:
            delattr(w, name)
        assert str(err.value) == f"cannot delete field {name!r}"
    assert (w.c1, w.c2) == before


def test_cached_orbit_weight_cannot_be_changed():
    g = GCM(3, 3)
    w = orbit_weight(x(1), g)
    with pytest.raises(FrozenInstanceError):
        w.c1 = 99
    with pytest.raises(FrozenInstanceError):
        del w.c2
    assert orbit_weight(x(1), g) is w
    assert str(orbit_weight(x(1), g)) == "-1L1 + 2L2"


@pytest.mark.parametrize("w", WEIGHTS, ids=str)
def test_weight_eq_hash_and_round_trips(w):
    assert type(w.c1) is F and type(w.c2) is F
    assert hash(w) == hash((w.c1, w.c2))
    assert w.__eq__((w.c1, w.c2)) is NotImplemented and w != (w.c1, w.c2)
    assert w.__eq__((1, 2)) is NotImplemented
    for again in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(again) is Weight
        assert again == w and hash(again) == hash(w)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(w, protocol)) == w


def test_weight_match_args_are_its_coordinates():
    assert Weight.__match_args__ == ("c1", "c2")
    match Weight(2, -1):
        case Weight(c1, c2):
            assert (c1, c2) == (2, -1)


def test_weight_repr_and_str_text():
    assert repr(Weight(7, -3)) == "Weight(7, -3)"
    assert repr(Weight(F(1, 3), -2)) == "Weight(1/3, -2)"
    assert str(Weight(F(1, 3), -2)) == "1/3L1 - 2L2"
    assert str(Weight(-F(5, 2), F(9, 4))) == "-5/2L1 + 9/4L2"
