"""Brute-force ground truth, straight from the definitions.

Chains are rebuilt by reflecting through every positive root up to a
height budget (the roots of weyl.positive_roots_weyl under the cap),
dist is a maximal chain length, and sigma-chains, LS-path validity,
and the exhaustive path enumeration follow the definitions with no help
from the closed forms.  The check_* functions compare this ground truth
against the statements the closed forms rest on (sigma-chains have
length one, every path is one of two normal forms, the crystal graph is
connected) over finite windows and report counterexamples when anything
fails.

Whether a sigma-chain exists, and how long it is, depends on sigma only
through its reduced denominator d (see sigma_chain_lengths), so there is
one search and one cache, _sigma_chain_cached, keyed by the matrix, the
pair and d, and never by the window.  The policy is held in ints, in one
cached table, _policy_by_denominator, keyed by the matrix and the length
n = m_max + s_max of the p/q tables it reads: its common denominator L
and, per reduced denominator d, the number phi(d) of its values over d.  The
checks read that table, count a denominator's values at once, and report
1/d for the largest failing d, the smallest failing value of a pair.  The
path enumeration builds each path from order keys and the numerators
over L of the values over d (_numerators, built once per admitted d),
with no Fraction and no Weyl element.

dist and the sigma-chain functions take Weyl elements, compare them by
order key and read their orbit weights themselves; they refuse an
interval longer than chain_len_max before any search, which runs on
order keys alone.  Each fact is computed once.  The reflections of an
orbit element (root, pairing, image) depend on the element alone, so
they are cached per element and every order interval only looks its
images up.  An interval's steps are built once, in _down_steps, and its
distance-1 graph is those steps filtered to dist 1.  The string ends are
iterated per check, one walk per window path and op, and a walk stops at
the first window path whose count is already known: op is a function, so
from there it would repeat a walk already made step for step, and the
count read off that shared tail is exact.  The classification check
builds the window's normal forms shape by shape instead of filtering a
larger enumeration.

The equivalence, axioms and connectedness checks split their work into
independent shares (the window by index, the root indices, the two
routes) and hand them to one runner, _run_shares, which runs share 0
here and the others in forked children when the affinity mask holds
more than one CPU, and here too once the system refuses a fork.  Every
share returns its report lines, {name: [checked, order, counterexample]},
and one merge, _merged, builds the check's report from them: each line
sums its counts and keeps the counterexample with the smallest order,
the earlier share's on a tie, so the report is the one a serial run
gives.

Apart from check_structure, which also knows the two degenerate orbit
identities of the a = 1 / b = 1 edge, everything here effectively needs
a, b >= 2: once orbit weights repeat, the chain search refuses to run
rather than search a broken state space.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache, partial

from .cartan import (
    ANTIDOMINANT,
    DOMINANT,
    GCM,
    NEITHER,
    Frozen,
    Weight,
    dominance_class,
    pairing,
    simple_root,
)
from .explicit import (
    FORM_I,
    FORM_II,
    ExplicitPath,
    fe_explicit,
    from_ls_path,
    normal_forms_by_shape,
    normal_forms_of_shapes,
    to_ls_path,
)
from .paths import (
    LSPath,
    crystal_bfs,
    e_generic,
    e_max,
    f_generic,
    f_max,
    fe_generic,
    h_function,
    straight_path,
    weight,
)
from .weyl import (
    BY_ORDER_KEY,
    IDENTITY,
    PositiveRoot,
    WeylElement,
    hasse_neighbors,
    orbit_weight,
    positive_roots_recurrence,
    positive_roots_weyl,
    pq_table,
    reflect_by_root,
    root_pairing,
    window_elements,
    x,
    y,
)


class OracleBoundError(RuntimeError):
    """A search hit its configured cap; the answer is unknown, not false."""


# coefficient height c + d of the largest positive root a chain may use
ROOT_HEIGHT_MAX = 40


class SearchBounds(Frozen):
    """The window of the brute-force searches: directions up to m_max
    away from the identity, paths of at most s_max pieces."""

    __slots__ = ("m_max", "s_max")

    def __init__(self, m_max: int, s_max: int):
        for name, value in (("m_max", m_max), ("s_max", s_max)):
            if type(value) is not int:  # bool is an int subclass
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if m_max < 0:
            raise ValueError(f"m_max must be nonnegative, got {m_max}")
        if s_max < 1:
            raise ValueError(f"s_max must be positive, got {s_max}")
        self._store(m_max, s_max)

    @property
    def chain_len_max(self) -> int:
        """2*m_max + 2, which covers every order interval inside the window."""
        return 2 * self.m_max + 2

    @property
    def table_len(self) -> int:
        """m_max + s_max, the length of the p/q tables the denominator
        policy reads."""
        return self.m_max + self.s_max


@lru_cache(maxsize=None)
def _chain_roots(gcm: GCM) -> tuple[PositiveRoot, ...]:
    """Positive roots with coefficient height c + d <= ROOT_HEIGHT_MAX.

    Heights along each series grow without bound (the recurrence is
    expanding for a*b > 4), so the roots x_l(alpha_2) and y_l(alpha_1)
    with l <= ROOT_HEIGHT_MAX + 1 include every root under the cap.
    """
    roots = positive_roots_weyl(gcm, ROOT_HEIGHT_MAX // 2 + 1)
    return tuple(beta for beta in roots if sum(beta.coords) <= ROOT_HEIGHT_MAX)


@lru_cache(maxsize=None)
def _reflections(gcm: GCM, key: int) -> tuple[tuple[PositiveRoot, Fraction, Weight], ...]:
    """(beta, val, r_beta(weight)) for every bounded root beta whose
    pairing val with the orbit weight of element key is negative.

    This depends on the element only, not on the interval around it, so
    every order interval that holds the element reads it from here.
    """
    wt = orbit_weight(BY_ORDER_KEY[key], gcm)
    out = []
    for beta in _chain_roots(gcm):
        val = root_pairing(wt, beta, gcm)
        if val < 0:
            out.append((beta, val, reflect_by_root(wt, beta, gcm)))
    return tuple(out)


@lru_cache(maxsize=None)
def _down_steps(
    gcm: GCM, lo: int, hi: int
) -> tuple[tuple[tuple[int, PositiveRoot, Fraction], ...], ...]:
    """All decreasing reflection steps between window elements.

    Entry key - lo lists (target key, root, pairing) for every bounded
    root with negative pairing whose reflection stays in the interval.

    Each linked pair has exactly one root.  That is asserted, not
    assumed: two bounded roots linking the same pair would be a finding,
    not a detail.
    """
    weights = {k: orbit_weight(BY_ORDER_KEY[k], gcm) for k in range(lo, hi + 1)}
    by_weight = {wt: k for k, wt in weights.items()}
    if len(by_weight) != len(weights):
        raise ValueError("orbit weights repeat in this window; the chain search needs a, b >= 2")
    steps = []
    for k in range(lo, hi + 1):
        out = []
        for beta, val, image in _reflections(gcm, k):
            k2 = by_weight.get(image)
            if k2 is None:
                continue
            if k2 >= k:
                raise ValueError(f"reflection by {beta} failed to decrease {BY_ORDER_KEY[k]}")
            if any(t == k2 for t, _, _ in out):
                raise ValueError(
                    f"more than one reflecting root between {BY_ORDER_KEY[k]} and {BY_ORDER_KEY[k2]}; "
                    "expected exactly one"
                )
            out.append((k2, beta, val))
        steps.append(tuple(out))
    return tuple(steps)


def _refuse_past_cap(mu: WeylElement, nu: WeylElement, bounds: SearchBounds):
    """Raise OracleBoundError when the order interval [nu, mu] is longer
    than chain_len_max: a chain search past the cap has no answer.

    The searches themselves are keyed by the matrix alone, so the public
    functions check the cap here, before any cache is read.  A window's
    intervals are at most 2*m_max long and never reach it."""
    if mu.order_key - nu.order_key > bounds.chain_len_max:
        raise OracleBoundError(
            f"order interval [{nu}, {mu}] is longer than chain_len_max = "
            f"{bounds.chain_len_max}"
        )


def dist(mu: WeylElement, nu: WeylElement, gcm: GCM, bounds: SearchBounds) -> int:
    """Maximal length of a decreasing reflection chain from the orbit
    weight of mu down to that of nu."""
    lo, hi = nu.order_key, mu.order_key
    if hi < lo:
        raise ValueError(f"{mu} lies below {nu}; chains only go down")
    if hi == lo:
        return 0
    _refuse_past_cap(mu, nu, bounds)
    return _dist(gcm, lo, hi)


def _dist(gcm: GCM, lo: int, hi: int) -> int:
    """dist from order key hi down to order key lo < hi."""
    steps = _down_steps(gcm, lo, hi)
    best: list[int | None] = [0] + [None] * (hi - lo)
    for k in range(lo + 1, hi + 1):
        lengths = [1 + best[k2 - lo] for k2, _, _ in steps[k - lo] if best[k2 - lo] is not None]
        best[k - lo] = max(lengths) if lengths else None
    top = best[hi - lo]
    if top is None:
        raise OracleBoundError(
            f"no chain from {BY_ORDER_KEY[hi]} to {BY_ORDER_KEY[lo]} using roots of height <= "
            f"{ROOT_HEIGHT_MAX}"
        )
    return top


@lru_cache(maxsize=None)
def _dist1_graph(gcm: GCM, lo: int, hi: int) -> tuple[tuple[tuple[int, PositiveRoot, int], ...], ...]:
    """The steps of _down_steps between pairs at distance 1, each with
    its pairing as an int (orbit weights are integral).

    It depends on the matrix and the interval alone.  An interval whose
    ends no bounded chain links raises OracleBoundError, as _dist of its
    two ends does."""
    _dist(gcm, lo, hi)
    return tuple(
        tuple((k2, beta, int(val)) for k2, beta, val in row if _dist(gcm, k2, k) == 1)
        for k, row in enumerate(_down_steps(gcm, lo, hi), lo)
    )


def sigma_chain_lengths(
    mu: WeylElement, nu: WeylElement, sigma, gcm: GCM, bounds: SearchBounds
) -> tuple[int, ...]:
    """Lengths of all sigma-chains for (mu, nu); empty when none exists.

    A sigma-chain steps through pairs at distance 1 with every step's
    pairing turned into a negative integer by sigma.  Every step's
    pairing val is itself a negative integer and sigma = n/d is reduced,
    so sigma * val is an integer exactly when d divides val: the result
    depends on sigma only through d, and is read from the one search
    per (pair, d) and matrix.  An interval past chain_len_max raises
    OracleBoundError, as dist does, before that search is looked up.
    """
    if mu.order_key <= nu.order_key:
        raise ValueError(f"sigma-chains need {mu} strictly above {nu}")
    sigma = Fraction(sigma)
    if not 0 < sigma < 1:
        raise ValueError(f"sigma must lie strictly between 0 and 1, got {sigma}")
    _refuse_past_cap(mu, nu, bounds)
    return _sigma_chain_cached(gcm, mu.order_key, nu.order_key, sigma.denominator)


@lru_cache(maxsize=None)
def _sigma_chain_cached(gcm: GCM, hi: int, lo: int, d: int) -> tuple[int, ...]:
    """Lengths of all 1/d-chains from order key hi down to order key lo: the
    oracle's one sigma-chain search, a step allowed when d divides its
    pairing."""
    graph = _dist1_graph(gcm, lo, hi)
    memo: dict[int, frozenset[int]] = {lo: frozenset({0})}

    def lengths(k: int) -> frozenset[int]:
        if k not in memo:
            acc = set()
            for k2, _, val in graph[k - lo]:
                if val % d == 0:
                    acc.update(1 + n for n in lengths(k2))
            memo[k] = frozenset(acc)
        return memo[k]

    return tuple(sorted(lengths(hi)))


def sigma_chain_exists(
    mu: WeylElement, nu: WeylElement, sigma, gcm: GCM, bounds: SearchBounds
) -> bool:
    return bool(sigma_chain_lengths(mu, nu, sigma, gcm, bounds))


def is_ls_path_oracle(dirs, times, gcm: GCM, bounds: SearchBounds) -> bool:
    """Validity per the definition: every turn admits a sigma-chain."""
    pi = LSPath(tuple(dirs), tuple(times))
    dirs, times = pi.dirs, pi.times
    return all(
        sigma_chain_exists(dirs[k - 1], dirs[k], times[k], gcm, bounds)
        for k in range(1, pi.s)
    )


def _strings(op, paths, i: int, gcm: GCM) -> dict[LSPath, tuple[int, LSPath]]:
    """Apply op to each path until it returns null: for every path, the
    number of steps and the last path.  The ground truth for
    paths.epsilon/phi/e_max/f_max, which read the string ends off H_i
    instead.

    A walk also stops at a path of paths whose (steps, end) it already
    knows: op is a function, so the rest of the walk would repeat one
    already made, and the counts add up exactly.  Only paths of paths
    are recorded, the ones a walk meets on its way included.
    """
    wanted = set(paths)
    known: dict[LSPath, tuple[int, LSPath]] = {}
    for pi in paths:
        if pi in known:
            continue
        met = [(pi, 0)]
        n, cur = 0, pi
        nxt = op(cur, i, gcm)
        while nxt is not None:
            n, cur = n + 1, nxt
            if cur in wanted:
                if cur in known:
                    rest, cur = known[cur]
                    n += rest
                    break
                met.append((cur, n))
            nxt = op(cur, i, gcm)
        for p, k in met:
            known[p] = (n - k, cur)
    return known


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, in no particular order, by trial division."""
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in small]


def _totient(n: int) -> int:
    """Euler's phi(n): the j in [1, n] prime to n, by trial division."""
    out, k = n, 2
    while k * k <= n:
        if n % k == 0:
            while n % k == 0:
                n //= k
            out -= out // k
        k += 1
    return out - out // n if n > 1 else out


@lru_cache(maxsize=None)
def _policy_by_denominator(gcm: GCM, n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The denominator policy of the p/q tables of length n in ints: its
    common denominator L and, for every reduced denominator d of the
    policy, smallest d first, the number of policy values over d.

    A reduced n/d lies in the policy when d divides a table entry, so
    the policy denominators are the divisors d >= 2 of the entries and
    each has phi(d) values, the smallest 1/d.  Only the enumeration
    needs the values themselves, from _numerators."""
    table = pq_table(gcm, n)
    # only d >= 2 has values in (0, 1); boundary matrices also give 0
    entries = {e for e in table.p + table.q if e > 1}
    dens = sorted({d for e in entries for d in _divisors(e) if d > 1})
    return math.lcm(*entries), tuple((d, _totient(d)) for d in dens)


@lru_cache(maxsize=None)
def _numerators(gcm: GCM, n: int, d: int) -> tuple[int, ...]:
    """The numerators over the policy's common denominator L of the
    policy values over d, increasing: j * (L // d) for every j in
    (0, d) prime to d."""
    step = _policy_by_denominator(gcm, n)[0] // d
    return tuple([j * step for j in range(1, d) if math.gcd(j, d) == 1])


def _chains_by_denominator(
    gcm: GCM, n: int, hi: int, lo: int
) -> list[tuple[int, int, tuple[int, ...]]]:
    """(d, the number of policy values over d, the 1/d-chain lengths
    from order key hi down to lo) for every denominator d of the policy
    of table length n, smallest d first: a policy value admits a
    sigma-chain exactly when its row has lengths."""
    return [
        (d, count, _sigma_chain_cached(gcm, hi, lo, d))
        for d, count in _policy_by_denominator(gcm, n)[1]
    ]


def enumerate_ls_paths(gcm: GCM, bounds: SearchBounds) -> set[LSPath]:
    """Every LS path with directions in the window and at most s_max pieces,
    breakpoints drawn from the denominator policy, validity from the
    definition.

    Paths are built in ints: directions as order keys, from m_max down
    to -m_max, and breakpoints as numerators over the policy's common
    denominator L.  A turn's breakpoints are the numerators over the
    denominators whose 1/d-chain exists for its pair; a denominator's
    numerators are built when a turn first admits it."""
    n = bounds.table_len
    common = _policy_by_denominator(gcm, n)[0]
    bottom = -bounds.m_max - 1
    window = range(bounds.m_max, bottom, -1)
    admissible: dict[tuple[int, int], tuple[int, ...]] = {}
    # the turns' breakpoints; paths of one piece have none
    for u in window if bounds.s_max >= 2 else ():
        for v in range(u - 1, bottom, -1):
            rows = _chains_by_denominator(gcm, n, u, v)
            admissible[u, v] = tuple(
                k for d, _, found in rows if found for k in _numerators(gcm, n, d)
            )
    out: set[LSPath] = set()

    def extend(keys: tuple[int, ...], nums: tuple[int, ...]):
        out.add(LSPath(keys=keys, nums=nums + (common,)))
        if len(keys) == bounds.s_max:
            return
        for v in range(keys[-1] - 1, bottom, -1):
            for k in admissible[keys[-1], v]:
                if k > nums[-1]:
                    extend(keys + (v,), nums + (k,))

    for u in window:
        extend((u,), (0,))
    return out


# ---------------------------------------------------------------------------
# verification reports


class CheckResult(Frozen):
    """One named check: how many cases it checked, and the first
    counterexample as a JSON object, None when it passed."""

    __slots__ = ("name", "checked", "counterexample")

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        data = {
            "check": self.name,
            "status": "pass" if self.passed else "fail",
            "checked": self.checked,
        }
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
        return data


class VerificationReport(Frozen):
    """The results of one or more checks, printed one JSON line each."""

    __slots__ = ("results",)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_lines(self) -> list[str]:
        ordered = sorted(self.results, key=lambda r: r.name)
        return [json.dumps(r.to_json(), sort_keys=True) for r in ordered]


def combine(*reports: VerificationReport) -> VerificationReport:
    results = []
    for rep in reports:
        results.extend(rep.results)
    return VerificationReport(tuple(results))


def _merged(shares: list[dict]) -> VerificationReport:
    """The report of a check split into shares, from each share's lines
    {name: [checked, order, counterexample]}, order and counterexample
    null on a passing line.  Each line sums its counts and keeps the
    counterexample with the smallest order, the earlier share's on a
    tie: the report a serial run gives."""
    lines: dict[str, list] = {}
    for share in shares:
        for name, (checked, order, ce) in share.items():
            line = lines.setdefault(name, [0, None, None])
            line[0] += checked
            if order is not None and (line[1] is None or order < line[1]):
                line[1:] = order, ce
    return VerificationReport(tuple(CheckResult(name, n, ce) for name, (n, _, ce) in lines.items()))


def _normal_forms_in_window(gcm: GCM, bounds: SearchBounds) -> set[ExplicitPath]:
    """Valid normal forms whose directions all fit inside the window:
    form i with m + s - 1 <= m_max, form ii with s <= m <= m_max."""
    pieces = range(1, bounds.s_max + 1)
    shapes = [(FORM_I, m, s) for s in pieces for m in range(bounds.m_max - s + 2)]
    shapes += [(FORM_II, m, s) for s in pieces for m in range(s, bounds.m_max + 1)]
    return set(normal_forms_of_shapes(gcm, shapes))


def check_classification(gcm: GCM, bounds: SearchBounds) -> VerificationReport:
    """Sigma-chains have length one, and the enumerated LS paths are
    exactly the normal forms living in the window."""
    window = window_elements(bounds.m_max)
    chains = 0
    bad = None
    for i, u in enumerate(window):
        for v in window[i + 1 :]:
            rows = _chains_by_denominator(gcm, bounds.table_len, u.order_key, v.order_key)
            chains += sum(count for _, count, found in rows if found)
            failing = [(d, found) for d, _, found in rows if found and set(found) != {1}]
            if failing and bad is None:
                # the pair's smallest failing value is 1/d for its largest failing d
                d, found = failing[-1]
                bad = {"upper": str(u), "lower": str(v), "sigma": f"1/{d}", "lengths": list(found)}
    length_result = CheckResult("sigma-chain-length-one", chains, bad)

    oracle_set = enumerate_ls_paths(gcm, bounds)
    normal_set = {to_ls_path(ep) for ep in _normal_forms_in_window(gcm, bounds)}
    ce = None
    extra = oracle_set - normal_set
    missing = normal_set - oracle_set
    if extra:
        ce = {"side": "oracle-only", "path": min(extra, key=str).to_json()}
    elif missing:
        ce = {"side": "normal-form-only", "path": min(missing, key=str).to_json()}
    set_result = CheckResult("normal-form-set-equality", len(oracle_set | normal_set), ce)
    return VerificationReport((length_result, set_result))


def check_straight_through_lambda(gcm: GCM, bounds: SearchBounds) -> VerificationReport:
    """The identity direction occurs only in the straight path: no turn
    next to it admits a sigma-chain, and no enumerated multi-piece path
    contains it."""
    checked = 0
    bad = None
    for w in window_elements(bounds.m_max):
        if w.is_identity:
            continue
        upper, lower = (w, IDENTITY) if w.order_key > 0 else (IDENTITY, w)
        rows = _chains_by_denominator(gcm, bounds.table_len, upper.order_key, lower.order_key)
        checked += sum(count for _, count, _ in rows)
        ok = [d for d, _, found in rows if found]
        if ok and bad is None:
            bad = {"upper": str(upper), "lower": str(lower), "sigma": f"1/{ok[-1]}"}
    turn_result = CheckResult("no-turn-at-lambda", checked, bad)

    paths = enumerate_ls_paths(gcm, bounds)
    through = min((pi for pi in paths if pi.s >= 2 and 0 in pi.keys), key=str, default=None)
    ce = None if through is None else {"path": through.to_json()}
    scan_result = CheckResult("no-multi-piece-path-through-lambda", len(paths), ce)
    return VerificationReport((turn_result, scan_result))


def check_connectedness(gcm: GCM, bounds: SearchBounds) -> VerificationReport:
    """Two independent routes to the same claim: the reduction recipe
    walks every enumerated path back to the straight path, and BFS from
    the straight path covers the whole enumerated window.

    The routes are the two shares of _run_shares, one report line each:
    the reduction walks are share 0, run here, and BFS coverage is
    share 1."""
    paths = sorted(enumerate_ls_paths(gcm, bounds), key=str)
    routes = [partial(_reduction_stuck, gcm, bounds, paths), partial(_bfs_uncovered, gcm, bounds, paths)]
    return _merged(_run_shares(routes))


def _reduction_stuck(gcm: GCM, bounds: SearchBounds, paths: list[LSPath]) -> dict:
    """The reduction-to-straight line over paths, failing at the first
    of them that the recipe does not walk back to the straight path."""
    start = straight_path()
    budget = 2 * bounds.m_max + bounds.s_max + 4
    for pi in paths:
        cur, steps = pi, 0
        while cur != start:
            if steps >= budget:
                ce = {"path": pi.to_json(), "reason": f"not reduced in {budget} steps"}
                return {"reduction-to-straight": [len(paths), 0, ce]}
            first = cur.keys[0]
            if first > 0:  # x_m, m > 0
                cur = e_max(cur, BY_ORDER_KEY[first].descent_index, gcm)
            else:
                # not straight, keys falling from a first key <= 0: last is y_m, m > 0
                cur = f_max(cur, BY_ORDER_KEY[cur.keys[-1]].descent_index, gcm)
            steps += 1
    return {"reduction-to-straight": [len(paths), None, None]}


def _bfs_uncovered(gcm: GCM, bounds: SearchBounds, paths: list[LSPath]) -> dict:
    """The bfs-coverage line over paths, failing at the first of them
    that BFS from the straight path does not reach.

    Expansion stays near the window, with a little slack in s; any node
    reached still counts for coverage.  A larger slack reaches a
    superset of the nodes, so slack 2 runs only when slack 1 leaves a
    target uncovered, and the report is the same either way."""
    targets = set(paths)
    for slack in (1, 2):
        s_near = bounds.s_max + slack

        def near(pi: LSPath, level: int) -> bool:
            return max(map(abs, pi.keys)) <= bounds.m_max and pi.s <= s_near

        uncovered = targets - set(crystal_bfs(gcm, near)[0])
        if not uncovered:
            return {"bfs-coverage": [len(paths), None, None]}
    return {"bfs-coverage": [len(paths), 0, {"path": min(uncovered, key=str).to_json()}]}


_AXIOMS = (
    "weight-step",
    "inverse-pair",
    "string-balance",
    "epsilon-is-minus-min",
    "phi-is-endpoint-minus-min",
    "integral-local-minima",
)


def check_crystal_axioms(gcm: GCM, bounds: SearchBounds) -> VerificationReport:
    """Operator bookkeeping on every enumerated path: weight steps,
    inverse pairs, string-length identities, integral minima.

    Each root index i is one share of _run_shares, both its iterated
    strings and its per-path checks.  A failure's order is [position in
    str order, i], so the merged report keeps the one a serial loop over
    the paths, then i, meets first."""
    paths = sorted(enumerate_ls_paths(gcm, bounds), key=str)
    return _merged(_run_shares([partial(_axioms_share, gcm, paths, i) for i in (1, 2)]))


def _axioms_share(gcm: GCM, paths: list[LSPath], i: int) -> dict:
    """The lines of _AXIOMS at root index i, each failing at its first
    failure in paths."""
    out = {name: [0, None, None] for name in _AXIOMS}

    def note(name: str, ok: bool, pos: int, pi: LSPath):
        line = out[name]
        line[0] += 1
        if not ok and line[1] is None:
            line[1:] = [pos, i], {"path": pi.to_json(), "i": i}

    e_strings = _strings(e_generic, paths, i, gcm)
    f_strings = _strings(f_generic, paths, i, gcm)
    alpha = simple_root(i, gcm)
    for pos, pi in enumerate(paths):
        wt = weight(pi, gcm)
        h = h_function(pi, i, gcm)
        mi = h.minimum()
        note("integral-local-minima", all(v.denominator == 1 for v in h.local_min_values()), pos, pi)
        eps, ph = e_strings[pi][0], f_strings[pi][0]
        note("epsilon-is-minus-min", mi.denominator == 1 and eps == -mi, pos, pi)
        note("phi-is-endpoint-minus-min", ph == h.points[-1][1] - mi, pos, pi)
        note("string-balance", ph - eps == pairing(wt, i), pos, pi)
        fi, ei = fe_generic(pi, i, gcm)
        if fi is not None:
            note("weight-step", weight(fi, gcm) == wt - alpha, pos, pi)
            note("inverse-pair", e_generic(fi, i, gcm) == pi, pos, pi)
        if ei is not None:
            note("weight-step", weight(ei, gcm) == wt + alpha, pos, pi)
            note("inverse-pair", f_generic(ei, i, gcm) == pi, pos, pi)
    return out


def check_operator_equivalence(gcm: GCM, m_max: int, s_max: int) -> VerificationReport:
    """Closed-form operators against the piecewise-linear engine on every
    normal form with m <= m_max and s <= s_max, nulls included.

    Each form goes through both pair functions; the counterexample is
    the first disagreement in the order of str(path), then f1, e1, f2,
    e2.  The comparisons are independent, so the window is split by
    index before any form is built: with n = _fork_width() (the CPUs in
    this process's affinity mask; `taskset -c 0` makes n = 1), form k of
    the normal_forms_by_shape order goes to share k mod n of
    _run_shares.  A failure's order is str(path).  The window is checked
    as every other check's is, by SearchBounds, before any share runs.
    """
    SearchBounds(m_max, s_max)
    n = _fork_width()
    return _merged(_run_shares([partial(_equivalence_share, gcm, m_max, s_max, k, n) for k in range(n)]))


def _equivalence_share(gcm: GCM, m_max: int, s_max: int, k: int, n: int) -> dict:
    """The operator-equivalence line over the forms at positions k,
    k + n, ... of the window."""
    checked = 0
    ce = first = None
    for ep in normal_forms_by_shape(gcm, m_max, s_max, k, n):
        pi = to_ls_path(ep)
        for i in (1, 2):
            for label, closed, engine in zip("fe", fe_explicit(ep, i, gcm), fe_generic(pi, i, gcm)):
                checked += 1
                agree = (
                    closed is None
                    and engine is None
                    or closed is not None
                    and engine is not None
                    and to_ls_path(closed) == engine
                    and from_ls_path(engine) == closed
                )
                if not agree and (first is None or str(ep) < first):
                    first = str(ep)
                    ce = {
                        "path": ep.to_json(),
                        "op": f"{label}{i}",
                        "closed-form": None if closed is None else closed.to_json(),
                        "engine": None if engine is None else engine.to_json(),
                    }
    return {"operator-equivalence": [checked, first, ce]}


# ---------------------------------------------------------------------------
# independent shares of a check, on forked children


def _fork_width() -> int:
    """How many shares may run at once: the CPUs in this process's
    affinity mask, or 1 when os.fork is missing or other threads are
    running (a fork copies only the calling thread)."""
    threads = sys.modules.get("threading")
    if not hasattr(os, "fork") or threads is not None and threads.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_shares(shares: list) -> list:
    """The results of shares, functions of no argument that return
    JSON-shaped values, in order.

    With _fork_width() > 1, shares 1.. run in forked children, each
    sending its result as JSON over a pipe, while share 0 runs here.  A
    share whose child fails (a nonzero exit or a short payload) is
    recomputed here, which repeats its exception too.  Every child is
    reaped before this returns, and killed first if this raises.  With
    one share, or a fork width of 1, every share runs here, in order.
    When a fork or a pipe is refused (EAGAIN under a process limit,
    ENOMEM, EMFILE), no further child is started: the shares left run
    here after share 0.
    """
    if len(shares) == 1 or _fork_width() == 1:
        return [share() for share in shares]
    kids = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            try:
                kids.append(_fork_share(share))
            except OSError:
                break
        results = [shares[0]()]
        left = [share() for share in shares[1 + len(kids) :]]
        payloads = []
        for _, r in kids:
            with open(r, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    except BaseException:
        from signal import SIGKILL

        for pid, _ in kids:
            os.kill(pid, SIGKILL)
        raise
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in kids]
        for _, r in kids:
            os.close(r)
    for share, payload, status in zip(shares[1:], payloads, statuses):
        results.append(_child_result(share, payload, status))
    return results + left


def _fork_share(share) -> tuple[int, int]:
    """(pid, read end of its pipe) of a forked child running share; the
    OSError of a refused pipe or fork is raised with no descriptor left
    open."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        _share_child(w, share)
    os.close(w)
    return pid, r


def _child_result(share, payload: bytes, status: int):
    """The result a child sent for share, or share recomputed here when
    the child exited nonzero or its payload is not whole JSON."""
    if status == 0:
        try:
            return json.loads(payload)
        except ValueError:  # a short payload
            pass
    return share()


def _share_child(w: int, share):
    """Run share in a forked child, write its result to fd w as JSON and
    exit; the child never returns into the caller's stack."""
    code = 1
    try:
        with open(w, "w", closefd=False) as pipe:
            json.dump(share(), pipe)
        code = 0
    finally:
        os._exit(code)


def check_structure(gcm: GCM, bounds: SearchBounds) -> VerificationReport:
    """Arithmetic of the p/q tables, the two root enumerations, order
    versus chain distance, and the dominance facts for the orbit."""
    if gcm.boundary:
        checked = 0
        ce = None
        if gcm.a == 1:
            checked += 1
            wt = orbit_weight(y(1), gcm)
            if wt != Weight(0, 1) or dominance_class(wt) != DOMINANT:
                ce = {"element": "y1", "weight": str(wt)}
        if gcm.b == 1:
            checked += 1
            wt = orbit_weight(x(1), gcm)
            if ce is None and (wt != Weight(-1, 0) or dominance_class(wt) != ANTIDOMINANT):
                ce = {"element": "x1", "weight": str(wt)}
        return VerificationReport((CheckResult("degenerate-orbit-identities", checked, ce),))

    results = []
    table = pq_table(gcm, 51)

    ce = None
    for k in range(51):
        if math.gcd(table.p[k], table.p[k + 1]) != 1 or math.gcd(table.q[k], table.q[k + 1]) != 1:
            ce = {"k": k}
            break
    results.append(CheckResult("consecutive-coprimality", 51, ce))

    ok = (
        table.p[0] == table.p[1] == 1
        and table.q[0] == table.q[1] == 1
        and table.p[1] <= table.p[2]
        and table.q[1] <= table.q[2]
        and (table.p[1] == table.p[2]) == (gcm.b == 2)
        and (table.q[1] == table.q[2]) == (gcm.a == 2)
        and all(table.p[k] < table.p[k + 1] for k in range(2, 51))
        and all(table.q[k] < table.q[k + 1] for k in range(2, 51))
    )
    ce = None if ok else {"p": [str(v) for v in table.p[:6]], "q": [str(v) for v in table.q[:6]]}
    results.append(CheckResult("sequence-monotonicity", 51, ce))

    weyl_roots = positive_roots_weyl(gcm, 15)
    weyl_coords = [r.coords for r in weyl_roots]
    rec_coords = positive_roots_recurrence(gcm, 30)
    ok = (
        len(set(weyl_coords)) == 60
        and len(set(rec_coords)) == 60
        and set(weyl_coords) == set(rec_coords)
    )
    ce = None
    if not ok:
        ce = {
            "weyl-only": sorted(set(weyl_coords) - set(rec_coords))[:3],
            "recurrence-only": sorted(set(rec_coords) - set(weyl_coords))[:3],
        }
    results.append(CheckResult("root-enumerations-agree", 60, ce))

    window = window_elements(bounds.m_max)
    checked = 0
    ce = None
    for i, u in enumerate(window):
        for v in window[i + 1 :]:
            checked += 1
            d = dist(u, v, gcm, bounds)
            adjacent = u.order_key - v.order_key == 1
            if (d == 1) != adjacent and ce is None:
                ce = {"upper": str(u), "lower": str(v), "dist": d}
            if adjacent and ce is None:
                down, label = hasse_neighbors(u).down
                step_roots = [
                    beta
                    for _, beta, _ in _dist1_graph(gcm, v.order_key, u.order_key)[
                        u.order_key - v.order_key
                    ]
                ]
                if down != v or step_roots[0].coords != ((1, 0) if label == 1 else (0, 1)):
                    ce = {"upper": str(u), "lower": str(v), "root": str(step_roots[0])}
    results.append(CheckResult("hasse-matches-dist", checked, ce))

    ce = None
    for m in range(31):
        if dominance_class(orbit_weight(x(m), gcm)) != NEITHER or (
            dominance_class(orbit_weight(y(m), gcm)) != NEITHER
        ):
            ce = {"m": m}
            break
    results.append(CheckResult("orbit-never-dominant", 31, ce))

    return VerificationReport(tuple(results))
