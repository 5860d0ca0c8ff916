import json
import math
import os
from fractions import Fraction as F

import pytest

from lscrystal.cartan import DOMINANT, GCM, Weight
from lscrystal.explicit import FORM_I, FORM_II, ExplicitPath, enumerate_explicit, to_ls_path
from lscrystal import oracle
from lscrystal.oracle import (
    ROOT_HEIGHT_MAX,
    OracleBoundError,
    SearchBounds,
    VerificationReport,
    _chain_roots,
    _chains_by_denominator,
    _dist1_graph,
    _down_steps,
    _normal_forms_in_window,
    _numerators,
    _policy_by_denominator,
    _sigma_chain_cached,
    _strings,
    check_classification,
    check_connectedness,
    check_crystal_axioms,
    check_operator_equivalence,
    check_straight_through_lambda,
    check_structure,
    dist,
    enumerate_ls_paths,
    is_ls_path_oracle,
    sigma_chain_exists,
    sigma_chain_lengths,
)
from lscrystal.paths import LSPath, e_generic, f_generic, straight_path
from lscrystal.weyl import (
    BY_ORDER_KEY,
    IDENTITY,
    HasseNeighbors,
    PQTable,
    hasse_neighbors,
    orbit_weight,
    positive_roots_recurrence,
    pq_table,
    reflect_by_root,
    root_pairing,
    window_elements,
    x,
    y,
)
from references import denominator_policy, positive_root
from walks import G25, deep_walk

G33 = GCM(3, 3)
G23 = GCM(2, 3)
B33 = SearchBounds(3, 3)


def test_bounds_validation():
    assert SearchBounds(3, 3).chain_len_max == 8
    with pytest.raises(ValueError):
        SearchBounds(-1, 1)
    with pytest.raises(ValueError):
        SearchBounds(2, 0)


@pytest.mark.parametrize("m_max, s_max", [(True, 2), (2, True), (False, 1), (2.0, 2), (2, 2.0), ("2", 2), (2, None)])
def test_bounds_reject_non_int_fields(m_max, s_max):
    # the bounds key the policy caches and set the chain cap: True must not run as 1
    with pytest.raises(TypeError):
        SearchBounds(m_max, s_max)


def test_dist_frozen_values():
    assert dist(IDENTITY, IDENTITY, G33, B33) == 0
    assert dist(x(1), IDENTITY, G33, B33) == 1
    assert dist(x(2), IDENTITY, G33, B33) == 2
    assert dist(x(2), y(2), G33, B33) == 4
    with pytest.raises(ValueError):
        dist(IDENTITY, x(1), G33, B33)


@pytest.mark.parametrize("wider", [None, SearchBounds(4, 1)], ids=["alone", "after-a-wider-window"])
def test_dist_saturation_is_loud(wider):
    # the steps are shared by every window: a wider one that answered
    # first must not let the tight one through
    if wider is not None:
        assert dist(x(4), y(4), G33, wider) == 8
    tight = SearchBounds(1, 1)
    message = r"^order interval \[y4, x4\] is longer than chain_len_max = 4$"
    with pytest.raises(OracleBoundError, match=message):
        dist(x(4), y(4), G33, tight)


@pytest.mark.parametrize("wider", [None, SearchBounds(5, 2)], ids=["alone", "after-a-wider-window"])
def test_sigma_chain_past_the_cap_is_loud(wider):
    # x2 and y5 are 7 apart, past chain_len_max = 6, and no single root
    # links them: the search must still refuse rather than answer (),
    # also right after a wider window has answered the same pair
    if wider is not None:
        assert sigma_chain_lengths(x(2), y(5), F(1, 2), GCM(2, 5), wider) == ()
    message = r"^order interval \[y5, x2\] is longer than chain_len_max = 6$"
    with pytest.raises(OracleBoundError, match=message):
        sigma_chain_lengths(x(2), y(5), F(1, 2), GCM(2, 5), SearchBounds(2, 2))


# a power of ten with millions of digits, and a zero denominator
@pytest.mark.parametrize("sigma, refusal", [("1e-3000000", "needs a power of ten"), ("1/0", "has denominator 0")])
def test_sigma_chain_lengths_refuses_what_the_breakpoint_parser_refuses(sigma, refusal):
    with pytest.raises(ValueError, match=f"^sigma '{sigma}' {refusal}"):
        sigma_chain_lengths(x(2), x(1), sigma, G33, B33)
    assert sigma_chain_lengths(x(2), x(1), "1/2", G33, B33) == (1,)


def test_sigma_chain_frozen_values():
    assert not sigma_chain_exists(x(1), IDENTITY, F(1, 2), G33, B33)
    assert sigma_chain_exists(x(4), x(3), F(1, 7), G23, SearchBounds(4, 3))
    assert sigma_chain_lengths(x(1), IDENTITY, F(1, 2), G33, B33) == ()
    # every chain between adjacent elements has length exactly 1
    assert sigma_chain_lengths(x(2), x(1), F(1, 2), G33, B33) == (1,)
    with pytest.raises(ValueError):
        sigma_chain_exists(x(1), x(1), F(1, 2), G33, B33)
    with pytest.raises(ValueError):
        sigma_chain_exists(x(2), x(1), F(3, 2), G33, B33)


def _lengths_per_value(gcm, hi, lo, sigma):
    """The sigma-chain lengths from element hi down to lo, searched for
    this sigma alone: a step is allowed when sigma * val is a negative
    integer."""
    graph = _dist1_graph(gcm, lo, hi)
    memo = {lo: {0}}

    def lengths(k):
        if k not in memo:
            memo[k] = set()
            for k2, _, val in graph[k - lo]:
                scaled = sigma * val
                if scaled < 0 and scaled.denominator == 1:
                    memo[k] |= {1 + n for n in lengths(k2)}
        return memo[k]

    return tuple(sorted(lengths(hi)))


@pytest.mark.parametrize("ab", [(2, 3), (3, 3), (2, 5)])
def test_sigma_chains_depend_only_on_the_denominator(ab):
    # the fact check_classification, check_straight_through_lambda and
    # enumerate_ls_paths rest on: 1/d answers for every sigma over d,
    # against a search of each policy value on its own
    gcm = GCM(*ab)
    bounds = SearchBounds(4, 3)
    window = window_elements(bounds.m_max)
    policy = denominator_policy(gcm, bounds)
    dens = {t.denominator for t in policy}
    chains = 0
    for i, u in enumerate(window):
        for v in window[i + 1 :]:
            by_den = {d: sigma_chain_lengths(u, v, F(1, d), gcm, bounds) for d in dens}
            for t in policy:
                found = sigma_chain_lengths(u, v, t, gcm, bounds)
                assert found == by_den[t.denominator], (str(u), str(v), t)
                assert found == _lengths_per_value(gcm, u.order_key, v.order_key, t), (str(u), str(v), t)
                chains += bool(found)
    assert chains > 0


def test_no_sigma_works_between_non_adjacent():
    for sigma in denominator_policy(G33, B33):
        assert not sigma_chain_exists(x(2), IDENTITY, sigma, G33, B33)


def test_is_ls_path_oracle():
    assert is_ls_path_oracle((IDENTITY,), (F(0), F(1)), G33, B33)
    assert is_ls_path_oracle((x(2), x(1)), (F(0), F(1, 2), F(1)), G33, B33)
    assert not is_ls_path_oracle((x(1), IDENTITY), (F(0), F(1, 2), F(1)), G33, B33)
    worked = ExplicitPath(FORM_I, 2, 3, (0, F(1, 7), F(2, 3), 1))
    pi = to_ls_path(worked)
    assert is_ls_path_oracle(pi.dirs, pi.times, G23, SearchBounds(4, 3))


def test_is_ls_path_oracle_on_every_deep_walk_state():
    # each state judged in the window it needs: SearchBounds(max |key|, s)
    def verdict(pi):
        return is_ls_path_oracle(pi.dirs, pi.times, G25, SearchBounds(max(map(abs, pi.keys)), pi.s))

    states = dict.fromkeys([deep_walk()[0].pi] + [step.pi_after for step in deep_walk()])
    assert len(states) == 1437
    assert [pi for pi in states if not verdict(pi)] == []
    # the deepest state with its first interior breakpoint moved up by 1/D
    deepest = max(states, key=lambda pi: pi.s)
    assert deepest.s == 29
    nums = deepest.nums
    assert not verdict(LSPath(keys=deepest.keys, nums=(0, nums[1] + 1, *nums[2:])))


def test_denominator_policy():
    policy = denominator_policy(G33, SearchBounds(1, 1))
    # p = q = (1, 1, 2): only halves appear
    assert policy == (F(1, 2),)
    bigger = denominator_policy(G33, SearchBounds(2, 1))
    assert F(2, 5) in bigger and F(1, 2) in bigger
    assert all(0 < t < 1 for t in bigger)


def test_enumeration_frozen_windows():
    assert enumerate_ls_paths(G33, SearchBounds(0, 1)) == {straight_path()}
    five = enumerate_ls_paths(G33, SearchBounds(2, 1))
    assert five == {straight_path(w) for w in (x(2), x(1), IDENTITY, y(1), y(2))}
    assert len(enumerate_ls_paths(G33, B33)) == 21


def test_enumeration_closed_under_operators():
    bounds = SearchBounds(2, 2)
    wide = SearchBounds(4, 4)
    for pi in enumerate_ls_paths(G33, bounds):
        for op in (f_generic, e_generic):
            for i in (1, 2):
                img = op(pi, i, G33)
                if img is not None:
                    assert is_ls_path_oracle(img.dirs, img.times, G33, wide)


def test_enumeration_rejects_boundary_windows():
    with pytest.raises(ValueError):
        enumerate_ls_paths(GCM(1, 5), SearchBounds(2, 2))


def test_check_classification_passes():
    rep = check_classification(G33, B33)
    assert rep.all_passed
    names = {r.name for r in rep.results}
    assert names == {"sigma-chain-length-one", "normal-form-set-equality"}


def test_check_connectedness_passes():
    rep = check_connectedness(G33, B33)
    assert rep.all_passed
    assert {r.name for r in rep.results} == {"reduction-to-straight", "bfs-coverage"}


def _bfs_slacks(monkeypatch, starve_first: bool) -> list[int]:
    """The s slack of each BFS check_connectedness runs, read off the
    expansion predicate; with starve_first the first BFS reaches only
    its start node.  One CPU in the affinity mask keeps the search,
    which otherwise runs in a forked child, in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    runs = []
    real = oracle.crystal_bfs
    top = B33.m_max

    def pieces(n: int) -> LSPath:
        # n directions, every key inside the window
        return LSPath(keys=tuple(range(top, top - n, -1)), nums=tuple(range(n + 1)))

    def recording(gcm, expand):
        runs.append(max(n for n in range(1, 2 * top + 2) if expand(pieces(n), 0)) - B33.s_max)
        if starve_first and len(runs) == 1:
            return [straight_path()], []
        return real(gcm, expand)

    monkeypatch.setattr(oracle, "crystal_bfs", recording)
    return runs


def test_connectedness_bfs_runs_at_slack_1_when_that_covers_the_window(monkeypatch):
    runs = _bfs_slacks(monkeypatch, starve_first=False)
    assert check_connectedness(G33, B33).all_passed
    assert runs == [1]


def test_connectedness_bfs_falls_back_to_slack_2_with_targets_uncovered(monkeypatch):
    want = check_connectedness(G33, B33)
    runs = _bfs_slacks(monkeypatch, starve_first=True)
    assert check_connectedness(G33, B33) == want
    assert runs == [1, 2]


def test_reduction_step_count():
    # (x_2; 0, 1) needs exactly two maximal e-steps to reach the straight path
    from lscrystal.paths import e_max

    cur = straight_path(x(2))
    steps = 0
    while cur != straight_path():
        cur = e_max(cur, cur.dirs[0].descent_index, G33)
        steps += 1
    assert steps == 2


def test_check_straight_through_lambda_passes():
    assert check_straight_through_lambda(G33, B33).all_passed


def test_check_crystal_axioms_passes():
    assert check_crystal_axioms(G33, B33).all_passed


def test_check_operator_equivalence_passes():
    rep = check_operator_equivalence(G23, 3, 2)
    assert rep.all_passed
    assert rep.results[0].checked > 0


@pytest.mark.parametrize("window", [(-1, 3), (2, 0), (True, 2)])
def test_check_operator_equivalence_refuses_what_search_bounds_refuses(window):
    # the same window every other check takes through SearchBounds
    with pytest.raises((TypeError, ValueError)) as want:
        SearchBounds(*window)
    with pytest.raises(want.type) as got:
        check_operator_equivalence(G33, *window)
    assert str(got.value) == str(want.value)


def test_check_structure_passes():
    assert check_structure(G33, B33).all_passed
    assert check_structure(G23, B33).all_passed


def test_check_structure_boundary_identities():
    for a, b in ((1, 5), (5, 1), (1, 6), (6, 1)):
        rep = check_structure(GCM(a, b), SearchBounds(1, 1))
        assert rep.all_passed
        assert [r.name for r in rep.results] == ["degenerate-orbit-identities"]


def test_report_json_lines_and_combine():
    results = check_structure(G33, SearchBounds(1, 1)).results + check_classification(G33, SearchBounds(1, 1)).results
    rep = VerificationReport(results)
    lines = rep.to_json_lines()
    assert len(lines) == len(rep.results)
    assert all('"status": "pass"' in line for line in lines)
    assert lines == sorted(lines)


# ---------------------------------------------------------------------------
# every failure report: one fault planted on the module attribute a check
# reads, and the fail lines verify would print


def _fail_lines(report):
    """The report's fail lines as verify prints them, parsed, by check."""
    lines = [json.loads(line) for line in report.to_json_lines()]
    return {line["check"]: line for line in lines if line["status"] == "fail"}


def _fail(check, checked, counterexample):
    return {check: {"check": check, "status": "fail", "checked": checked, "counterexample": counterexample}}


def _doubled_p(gcm, n):
    table = pq_table(gcm, n)
    return PQTable(tuple(2 * v for v in table.p), table.q)


def _swapped_down_label(w):
    neighbors = hasse_neighbors(w)
    down, label = neighbors.down
    return HasseNeighbors(up=neighbors.up, down=(down, 3 - label))


@pytest.mark.parametrize(
    "attr, planted, ab, failing",
    [
        (
            "pq_table",
            _doubled_p,
            (3, 3),
            _fail("consecutive-coprimality", 51, {"k": 0})
            | _fail("sequence-monotonicity", 51, {"p": ["2", "2", "4", "10", "26", "68"], "q": ["1", "1", "2", "5", "13", "34"]}),
        ),
        (
            "positive_roots_recurrence",
            lambda gcm, n: positive_roots_recurrence(gcm, n) + [(99, 1)],
            (3, 3),
            _fail("root-enumerations-agree", 60, {"weyl-only": [], "recurrence-only": [[99, 1]]}),
        ),
        ("dist", lambda *args: 2, (3, 3), _fail("hasse-matches-dist", 21, {"upper": "x3", "lower": "x2", "dist": 2})),
        (
            "hasse_neighbors",
            _swapped_down_label,
            (3, 3),
            _fail("hasse-matches-dist", 21, {"upper": "x3", "lower": "x2", "root": "x0(a1)=(1, 0)"}),
        ),
        ("dominance_class", lambda mu: DOMINANT, (3, 3), _fail("orbit-never-dominant", 31, {"m": 0})),
        (
            "orbit_weight",
            lambda w, gcm: Weight(0, 0),
            (1, 5),
            _fail("degenerate-orbit-identities", 1, {"element": "y1", "weight": "0L1 + 0L2"}),
        ),
        (
            "orbit_weight",
            lambda w, gcm: Weight(0, 0),
            (5, 1),
            _fail("degenerate-orbit-identities", 1, {"element": "x1", "weight": "0L1 + 0L2"}),
        ),
    ],
)
def test_planted_structure_fault_reports_its_counterexample(monkeypatch, attr, planted, ab, failing):
    monkeypatch.setattr(oracle, attr, planted)
    assert _fail_lines(check_structure(GCM(*ab), B33)) == failing


def test_path_missing_from_the_enumeration_fails_on_the_normal_form_side(monkeypatch):
    def dropped(gcm, bounds):
        paths = enumerate_ls_paths(gcm, bounds)
        return paths - {min(paths, key=str)}

    monkeypatch.setattr(oracle, "enumerate_ls_paths", dropped)
    straight = {"dirs": [{"family": "x", "m": 0}], "sigmas": ["0", "1"]}
    assert _fail_lines(check_classification(G33, B33)) == _fail(
        "normal-form-set-equality", 21, {"side": "normal-form-only", "path": straight}
    )


# ---------------------------------------------------------------------------
# each fact computed once: reflections per element, strings per window,
# the window's normal forms built directly

DEEP_MATRICES = ((2, 3), (3, 2), (2, 5), (3, 3))


def _down_steps_per_interval(gcm, lo, hi):
    """_down_steps recomputed for one interval alone, pairing by pairing."""
    weights = {k: orbit_weight(BY_ORDER_KEY[k], gcm) for k in range(lo, hi + 1)}
    by_weight = {wt: k for k, wt in weights.items()}
    steps = []
    for k in range(lo, hi + 1):
        row = []
        for beta in _chain_roots(gcm):
            val = root_pairing(weights[k], beta, gcm)
            if val < 0:
                k2 = by_weight.get(reflect_by_root(weights[k], beta, gcm))
                if k2 is not None:
                    row.append((k2, beta, val))
        steps.append(tuple(row))
    return tuple(steps)


@pytest.mark.parametrize("ab", DEEP_MATRICES)
def test_down_steps_equal_per_interval_recomputation(ab):
    gcm = GCM(*ab)
    intervals = [(lo, hi) for lo in range(-5, 6) for hi in range(lo + 1, 6)]
    assert len(intervals) == 55
    for lo, hi in intervals:
        assert _down_steps(gcm, lo, hi) == _down_steps_per_interval(gcm, lo, hi), (lo, hi)


def _dist1_graph_per_pair(gcm, lo, hi, bounds):
    """_dist1_graph as a scan of every pair of the interval, rows as
    sets: the pairs at dist 1, each with exactly one linking step."""
    steps = _down_steps(gcm, lo, hi)
    graph = []
    for k in range(lo, hi + 1):
        row = set()
        for k2 in range(lo, k):
            if dist(BY_ORDER_KEY[k], BY_ORDER_KEY[k2], gcm, bounds) == 1:
                links = [(t, beta, int(val)) for t, beta, val in steps[k - lo] if t == k2]
                assert len(links) == 1, (k, k2)
                row |= set(links)
        graph.append(row)
    return graph


@pytest.mark.parametrize("ab", DEEP_MATRICES)
def test_dist1_graph_equals_per_pair_scan(ab):
    gcm = GCM(*ab)
    bounds = SearchBounds(5, 3)
    intervals = [(lo, hi) for lo in range(-5, 6) for hi in range(lo + 1, 6)]
    assert len(intervals) == 55
    for lo, hi in intervals:
        graph = [set(row) for row in _dist1_graph(gcm, lo, hi)]
        assert graph == _dist1_graph_per_pair(gcm, lo, hi, bounds), (lo, hi)


def _chain_roots_by_word_length(gcm):
    """The bounded roots x_l(alpha_2) and y_l(alpha_1), l <= ROOT_HEIGHT_MAX,
    keyed by coords, the first witness of each kept."""
    by_coords = {}
    for l in range(ROOT_HEIGHT_MAX + 1):
        for beta in (positive_root(x(l), 2, gcm), positive_root(y(l), 1, gcm)):
            if sum(beta.coords) <= ROOT_HEIGHT_MAX:
                by_coords.setdefault(beta.coords, beta)
    return by_coords


@pytest.mark.parametrize("ab", DEEP_MATRICES + ((1, 5), (5, 1)))
def test_chain_roots_equal_word_length_scan(ab):
    gcm = GCM(*ab)
    roots = _chain_roots(gcm)
    assert len({beta.coords for beta in roots}) == len(roots)
    assert {beta.coords: beta for beta in roots} == _chain_roots_by_word_length(gcm)


def test_two_roots_linking_one_pair_are_refused(monkeypatch):
    # plant a second root between x2 and x1: the step table must refuse it
    real = oracle._reflections

    def planted(gcm, key):
        out = real(gcm, key)
        if key == 2:
            _, val, image = next(r for r in out if r[2] == orbit_weight(x(1), gcm))
            out += ((_chain_roots(gcm)[-1], val, image),)
        return out

    monkeypatch.setattr(oracle, "_reflections", planted)
    _down_steps.cache_clear()
    try:
        with pytest.raises(ValueError, match="more than one reflecting root between x2 and x1"):
            dist(x(2), IDENTITY, G33, B33)
    finally:
        for cache in (_down_steps, _dist1_graph, _sigma_chain_cached):
            cache.cache_clear()


def test_a_pair_no_bounded_chain_links_is_refused(monkeypatch):
    # with no root under the height cap no step exists, so dist has no
    # answer; (7, 11) is a matrix whose cached steps no other test reads
    gcm, bounds = GCM(7, 11), SearchBounds(2, 1)
    caches = (oracle._reflections, _down_steps)
    monkeypatch.setattr(oracle, "_chain_roots", lambda gcm: ())
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(OracleBoundError, match=r"^no chain from x2 to x0 using roots of height <= 40$"):
            dist(x(2), IDENTITY, gcm, bounds)
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    assert dist(x(2), IDENTITY, gcm, bounds) == 2


@pytest.mark.parametrize("ab", ((3, 3), (2, 3)))
def test_strings_equal_one_walk_per_path(ab):
    gcm = GCM(*ab)
    paths = sorted(enumerate_ls_paths(gcm, SearchBounds(5, 3)), key=str)
    held = 0
    for op in (e_generic, f_generic):
        for i in (1, 2):
            memo = _strings(op, paths, i, gcm)
            # every window path is recorded, and nothing outside the window
            assert set(memo) == set(paths)
            held += len(memo)
            for pi in paths:
                assert memo[pi] == _strings(op, (pi,), i, gcm)[pi], (str(pi), op.__name__, i)
    assert held <= 4 * len(paths)


@pytest.mark.parametrize("ab", DEEP_MATRICES)
def test_window_normal_forms_are_the_fitting_enumerated_ones(ab):
    gcm = GCM(*ab)
    every = enumerate_explicit(gcm, 5, 3)
    for m_max in range(6):
        for s_max in range(1, 4):
            fitting = {
                to_ls_path(ep)
                for ep in every
                if ep.m <= m_max
                and ep.s <= s_max
                and (ep.form == FORM_II or ep.m + ep.s - 1 <= m_max)
            }
            assert _normal_forms_in_window(gcm, SearchBounds(m_max, s_max)) == fitting, (m_max, s_max)


# ---------------------------------------------------------------------------
# one sigma-chain search per (pair, denominator)

B34 = SearchBounds(4, 3)


def test_one_search_per_pair_and_denominator():
    _sigma_chain_cached.cache_clear()
    check_classification(G33, B34)
    window = window_elements(B34.m_max)
    pairs = len(window) * (len(window) - 1) // 2
    dens = {t.denominator for t in denominator_policy(G33, B34)}
    assert pairs == 36 and len(dens) > 1
    misses = _sigma_chain_cached.cache_info().misses
    assert misses == pairs * len(dens)
    check_straight_through_lambda(G33, B34)
    enumerate_ls_paths(G33, B34)
    assert _sigma_chain_cached.cache_info().misses == misses
    # a larger window searches only the (pair, d) facts it adds: the
    # searches are keyed by the matrix, never by the window
    facts = _window_facts(G33, B34)
    wider = SearchBounds(5, 3)
    new = _window_facts(G33, wider) - facts
    assert len(new) < len(_window_facts(G33, wider))
    check_classification(G33, wider)
    check_straight_through_lambda(G33, wider)
    assert _sigma_chain_cached.cache_info().misses == misses + len(new)


def _window_facts(gcm, bounds):
    """(upper key, lower key, d) for every window pair and policy denominator d."""
    keys = range(bounds.m_max, -bounds.m_max - 1, -1)
    dens = {t.denominator for t in denominator_policy(gcm, bounds)}
    return {(u, v, d) for u in keys for v in keys if v < u for d in dens}


def _plant(monkeypatch, fault):
    """Route the oracle's sigma-chain search through fault(hi, lo, d, lengths)."""
    real = oracle._sigma_chain_cached

    def planted(gcm, hi, lo, d):
        return fault(hi, lo, d, real(gcm, hi, lo, d))

    monkeypatch.setattr(oracle, "_sigma_chain_cached", planted)
    return planted


def _length_scan_per_value(search):
    """sigma-chain-length-one at (3,3), m <= 4, s <= 3 as a scan of every
    window pair and policy value, in policy order."""
    window = window_elements(B34.m_max)
    chains, bad = 0, None
    for i, u in enumerate(window):
        for v in window[i + 1 :]:
            for t in denominator_policy(G33, B34):
                found = search(G33, u.order_key, v.order_key, t.denominator)
                if found:
                    chains += 1
                    if set(found) != {1} and bad is None:
                        bad = {"upper": str(u), "lower": str(v), "sigma": str(t), "lengths": list(found)}
    return {"check": "sigma-chain-length-one", "status": "fail", "checked": chains, "counterexample": bad}


def _lambda_scan_per_value(search):
    """no-turn-at-lambda at (3,3), m <= 4, s <= 3 as a scan of every
    identity pair and policy value, in policy order."""
    checked, bad = 0, None
    for w in window_elements(B34.m_max):
        if w.is_identity:
            continue
        upper, lower = (w, IDENTITY) if w.order_key > 0 else (IDENTITY, w)
        for t in denominator_policy(G33, B34):
            checked += 1
            if bad is None and search(G33, upper.order_key, lower.order_key, t.denominator):
                bad = {"upper": str(upper), "lower": str(lower), "sigma": str(t)}
    return {"check": "no-turn-at-lambda", "status": "fail", "checked": checked, "counterexample": bad}


def _faulty_denominators(which):
    dens = sorted({t.denominator for t in denominator_policy(G33, B34)})
    return {"smallest": dens[:1], "largest": dens[-1:], "two": dens[1:3], "every": dens}[which]


@pytest.mark.parametrize("which", ["smallest", "largest", "two", "every"])
def test_planted_chain_of_length_two_fails_like_a_per_value_scan(monkeypatch, which):
    # (x3, x2) and (y2, y3) have chains of lengths (1, 2) at the faulty denominators
    faulty = _faulty_denominators(which)
    planted_pairs = {(3, 2), (-2, -3)}
    search = _plant(monkeypatch, lambda hi, lo, d, found: (1, 2) if (hi, lo) in planted_pairs and d in faulty else found)
    results = {r.name: r for r in check_classification(G33, B34).results}
    expected = _length_scan_per_value(search)
    assert results["sigma-chain-length-one"].to_json() == expected
    assert expected["counterexample"]["sigma"] == f"1/{max(faulty)}"


@pytest.mark.parametrize("which", ["smallest", "largest", "two"])
def test_planted_turn_at_lambda_fails_like_a_per_value_scan(monkeypatch, which):
    # (identity, y2) and (x3, identity) admit a chain at the faulty denominators
    faulty = _faulty_denominators(which)
    planted_pairs = {(0, -2), (3, 0)}
    search = _plant(monkeypatch, lambda hi, lo, d, found: (1,) if (hi, lo) in planted_pairs and d in faulty else found)
    results = {r.name: r for r in check_straight_through_lambda(G33, B34).results}
    expected = _lambda_scan_per_value(search)
    assert results["no-turn-at-lambda"].to_json() == expected
    assert (expected["counterexample"]["upper"], expected["counterexample"]["sigma"]) == ("x3", f"1/{max(faulty)}")
    assert not results["no-multi-piece-path-through-lambda"].passed


# ---------------------------------------------------------------------------
# the policy as one int table, and the enumeration built from it

REFERENCE_WINDOWS = [(m_max, s_max) for m_max in range(5) for s_max in range(1, 4)]


def _policy_as_fractions(gcm, bounds):
    """The policy as reduced Fractions, sorted on int numerators over
    their common denominator."""
    table = pq_table(gcm, max(bounds.m_max + bounds.s_max, 1))
    dens = {d for d in table.p + table.q if d > 1}
    common = math.lcm(*dens)
    nums = sorted({j * (common // d) for d in dens for j in range(1, d)})
    return tuple(F(k, common) for k in nums)


def _policy_by_fraction_denominator(gcm, bounds):
    """(d, the policy values over d) per reduced denominator d, smallest
    first, grouped by each Fraction's .denominator."""
    by_den = {}
    for t in _policy_as_fractions(gcm, bounds):
        by_den.setdefault(t.denominator, []).append(t)
    return tuple((d, tuple(values)) for d, values in sorted(by_den.items()))


def _enumerate_on_fractions(gcm, bounds):
    """The enumeration on WeylElements and Fraction breakpoints, each
    turn's values read per denominator from the Fraction grouping."""
    window = window_elements(bounds.m_max)
    rows = _policy_by_fraction_denominator(gcm, bounds)
    admissible = {}
    for i, u in enumerate(window if bounds.s_max >= 2 else ()):
        for v in window[i + 1 :]:
            admissible[u, v] = tuple(
                t
                for d, values in rows
                if _sigma_chain_cached(gcm, u.order_key, v.order_key, d)
                for t in values
            )
    position = {w: i for i, w in enumerate(window)}
    out = set()

    def extend(dirs, times):
        out.add(LSPath(dirs, times + (F(1),)))
        if len(dirs) == bounds.s_max:
            return
        for v in window[position[dirs[-1]] + 1 :]:
            for t in admissible[dirs[-1], v]:
                if t > times[-1]:
                    extend(dirs + (v,), times + (t,))

    for w in window:
        extend((w,), (F(0),))
    return out


@pytest.mark.parametrize("ab", [(2, 3), (3, 3), (2, 5), (4, 4)])
def test_policy_table_equals_the_fraction_grouping(ab):
    gcm = GCM(*ab)
    for m_max, s_max in REFERENCE_WINDOWS:
        bounds = SearchBounds(m_max, s_max)
        common, rows = _policy_by_denominator(gcm, m_max + s_max)
        reference = _policy_by_fraction_denominator(gcm, bounds)
        assert rows == tuple((d, len(values)) for d, values in reference), (m_max, s_max)
        numerators = [_numerators(gcm, m_max + s_max, d) for d, _ in rows]
        assert all(type(k) is int for nums in numerators for k in nums)
        as_fractions = tuple(
            (d, tuple(F(k, common) for k in nums)) for (d, _), nums in zip(rows, numerators)
        )
        assert as_fractions == reference, (m_max, s_max)
        assert denominator_policy(gcm, bounds) == _policy_as_fractions(gcm, bounds), (m_max, s_max)
    # p = q = (1, 1): the one-piece window at the identity has no denominator
    assert _policy_by_denominator(gcm, 1) == (1, ())


@pytest.mark.parametrize("ab", [(2, 3), (3, 3), (2, 5), (4, 4)])
def test_enumeration_equals_the_fraction_enumeration(ab):
    gcm = GCM(*ab)
    turns = 0
    for m_max, s_max in REFERENCE_WINDOWS:
        bounds = SearchBounds(m_max, s_max)
        paths = enumerate_ls_paths(gcm, bounds)
        assert paths == _enumerate_on_fractions(gcm, bounds), (m_max, s_max)
        assert all(type(pi.keys) is tuple and type(pi.nums) is tuple for pi in paths)
        turns += sum(pi.s - 1 for pi in paths)
    assert turns > 0


def test_numerators_are_built_only_for_admitted_denominators():
    # one-piece windows have no turns, so no check builds any numerators
    _numerators.cache_clear()
    one = SearchBounds(8, 1)
    assert check_straight_through_lambda(G33, one).all_passed
    assert check_classification(G33, one).all_passed
    assert _numerators.cache_info().currsize == 0
    # with turns, each admitted denominator once, however often enumerated
    bounds = SearchBounds(4, 2)
    keys = range(bounds.m_max, -bounds.m_max - 1, -1)
    admitted = {
        d
        for u in keys
        for v in keys
        if v < u
        for d, _, found in _chains_by_denominator(G33, bounds.table_len, u, v)
        if found
    }
    policy = {d for d, _ in _policy_by_denominator(G33, bounds.table_len)[1]}
    assert admitted and admitted < policy
    _numerators.cache_clear()
    enumerate_ls_paths(G33, bounds)
    enumerate_ls_paths(G33, bounds)
    info = _numerators.cache_info()
    assert info.misses == info.currsize == len(admitted)


def test_windows_of_one_table_length_share_one_policy_table():
    # the policy reads the p/q tables of length m_max + s_max and nothing
    # else of the window, so (4, 3) and (5, 2) build one table between them
    _policy_by_denominator.cache_clear()
    tall, wide = SearchBounds(4, 3), SearchBounds(5, 2)
    assert denominator_policy(G33, tall) == denominator_policy(G33, wide)
    info = _policy_by_denominator.cache_info()
    assert info.misses == info.currsize == 1
    assert denominator_policy(G33, tall) != denominator_policy(G33, SearchBounds(4, 2))
