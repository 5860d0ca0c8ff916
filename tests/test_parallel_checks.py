"""check_crystal_axioms and check_connectedness split across forked workers.

The axioms check runs one share per root index i, connectedness one
share per route (the reduction walks here, BFS coverage in a child).
As in test_parallel_equivalence.py, the fork width is set by replacing
os.sched_getaffinity.  Every split must give the bytes of the
in-process run, report the serial run's first counterexample wherever
the fault sits, recompute a share whose worker died or sent a short
payload, run its second share in-process when the fork is refused, stay
in-process while other threads run, and leave no child process behind.
"""

import errno
import json
import os
import threading

import pytest

from lscrystal import oracle
from lscrystal.cartan import GCM
from lscrystal.oracle import SearchBounds, enumerate_ls_paths
from test_parallel_equivalence import (  # noqa: F401 (no_children_left is an autouse fixture)
    _killed,
    _no_fork,
    _nonzero_exit,
    _refusing,
    _set_cpus,
    _short_payload,
    no_children_left,
)

G33 = GCM(3, 3)
B = SearchBounds(4, 3)
CHECKS = (oracle.check_crystal_axioms, oracle.check_connectedness)


def _counting_forks(monkeypatch) -> list:
    forks = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _lines(check, monkeypatch, n, gcm=G33):
    _set_cpus(monkeypatch, n)
    return check(gcm, B).to_json_lines()


def _window():
    return sorted(enumerate_ls_paths(G33, B), key=str)


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("ab", [(3, 3), (2, 5), (4, 4)])
def test_every_split_prints_the_same_bytes(monkeypatch, check, ab):
    forks = _counting_forks(monkeypatch)
    lines = {n: _lines(check, monkeypatch, n, GCM(*ab)) for n in (1, 2, 3)}
    assert lines[1] == lines[2] == lines[3]
    assert all('"status": "pass"' in line for line in lines[1])
    # two shares each: one child at n = 2 and at n = 3, none at n = 1
    assert len(forks) == 2


def _plant_axioms_faults(monkeypatch, faults):
    """fe_generic returns pi itself as f_i pi for every (position, i) in
    faults, which breaks weight-step and inverse-pair there."""
    window = _window()
    targets = {(window[pos], i) for pos, i in faults}
    real = oracle.fe_generic

    def planted(pi, i, gcm):
        fi, ei = real(pi, i, gcm)
        return (pi, ei) if (pi, i) in targets else (fi, ei)

    monkeypatch.setattr(oracle, "fe_generic", planted)
    return window


@pytest.mark.parametrize(
    "faults, reported",
    [
        ({(9, 1)}, (9, 1)),
        ({(7, 2)}, (7, 2)),
        ({(9, 1), (7, 2)}, (7, 2)),
        ({(7, 1), (9, 2)}, (7, 1)),
        ({(8, 1), (8, 2)}, (8, 1)),
    ],
)
def test_axioms_report_the_serial_first_counterexample(monkeypatch, faults, reported):
    window = _plant_axioms_faults(monkeypatch, faults)
    lines = {n: _lines(oracle.check_crystal_axioms, monkeypatch, n) for n in (1, 2, 3)}
    assert lines[1] == lines[2] == lines[3]
    by_name = {json.loads(line)["check"]: json.loads(line) for line in lines[2]}
    pos, i = reported
    for name in ("weight-step", "inverse-pair"):
        assert by_name[name]["status"] == "fail"
        assert by_name[name]["counterexample"] == {"path": window[pos].to_json(), "i": i}


def _plant_connectedness_faults(monkeypatch, route):
    """A fault in the reduction walks, in BFS coverage, or in both."""
    window = _window()
    if route in ("reduction", "both"):
        # e_max stays put on one path that starts with x_m, m > 0: its
        # walk runs out of steps
        stuck = next(pi for pi in reversed(window) if pi.keys[0] > 0)
        real_e_max = oracle.e_max
        monkeypatch.setattr(oracle, "e_max", lambda pi, i, gcm: pi if pi == stuck else real_e_max(pi, i, gcm))
    if route in ("bfs", "both"):
        lost = window[5]
        real_bfs = oracle.crystal_bfs

        def losing(gcm, expand):
            order, edges = real_bfs(gcm, expand)
            return [pi for pi in order if pi != lost], edges

        monkeypatch.setattr(oracle, "crystal_bfs", losing)


@pytest.mark.parametrize("route", ["reduction", "bfs", "both"])
def test_connectedness_reports_the_serial_counterexample_in_either_route(monkeypatch, route):
    _plant_connectedness_faults(monkeypatch, route)
    lines = {n: _lines(oracle.check_connectedness, monkeypatch, n) for n in (1, 2, 3)}
    assert lines[1] == lines[2] == lines[3]
    status = {json.loads(line)["check"]: json.loads(line)["status"] for line in lines[2]}
    assert status == {
        "reduction-to-straight": "pass" if route == "bfs" else "fail",
        "bfs-coverage": "pass" if route == "reduction" else "fail",
    }


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("child", [_short_payload, _nonzero_exit, _killed])
def test_a_failed_worker_share_is_recomputed_in_process(monkeypatch, check, child):
    # faults in both shares, so a share left out or read as passing shows
    if check is oracle.check_crystal_axioms:
        _plant_axioms_faults(monkeypatch, {(9, 1), (7, 2)})
    else:
        _plant_connectedness_faults(monkeypatch, "both")
    expected = _lines(check, monkeypatch, 1)
    assert sum('"status": "fail"' in line for line in expected) == 2
    monkeypatch.setattr(oracle, "_share_child", child)
    assert _lines(check, monkeypatch, 2) == expected


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("refused", [1, 2])
def test_a_refused_fork_runs_the_share_left_in_process(monkeypatch, check, refused):
    # faults in both shares, so a share left out or read as passing shows
    if check is oracle.check_crystal_axioms:
        _plant_axioms_faults(monkeypatch, {(9, 1), (7, 2)})
    else:
        _plant_connectedness_faults(monkeypatch, "both")
    expected = _lines(check, monkeypatch, 1)
    assert sum('"status": "fail"' in line for line in expected) == 2
    forks = _refusing(monkeypatch, "fork", refused, errno.EAGAIN)
    assert _lines(check, monkeypatch, 3) == expected
    # two shares: one fork, refused when refused = 1 and made when 2
    assert len(forks) == 1


def test_a_passing_route_sent_as_null_is_not_recomputed(monkeypatch):
    calls = []
    real = oracle._bfs_uncovered

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_bfs_uncovered", counted)
    expected = _lines(oracle.check_connectedness, monkeypatch, 1)
    assert len(calls) == 1
    # the child runs the search, and the passing line it sends, with a
    # null counterexample, is its result
    assert _lines(oracle.check_connectedness, monkeypatch, 2) == expected
    assert len(calls) == 1


def test_shares_return_json_shaped_values(monkeypatch):
    # a tuple here next to a list decoded from a child would not compare
    # every share below fails, so each holds an order and a counterexample
    _plant_axioms_faults(monkeypatch, {(9, 1), (7, 2)})
    monkeypatch.setattr(oracle, "e_max", lambda pi, i, gcm: pi)
    window = _window()
    shares = [
        oracle._axioms_share(G33, window, 1),
        oracle._axioms_share(G33, window, 2),
        # the window at m <= 4 is not covered from m <= 1
        oracle._bfs_uncovered(G33, SearchBounds(1, 3), window),
        oracle._reduction_stuck(G33, B, window),
        oracle._equivalence_share(G33, 2, 2, 0, 1),
    ]
    for share in shares:
        assert json.loads(json.dumps(share)) == share
        assert any(ce is not None for _, _, ce in share.values())
        # a line has an order exactly when it has a counterexample
        assert all((order is None) == (ce is None) for _, order, ce in share.values())


def test_merged_sums_each_line_and_keeps_its_smallest_order():
    a = {"x": [3, [2, 1], {"at": "a"}], "y": [1, None, None], "w": [2, None, None]}
    b = {"x": [4, [1, 2], {"at": "b"}], "y": [5, None, None], "w": [6, "i(m=1)", {"at": "b"}]}
    lines = oracle._merged([a, b]).to_json_lines()
    assert oracle._merged([b, a]).to_json_lines() == lines
    assert [json.loads(line) for line in lines] == [
        {"check": "w", "status": "fail", "checked": 8, "counterexample": {"at": "b"}},
        {"check": "x", "status": "fail", "checked": 7, "counterexample": {"at": "b"}},
        {"check": "y", "status": "pass", "checked": 6},
    ]
    # on a tie the earlier share's counterexample stays: a serial run meets it first
    tie = [{"z": [1, 0, {"at": "a"}]}, {"z": [2, 0, {"at": "b"}]}]
    assert oracle._merged(tie).results == (oracle.CheckResult("z", 3, {"at": "a"}),)


@pytest.mark.parametrize("check", CHECKS)
def test_one_cpu_and_other_running_threads_keep_the_check_in_process(monkeypatch, check):
    expected = _lines(check, monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _lines(check, monkeypatch, 1) == expected
    _set_cpus(monkeypatch, 3)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        assert check(G33, B).to_json_lines() == expected
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
