"""check_operator_equivalence split across forked workers.

The worker count is the size of the affinity mask, which these tests
set by replacing os.sched_getaffinity.  Every split must give the bytes
of the in-process run, re-raise a worker's error with its message,
recompute a share whose worker died or sent a short payload, run the
shares left in-process once a fork or pipe is refused, and leave no
child process behind.
"""

import errno
import os
import signal
import threading
from functools import partial

import pytest

import test_pair_operators
from lscrystal import oracle
from lscrystal.cartan import GCM
from lscrystal.explicit import normal_forms_by_shape, to_ls_path

G33 = GCM(3, 3)


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_fork():
    raise AssertionError("forked although the check should run in-process")


def _refusing(monkeypatch, name, k, code):
    """Make the k-th call of os.fork or os.pipe (name) raise OSError with
    errno code, as the system does under a process or descriptor limit,
    and return the list of calls made."""
    calls = []
    real = getattr(os, name)

    def refused_at_k():
        calls.append(1)
        if len(calls) == k:
            raise OSError(code, os.strerror(code))
        return real()

    monkeypatch.setattr(os, name, refused_at_k)
    return calls


@pytest.fixture(autouse=True)
def no_children_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("ab", [(3, 3), (2, 5), (4, 4)])
def test_every_split_prints_the_same_bytes(monkeypatch, ab):
    gcm = GCM(*ab)
    lines = {}
    for n in (1, 2, 3):
        _set_cpus(monkeypatch, n)
        lines[n] = oracle.check_operator_equivalence(gcm, 4, 3).to_json_lines()
    assert lines[1] == lines[2] == lines[3]
    assert '"status": "pass"' in lines[1][0]


def test_reported_counterexample_is_the_first_in_str_order_with_three_workers(monkeypatch):
    _set_cpus(monkeypatch, 3)
    test_pair_operators.test_reported_counterexample_is_the_first_in_str_order(monkeypatch)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("position", [7, 8, 9])
def test_an_error_in_any_share_is_raised_with_its_message(monkeypatch, n, position):
    target = to_ls_path(list(normal_forms_by_shape(G33, 4, 3))[position])
    real = oracle.fe_generic

    def planted(pi, i, gcm):
        if pi == target:
            raise ValueError(f"planted on {pi}")
        return real(pi, i, gcm)

    monkeypatch.setattr(oracle, "fe_generic", planted)
    _set_cpus(monkeypatch, n)
    with pytest.raises(ValueError) as info:
        oracle.check_operator_equivalence(G33, 4, 3)
    assert str(info.value) == f"planted on {target}"


def _short_payload(w, *args):
    os.write(w, b'[1, "x')
    os._exit(0)


def _nonzero_exit(w, *args):
    os._exit(3)


def _killed(w, *args):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("child", [_short_payload, _nonzero_exit, _killed])
def test_a_failed_worker_share_is_recomputed_in_process(monkeypatch, child):
    serial = oracle._equivalence_share(G33, 4, 3, 0, 1)
    monkeypatch.setattr(oracle, "_share_child", child)
    _set_cpus(monkeypatch, 3)
    report = oracle.check_operator_equivalence(G33, 4, 3)
    assert serial == {"operator-equivalence": [7112, None, None]}
    assert report.results[0].checked == 7112
    assert report.all_passed


@pytest.mark.parametrize("name, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)])
@pytest.mark.parametrize("refused", [1, 2])
def test_a_refused_fork_runs_the_shares_left_in_process(monkeypatch, name, code, refused):
    _set_cpus(monkeypatch, 1)
    expected = oracle.check_operator_equivalence(G33, 4, 3).to_json_lines()
    calls = _refusing(monkeypatch, name, refused, code)
    _set_cpus(monkeypatch, 3)
    assert oracle.check_operator_equivalence(G33, 4, 3).to_json_lines() == expected
    assert '"checked": 7112' in expected[0]
    # no fork is tried after the refused one
    assert len(calls) == refused


def test_shares_left_by_a_refused_fork_keep_their_order(monkeypatch):
    _set_cpus(monkeypatch, 4)
    _refusing(monkeypatch, "fork", 2, errno.EAGAIN)
    # share 1 in a child, 0, 2 and 3 here
    assert oracle._run_shares([partial(str, k) for k in range(4)]) == ["0", "1", "2", "3"]


def test_one_cpu_and_a_missing_fork_run_in_process(monkeypatch):
    expected = oracle.check_operator_equivalence(G33, 3, 2).to_json_lines()
    monkeypatch.setattr(os, "fork", _no_fork)
    _set_cpus(monkeypatch, 1)
    assert oracle.check_operator_equivalence(G33, 3, 2).to_json_lines() == expected
    monkeypatch.delattr(os, "fork")
    _set_cpus(monkeypatch, 3)
    assert oracle.check_operator_equivalence(G33, 3, 2).to_json_lines() == expected


def test_other_running_threads_keep_the_check_in_process(monkeypatch):
    expected = oracle.check_operator_equivalence(G33, 3, 2).to_json_lines()
    monkeypatch.setattr(os, "fork", _no_fork)
    _set_cpus(monkeypatch, 3)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        assert oracle.check_operator_equivalence(G33, 3, 2).to_json_lines() == expected
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
