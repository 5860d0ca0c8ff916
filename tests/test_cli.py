import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lscrystal import cli, oracle
from lscrystal.cartan import GCM
from lscrystal.explicit import ExplicitPath
from lscrystal.oracle import CheckResult, SearchBounds, VerificationReport
from lscrystal.weyl import pq_table


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sequences(capsys):
    code, out, _ = run(capsys, "sequences", "--a", "3", "--b", "3", "--n", "5")
    assert code == 0
    assert out.splitlines() == ["p: 1 1 2 5 13 34", "q: 1 1 2 5 13 34"]


def test_sequences_json(capsys):
    code, out, _ = run(capsys, "sequences", "--a", "2", "--b", "3", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out) == {"p": ["1", "1", "2", "3", "7"], "q": ["1", "1", "1", "2", "3"]}


def test_sequences_rejects_non_hyperbolic(capsys):
    code, _, err = run(capsys, "sequences", "--a", "1", "--b", "3", "--n", "2")
    assert code == 2
    assert "hyperbolic" in err


def test_orbit_table(capsys):
    code, out, _ = run(capsys, "orbit", "--a", "3", "--b", "3", "--m-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x2: 5L1 - 2L2, neither"
    assert lines[2] == "x0: 1L1 - 1L2, neither"
    assert len(lines) == 5


def test_orbit_boundary_identities(capsys):
    code, out, _ = run(capsys, "orbit", "--a", "1", "--b", "5", "--m-max", "1")
    assert code == 0
    assert "y1: 0L1 + 1L2, dominant" in out
    code, out, _ = run(capsys, "orbit", "--a", "5", "--b", "1", "--m-max", "1")
    assert code == 0
    assert "x1: -1L1 + 0L2, antidominant" in out


def test_positive_roots(capsys):
    code, out, _ = run(capsys, "positive-roots", "--a", "3", "--b", "3", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["(0, 1)", "(1, 0)", "(1, 3)", "(3, 1)", "(3, 8)", "(8, 3)"]


def test_positive_roots_exits_1_on_a_recurrence_root_missing_from_the_orbit(capsys, monkeypatch):
    real = cli.positive_roots_weyl
    # the reflection orbit with its first root, alpha_2, dropped
    monkeypatch.setattr(cli, "positive_roots_weyl", lambda gcm, n: real(gcm, n)[1:])
    code, out, err = run(capsys, "positive-roots", "--a", "3", "--b", "3", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: recurrence root (0, 1) missing from the reflection orbit\n"


WORKED = '{"form": "i", "m": 2, "s": 3, "sigmas": ["0", "1/7", "2/3", "1"]}'
STRAIGHT_LS = '{"dirs": [{"family": "x", "m": 0}], "sigmas": ["0", "1"]}'


def test_apply_both_on_worked_path(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "apply", "--a", "2", "--b", "3", "--op", "f2", "--mode", "both",
        stdin=WORKED, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out) == {"form": "i", "m": 2, "s": 3, "sigmas": ["0", "2/7", "2/3", "1"]}


def test_apply_null(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "apply", "--a", "3", "--b", "3", "--op", "e1", "--mode", "both",
        stdin=STRAIGHT_LS, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.strip() == "null"


def test_apply_output_keeps_input_schema(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "apply", "--a", "3", "--b", "3", "--op", "f1", "--mode", "generic",
        stdin=STRAIGHT_LS, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out) == {"dirs": [{"family": "x", "m": 1}], "sigmas": ["0", "1"]}


NOT_LS = '{"dirs": [{"family": "x", "m": 1}, {"family": "x", "m": 0}], "sigmas": ["0", "1/2", "1"]}'
NOT_LS_MINIMUM = '{"dirs": [{"family": "x", "m": 3}, {"family": "x", "m": 0}], "sigmas": ["0", "1/2", "1"]}'
THREE_PIECE_LS = json.dumps(
    {
        "dirs": [{"family": "x", "m": 4}, {"family": "x", "m": 3}, {"family": "x", "m": 2}],
        "sigmas": ["0", "1/13", "2/5", "1"],
    }
)


@pytest.mark.parametrize("op", ["f1", "f2", "e1", "e2"])
def test_apply_generic_rejects_non_ls_path(capsys, monkeypatch, op):
    for stdin, reason in (
        # H_1 has no section to reflect for f1/e1, and f2/e2 used to answer on it anyway
        (NOT_LS, "path endpoint Weight(0, 1/2) is not integral; corrupt path"),
        # the endpoint weight -2L1 + 6L2 is integral, but H_1 dips to -5/2 at t = 1/2
        (NOT_LS_MINIMUM, "H_1 has the non-integral local minimum -5/2"),
    ):
        code, out, err = run(
            capsys, "apply", "--a", "3", "--b", "3", "--op", op, "--mode", "generic",
            stdin=stdin, monkeypatch=monkeypatch,
        )
        assert (code, out) == (3, "")
        assert err == f"error: not an LS path: {reason}\n"


def test_apply_generic_rejects_path_reflecting_out_of_order(capsys, monkeypatch):
    # integral weight and minima, but e_1 reflects the end of the x4 piece to x5,
    # which cannot follow x4
    payload = '{"dirs": [{"family": "x", "m": 4}, {"family": "y", "m": 1}], "sigmas": ["0", "4/5", "1"]}'
    code, out, err = run(
        capsys, "apply", "--a", "5", "--b", "1", "--op", "e1", "--mode", "generic",
        stdin=payload, monkeypatch=monkeypatch,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: not an LS path: directions not strictly decreasing")


@pytest.mark.parametrize(
    "op, expected",
    [
        ("f1", {"dirs": [{"family": "x", "m": 5}, {"family": "x", "m": 4}, {"family": "x", "m": 3},
                         {"family": "x", "m": 2}], "sigmas": ["0", "1/34", "1/13", "2/5", "1"]}),
        ("f2", {"dirs": [{"family": "x", "m": 4}, {"family": "x", "m": 3}, {"family": "x", "m": 2}],
                "sigmas": ["0", "2/13", "2/5", "1"]}),
        ("e1", None),
        ("e2", {"dirs": [{"family": "x", "m": 3}, {"family": "x", "m": 2}], "sigmas": ["0", "2/5", "1"]}),
    ],
)
def test_apply_generic_on_ls_path_unchanged(capsys, monkeypatch, op, expected):
    code, out, err = run(
        capsys, "apply", "--a", "3", "--b", "3", "--op", op, "--mode", "generic",
        stdin=THREE_PIECE_LS, monkeypatch=monkeypatch,
    )
    assert code == 0 and err == ""
    assert json.loads(out) == expected


@pytest.mark.parametrize(
    "ab, op, payload, reason",
    [
        ((1, 5), "f2", '{"form": "ii", "m": 2, "s": 2, "sigmas": ["0", "1/2", "1"]}', "directions mix families"),
        ((5, 1), "e1", '{"form": "i", "m": 1, "s": 2, "sigmas": ["0", "1/3", "1"]}', "not consecutive"),
    ],
)
def test_apply_generic_image_without_normal_form(capsys, monkeypatch, ab, op, payload, reason):
    # the input passes the LS check, but its generic image is no normal
    # form, so there is nothing to print in the "form" schema
    code, out, err = run(
        capsys, "apply", "--a", str(ab[0]), "--b", str(ab[1]), "--op", op, "--mode", "generic",
        stdin=payload, monkeypatch=monkeypatch,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: not a normal form: ") and reason in err


def test_apply_explicit_mode_needs_deep_matrix(capsys, monkeypatch):
    code, _, err = run(
        capsys, "apply", "--a", "1", "--b", "5", "--op", "f1", "--mode", "explicit",
        stdin=WORKED, monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "a, b >= 2" in err


def test_apply_malformed_input(capsys, monkeypatch):
    code, _, _ = run(
        capsys, "apply", "--a", "3", "--b", "3", "--op", "f1", "--mode", "both",
        stdin="not json", monkeypatch=monkeypatch,
    )
    assert code == 3
    code, _, _ = run(
        capsys, "apply", "--a", "3", "--b", "3", "--op", "f1", "--mode", "both",
        stdin='{"weird": 1}', monkeypatch=monkeypatch,
    )
    assert code == 3


def test_apply_reports_engine_disagreement(capsys, monkeypatch):
    # sabotage one generic operator to prove the comparison is live
    monkeypatch.setitem(cli._OPS, "f1", (lambda pi, i, gcm: None, cli.f_explicit, 1))
    code, out, _ = run(
        capsys, "apply", "--a", "3", "--b", "3", "--op", "f1", "--mode", "both",
        stdin=STRAIGHT_LS, monkeypatch=monkeypatch,
    )
    assert code == 4
    payload = json.loads(out)
    assert payload["generic"] is None
    assert payload["explicit"] == {"form": "i", "m": 1, "s": 1, "sigmas": ["0", "1"]}
    assert (payload["a"], payload["b"], payload["op"]) == (3, 3, "f1")
    assert payload["input"] == json.loads(STRAIGHT_LS)
    # the payload alone reproduces the disagreement
    argv = ["apply", "--a", str(payload["a"]), "--b", str(payload["b"]), "--op", payload["op"]]
    again = run(capsys, *argv, "--mode", "both", stdin=json.dumps(payload["input"]), monkeypatch=monkeypatch)
    assert again[:2] == (code, out)


def test_engine_disagreement_payload_keeps_a_normal_form_input(capsys, monkeypatch):
    monkeypatch.setitem(cli._OPS, "e2", (lambda pi, i, gcm: None, cli.e_explicit, 2))
    stdin = '{"form": "ii", "m": 3, "s": 2, "sigmas": ["0", "1/4", "1"]}'
    code, out, _ = run(
        capsys, "apply", "--a", "2", "--b", "5", "--op", "e2", "--mode", "both",
        stdin=stdin, monkeypatch=monkeypatch,
    )
    assert code == 4
    payload = json.loads(out)
    assert (payload["a"], payload["b"], payload["op"]) == (2, 5, "e2")
    assert payload["input"] == json.loads(stdin)
    assert payload["explicit"] == {"form": "ii", "m": 3, "s": 1, "sigmas": ["0", "1"]}
    assert payload["generic"] is None
    again = run(
        capsys, "apply", "--a", "2", "--b", "5", "--op", "e2", "--mode", "both",
        stdin=json.dumps(payload["input"]), monkeypatch=monkeypatch,
    )
    assert again[:2] == (code, out)


def test_apply_both_takes_the_agreement_rule_of_the_equivalence_check(capsys, monkeypatch):
    # the engine's image converts to the closed form's path, but the
    # check's conversion back names another normal form: that is a
    # disagreement for apply --mode both as for verify equivalence
    real = oracle.from_ls_path
    other = ExplicitPath.from_json({"form": "i", "m": 2, "s": 1, "sigmas": ["0", "1"]})
    monkeypatch.setattr(oracle, "from_ls_path", lambda pi: other if real(pi).m == 1 else real(pi))
    stdin = '{"form": "i", "m": 0, "s": 1, "sigmas": ["0", "1"]}'
    code, out, _ = run(
        capsys, "apply", "--a", "3", "--b", "3", "--op", "f1", "--mode", "both",
        stdin=stdin, monkeypatch=monkeypatch,
    )
    assert code == 4
    payload = json.loads(out)
    assert (payload["a"], payload["b"], payload["op"]) == (3, 3, "f1")
    assert payload["input"] == json.loads(stdin)
    assert payload["explicit"] == {"form": "i", "m": 1, "s": 1, "sigmas": ["0", "1"]}
    assert payload["generic"] == {"dirs": [{"family": "x", "m": 1}], "sigmas": ["0", "1"]}


def test_validate_accepts_and_echoes_normal_form(capsys, monkeypatch):
    code, out, _ = run(
        capsys, "validate", "--a", "2", "--b", "3", stdin=WORKED, monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out) == json.loads(WORKED)


def test_validate_rejects_bad_breakpoint(capsys, monkeypatch):
    bad = '{"form": "i", "m": 0, "s": 2, "sigmas": ["0", "1/2", "1"]}'
    code, _, err = run(
        capsys, "validate", "--a", "3", "--b", "3", stdin=bad, monkeypatch=monkeypatch
    )
    assert code == 1
    assert "invalid" in err


@pytest.mark.parametrize("command", ["validate", "apply"])
@pytest.mark.parametrize(
    "payload",
    [
        '{"form": "i", "m": true, "s": 1, "sigmas": ["0", "1"]}',
        '{"form": "i", "m": 0, "s": true, "sigmas": ["0", "1"]}',
        '{"form": "i", "m": 0, "s": 2, "sigmas": ["0", 0.5, "1"]}',
        '{"form": "i", "m": 0, "s": 1, "sigmas": [false, "1"]}',
        '{"form": "i", "m": 0, "s": 1, "sigmas": "01"}',
        '{"dirs": [{"family": "x", "m": true}], "sigmas": ["0", "1"]}',
        '{"dirs": [{"family": "x", "m": 1}, {"family": "x", "m": 0}], "sigmas": ["0", 0.1, "1"]}',
        '{"dirs": [{"family": "x", "m": 0}], "sigmas": [0, true]}',
    ],
)
def test_wrong_json_types_are_malformed(capsys, monkeypatch, command, payload):
    argv = [command, "--a", "3", "--b", "3"] + (["--op", "f1"] if command == "apply" else [])
    code, out, err = run(capsys, *argv, stdin=payload, monkeypatch=monkeypatch)
    assert code == 3
    assert out == ""
    assert err.startswith("error: bad")


@pytest.mark.parametrize("command", ["validate", "apply"])
@pytest.mark.parametrize(
    "payload, reason",
    [
        ("[" * 100_000, "recursion depth"),
        ("1" * 5001, "5001 digits"),
        ('{"form": "i", "m": ' + "7" * 5001 + ', "s": 1, "sigmas": ["0", "1"]}', "5001 digits"),
    ],
    ids=["nested-arrays", "long-integer", "long-integer-field"],
)
def test_json_the_parser_refuses_is_malformed(capsys, monkeypatch, command, payload, reason):
    # deep nesting raises RecursionError and an integer past the
    # int-to-string digit limit ValueError, not JSONDecodeError
    argv = [command, "--a", "3", "--b", "3"] + (["--op", "f1"] if command == "apply" else [])
    code, out, err = run(capsys, *argv, stdin=payload, monkeypatch=monkeypatch)
    assert code == 3
    assert out == ""
    assert err.startswith("error: stdin is not JSON: ")
    assert reason in err
    assert err.count("\n") == 1


def _long_run(s: int) -> dict:
    """The run x_{s-1}, ..., x_0 with s equal pieces, off the grid."""
    return {
        "dirs": [{"family": "x", "m": k} for k in range(s - 1, -1, -1)],
        "sigmas": ["0", *[f"{k}/{s}" for k in range(1, s)], "1"],
    }


@pytest.mark.parametrize("command", ["validate", "apply"])
@pytest.mark.parametrize(
    "doc, over",
    [
        ({"form": "i", "m": 20000, "s": 1, "sigmas": ["0", "1"]}, "m = 20000"),
        ({"form": "ii", "m": cli.INDEX_CAP + 1, "s": 2, "sigmas": ["0", "1/2", "1"]}, "m = 1001"),
        ({"form": "i", "m": 0, "s": cli.INDEX_CAP + 1, "sigmas": ["0", "1"]}, "s = 1001"),
        ({"dirs": [{"family": "y", "m": cli.INDEX_CAP + 1}], "sigmas": ["0", "1"]}, "m = 1001"),
        (_long_run(cli.INDEX_CAP + 1), "s = 1001"),
    ],
    ids=["form-m", "form-ii-m", "form-s", "dirs-m", "dirs-count"],
)
def test_m_and_s_above_the_input_cap_are_malformed(capsys, monkeypatch, command, doc, over):
    # refused at the JSON boundary: the path parser, and with it every
    # p/q table and orbit weight, never runs
    monkeypatch.setattr(cli, "_parse_path", lambda data: pytest.fail("parsed an over-cap path"))
    argv = [command, "--a", "3", "--b", "3"] + (["--op", "f1"] if command == "apply" else [])
    code, out, err = run(capsys, *argv, stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 3
    assert out == ""
    assert err == f"error: {over} is above the input cap of 1000 on m and s\n"


@pytest.mark.parametrize("command", ["validate", "apply"])
def test_m_at_the_input_cap_is_accepted(capsys, monkeypatch, command):
    argv = [command, "--a", "3", "--b", "3"] + (["--op", "f1"] if command == "apply" else [])
    doc = {"form": "ii", "m": cli.INDEX_CAP, "s": 1, "sigmas": ["0", "1"]}
    code, out, err = run(capsys, *argv, stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert json.loads(out)["m"] == cli.INDEX_CAP


def test_s_at_the_input_cap_reaches_the_grid_check(capsys, monkeypatch):
    doc = _long_run(cli.INDEX_CAP)
    code, out, err = run(capsys, "validate", "--a", "3", "--b", "3", stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith("invalid: breakpoint ")


@pytest.mark.parametrize(
    "argv",
    [
        ["sequences", "--n", "2000"],
        ["sequences", "--n", "2000", "--json"],
        ["orbit", "--m-max", "2000"],
        ["orbit", "--m-max", "2000", "--json"],
        ["positive-roots", "--n", "2000"],
        ["positive-roots", "--n", "2000", "--json"],
    ],
)
def test_entries_past_the_digit_limit_are_bad_parameters(argv):
    """A subprocess at the lowest limit the interpreter allows (640
    digits), so that the limit in the message is read from the process,
    not assumed; the limit of this process is left as it is."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "640"}
    proc = subprocess.run(
        [sys.executable, "-m", "lscrystal.cli", argv[0], "--a", "3", "--b", "3", *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
    )
    option = "--m-max" if argv[0] == "orbit" else "--n"
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: an entry has more than 640 digits, the limit of int-to-string conversion "
        f"(sys.get_int_max_str_digits()); lower {option}\n"
    )


def _first_index_past(limit: int, *sequences) -> int:
    return min(next(k for k, v in enumerate(seq) if abs(v) >= 10**limit) for seq in sequences)


def _p(a: int, b: int, count: int) -> list[int]:
    p = [1, 1]
    for k in range(count):
        p.append((b if k % 2 == 0 else a) * p[-1] - p[-2])
    return p


@pytest.mark.parametrize("ab", [(3, 3), (2, 5), (1, 5)])
def test_digit_limit_exit_comes_at_the_first_entry_past_it(capsys, ab):
    """Each command exits 2 exactly when its table of length n holds an
    entry past the limit, however far past that entry n lies."""
    a, b = ab
    # the root coordinates: c_{k+1} = a d_k - c_{k-1}, d_{k+1} = b c_k - d_{k-1}
    c, d = [0, 1], [0, 1]
    for _ in range(4000):
        c_next, d_next = a * d[-1] - c[-2], b * c[-1] - d[-2]
        c.append(c_next)
        d.append(d_next)
    n_seq = _first_index_past(640, _p(a, b, 4000), _p(b, a, 4000))
    n_roots = _first_index_past(640, c, d)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for command, option, n in (
            ("sequences", "--n", n_seq),
            # x_m and y_m read p_m, p_{m+1} and q_m, q_{m+1}
            ("orbit", "--m-max", n_seq - 1),
            ("positive-roots", "--n", n_roots),
        ):
            for value, code in ((n - 1, 0), (n, 2), (10**7, 2)):
                got, _, err = run(capsys, command, "--a", str(a), "--b", str(b), option, str(value))
                assert got == code, (command, value, err)
                assert err.endswith(f"lower {option}\n") == (code == 2)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("argv", [["sequences", "--n", "10000000"], ["orbit", "--m-max", "10000000"]])
def test_a_refused_command_leaves_no_probe_table_cached(capsys, argv):
    # the probe's tables reach past the digit limit and are never
    # printed, so the process keeps none of them
    pq_table.cache_clear()
    code, out, _ = run(capsys, argv[0], "--a", "3", "--b", "3", *argv[1:])
    assert (code, out) == (2, "")
    assert pq_table.cache_info().currsize == 0


# one path in both spellings; its f1 image at a = b = 100000 has a
# denominator past the default digit limit
DIGIT_LIMIT_PAYLOADS = (
    '{"dirs": [{"family": "x", "m": 1000}], "sigmas": ["0", "1"]}',
    '{"form": "i", "m": 1000, "s": 1, "sigmas": ["0", "1"]}',
)
APPLY_DIGIT_LIMIT_ERROR = (
    "error: an entry has more than {} digits, the limit of int-to-string conversion "
    "(sys.get_int_max_str_digits()); lower --a, --b or the path's m\n"
)


@pytest.mark.parametrize("mode", ["generic", "explicit", "both"])
@pytest.mark.parametrize("stdin", DIGIT_LIMIT_PAYLOADS)
def test_apply_image_past_the_digit_limit_is_bad_parameters(capsys, monkeypatch, stdin, mode):
    code, out, err = run(
        capsys, "apply", "--a", "100000", "--b", "100000", "--op", "f1", "--mode", mode,
        stdin=stdin, monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "")
    assert err == APPLY_DIGIT_LIMIT_ERROR.format(sys.get_int_max_str_digits())


@pytest.mark.parametrize("stdin", DIGIT_LIMIT_PAYLOADS)
def test_engine_disagreement_past_the_digit_limit_is_bad_parameters(capsys, monkeypatch, stdin):
    monkeypatch.setitem(cli._OPS, "f1", (lambda pi, i, gcm: None, cli.f_explicit, 1))
    code, out, err = run(
        capsys, "apply", "--a", "100000", "--b", "100000", "--op", "f1", "--mode", "both",
        stdin=stdin, monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "")
    assert err == APPLY_DIGIT_LIMIT_ERROR.format(sys.get_int_max_str_digits())


def test_validate_ls_input_converts(capsys, monkeypatch):
    two = json.dumps(
        {
            "dirs": [{"family": "y", "m": 1}, {"family": "y", "m": 2}],
            "sigmas": ["0", "1/2", "1"],
        }
    )
    code, out, _ = run(
        capsys, "validate", "--a", "3", "--b", "3", stdin=two, monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out) == {"form": "ii", "m": 2, "s": 2, "sigmas": ["0", "1/2", "1"]}


def _validating_constructions(monkeypatch) -> list[tuple[str, int, int]]:
    """The (form, m, s) of every ExplicitPath the validating constructor
    builds from now on; the conversions' _from_valid builds are not in it."""
    built = []
    init = ExplicitPath.__init__

    def counting(self, form, m, s, *args, **kwargs):
        built.append((form, m, s))
        init(self, form, m, s, *args, **kwargs)

    monkeypatch.setattr(ExplicitPath, "__init__", counting)
    return built


def test_validate_builds_its_input_once(capsys, monkeypatch):
    # a form document is built by its parser, then only grid-checked; a
    # dirs document is converted, then only grid-checked
    built = _validating_constructions(monkeypatch)
    code, out, _ = run(capsys, "validate", "--a", "2", "--b", "3", stdin=WORKED, monkeypatch=monkeypatch)
    assert (code, out, built) == (0, json.dumps(json.loads(WORKED)) + "\n", [("i", 2, 3)])
    built.clear()
    worked_dirs = json.dumps({"dirs": [{"family": "x", "m": k} for k in (4, 3, 2)], "sigmas": ["0", "1/7", "2/3", "1"]})
    code, out, _ = run(capsys, "validate", "--a", "2", "--b", "3", stdin=worked_dirs, monkeypatch=monkeypatch)
    assert (code, out, built) == (0, json.dumps(json.loads(WORKED)) + "\n", [])


def test_apply_both_builds_only_its_input_and_the_closed_form_image(capsys, monkeypatch):
    built = _validating_constructions(monkeypatch)
    code, out, _ = run(
        capsys, "apply", "--a", "2", "--b", "3", "--op", "f2", "--mode", "both",
        stdin=WORKED, monkeypatch=monkeypatch,
    )
    assert (code, json.loads(out)["sigmas"]) == (0, ["0", "2/7", "2/3", "1"])
    assert built == [("i", 2, 3), ("i", 2, 3)]


def test_graph_depth_one(capsys):
    code, out, _ = run(capsys, "graph", "--a", "3", "--b", "3", "--depth", "1")
    assert code == 0
    assert out.splitlines()[0] == "digraph crystal {"
    assert 'n0 [label="i(m=0, s=1; 0, 1) | 1L1 - 1L2"];' in out
    assert 'n0 -> n1 [label="f1"];' in out
    assert 'n2 -> n0 [label="f2"];' in out


def test_graph_depth_zero_single_node(capsys):
    code, out, _ = run(capsys, "graph", "--a", "3", "--b", "3", "--depth", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 1 and doc["edges"] == []


def test_graph_json_nodes_are_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "graph", "--a", "2", "--b", "3", "--depth", "2", "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_graph_rejects_boundary(capsys):
    code, _, _ = run(capsys, "graph", "--a", "1", "--b", "5", "--depth", "1")
    assert code == 2


def test_graph_depth_at_the_cap_is_accepted(capsys):
    depth = str(cli.GRAPH_DEPTH_CAP)
    code, out, err = run(capsys, "graph", "--a", "3", "--b", "3", "--depth", depth)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert sum(" -> " not in line for line in lines[1:-1]) == 14895
    assert sum(" -> " in line for line in lines) == 15986


@pytest.mark.parametrize("depth", [cli.GRAPH_DEPTH_CAP + 1, 10**9])
@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_graph_depth_above_the_cap_is_bad_parameters(capsys, depth, fmt):
    code, out, err = run(capsys, "graph", "--a", "3", "--b", "3", "--depth", str(depth), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: --depth must be at most {cli.GRAPH_DEPTH_CAP}\n"


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_graph_labels_past_the_digit_limit_are_bad_parameters(capsys, fmt):
    # at a = b = 10**1500 depth 3 still prints; depth 4 reaches a
    # breakpoint past the default limit, and nothing is printed
    ab = ["--a", str(10**1500), "--b", str(10**1500)]
    code, out, err = run(capsys, "graph", *ab, "--depth", "3", "--format", fmt)
    assert (code, err) == (0, "") and out
    code, out, err = run(capsys, "graph", *ab, "--depth", "4", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (
        f"error: an entry has more than {sys.get_int_max_str_digits()} digits, the limit of "
        "int-to-string conversion (sys.get_int_max_str_digits()); lower --a, --b or --depth\n"
    )


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--a", "3", "--b", "3", "--m-max", "2", "--s-max", "2", "all")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 18
    for line in lines:
        assert json.loads(line)["status"] == "pass"


def test_verify_single_check(capsys):
    code, out, _ = run(
        capsys, "verify", "--a", "2", "--b", "3", "--m-max", "2", "--s-max", "2", "structure"
    )
    assert code == 0
    assert all(json.loads(line)["check"] for line in out.splitlines())


def test_verify_boundary_gating(capsys):
    code, _, err = run(capsys, "verify", "--a", "1", "--b", "5", "classification")
    assert code == 2
    assert "a, b >= 2" in err
    code, out, _ = run(capsys, "verify", "--a", "1", "--b", "5", "--m-max", "1", "--s-max", "1", "all")
    assert code == 0
    checks = [json.loads(line)["check"] for line in out.splitlines()]
    assert checks == ["degenerate-orbit-identities"]


def test_verify_looks_checks_up_at_call_time(capsys, monkeypatch):
    # the check registry must call whatever the module name holds now, so
    # a replaced check (a stub here, a tracing wrapper elsewhere) runs
    calls = []

    def stub(gcm, bounds):
        calls.append((gcm, bounds))
        return VerificationReport((CheckResult("stub", 1, None),))

    monkeypatch.setattr("lscrystal.cli.check_structure", stub)
    code, out, _ = run(capsys, "verify", "--a", "3", "--b", "3", "--m-max", "1", "--s-max", "1", "structure")
    assert code == 0
    assert calls == [(GCM(3, 3), SearchBounds(1, 1))]
    assert [json.loads(line)["check"] for line in out.splitlines()] == ["stub"]


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()
