"""Replay a recorded corpus of CLI runs and demand the same bytes.

Each case in tests/golden/cli.json holds argv, stdin (or null), stdout,
stderr and the exit code of one `lscrystal` run.  The replay calls
cli.main in process with COLUMNS pinned, so argparse wraps its usage
lines the same way on every terminal.

To re-record (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden_cli.py --record

Recording skips any case that raises instead of exiting; such a case is
a bug to fix and pin with its own test, not a behaviour to freeze.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from lscrystal import cli

CORPUS = Path(__file__).parent / "golden" / "cli.json"
MATRICES = ((2, 3), (2, 5), (3, 3), (1, 5), (5, 1))
SELECTORS = ("all", "classification", "connectedness", "straight", "axioms", "equivalence", "structure")
OPS = ("f1", "f2", "e1", "e2")
MODES = ("generic", "explicit", "both")

# valid, non-LS and off-grid payloads, run through every op and mode;
# every deep matrix also gets a few of its own normal forms (_own_forms)
PATH_PAYLOADS = (
    '{"form": "i", "m": 2, "s": 3, "sigmas": ["0", "1/7", "2/3", "1"]}',
    '{"form": "i", "m": 0, "s": 1, "sigmas": ["0", "1"]}',
    '{"form": "ii", "m": 2, "s": 2, "sigmas": ["0", "1/2", "1"]}',
    '{"form": "i", "m": 0, "s": 2, "sigmas": ["0", "1/2", "1"]}',
    '{"form": "ii", "m": 0, "s": 2, "sigmas": ["0", "1/2", "1"]}',
    '{"form": "ii", "m": 1, "s": 2, "sigmas": ["0", "1/2", "1"]}',
    '{"dirs": [{"family": "x", "m": 0}], "sigmas": ["0", "1"]}',
    '{"dirs": [{"family": "y", "m": 1}, {"family": "y", "m": 2}], "sigmas": ["0", "1/2", "1"]}',
    '{"dirs": [{"family": "x", "m": 4}, {"family": "x", "m": 3}, {"family": "x", "m": 2}],'
    ' "sigmas": ["0", "1/13", "2/5", "1"]}',
    '{"dirs": [{"family": "x", "m": 1}, {"family": "x", "m": 0}], "sigmas": ["0", "1/2", "1"]}',
    '{"dirs": [{"family": "x", "m": 4}, {"family": "y", "m": 1}], "sigmas": ["0", "4/5", "1"]}',
    '{"dirs": [{"family": "x", "m": 3}, {"family": "x", "m": 1}], "sigmas": ["0", "1/2", "1"]}',
    '{"dirs": [{"family": "x", "m": 1}, {"family": "x", "m": 2}], "sigmas": ["0", "1/2", "1"]}',
)
# wrongly typed, zero-denominator and non-JSON payloads: one op, every mode
BAD_PAYLOADS = (
    '{"form": "i", "m": true, "s": 1, "sigmas": ["0", "1"]}',
    '{"form": "i", "m": 0, "s": 2, "sigmas": ["0", 0.5, "1"]}',
    '{"form": "iii", "m": 0, "s": 1, "sigmas": ["0", "1"]}',
    '{"form": "i", "m": 0, "s": 1, "sigmas": "01"}',
    '{"form": "i", "m": 0, "s": 1}',
    '{"dirs": [{"family": "z", "m": 1}], "sigmas": ["0", "1"]}',
    '{"dirs": [{"family": "x", "m": 0}], "sigmas": [0, true]}',
    '{"dirs": [], "sigmas": ["0"]}',
    '{"dirs": [{"family": "x", "m": 1}], "sigmas": ["0", "1/0"]}',
    '{"form": "i", "m": 0, "s": 2, "sigmas": ["0", "1/0", "1"]}',
    '{"weird": 1}',
    "[1, 2]",
    "not json",
    "",
)
# m or s above the input cap of apply and validate (refused, exit 3), and m at it
CAP_PAYLOADS = (
    '{"form": "i", "m": 20000, "s": 1, "sigmas": ["0", "1"]}',
    '{"form": "ii", "m": 3, "s": 1001, "sigmas": ["0", "1"]}',
    '{"dirs": [{"family": "y", "m": 1001}], "sigmas": ["0", "1"]}',
    '{"form": "ii", "m": 1000, "s": 1, "sigmas": ["0", "1"]}',
)
# one path in both spellings whose f1 image at a = b = 100000 has a
# breakpoint past the int-to-string digit limit (exit 2)
DIGIT_LIMIT_PAYLOADS = (
    '{"dirs": [{"family": "x", "m": 1000}], "sigmas": ["0", "1"]}',
    '{"form": "i", "m": 1000, "s": 1, "sigmas": ["0", "1"]}',
)


def run_case(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
        mock.patch.object(sys, "stdin", io.StringIO(stdin or "")),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = cli.main(list(argv))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def _load():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("chunk", range(8))
def test_corpus_replays_byte_identical(chunk):
    cases = _load()[chunk::8]
    assert cases
    for case in cases:
        got = run_case(case["argv"], case["stdin"])
        want = {k: case[k] for k in ("stdout", "stderr", "code")}
        assert got == want, case["argv"]


def test_corpus_covers_every_subcommand():
    commands = {case["argv"][0] for case in _load() if case["argv"]}
    assert {"sequences", "orbit", "positive-roots", "apply", "validate", "graph", "verify"} <= commands


# ---------------------------------------------------------------------------
# recording


def _own_forms(a, b):
    """A few normal forms of the matrix, in both path spellings."""
    from lscrystal import GCM, enumerate_explicit, to_ls_path

    forms = sorted(enumerate_explicit(GCM(a, b), 3, 3), key=str)
    picked = [forms[k * len(forms) // 4] for k in (1, 2, 3)]
    return [json.dumps(ep.to_json()) for ep in picked] + [json.dumps(to_ls_path(picked[1]).to_json())]


def _cases():
    for a, b in MATRICES:
        ab = ["--a", str(a), "--b", str(b)]
        deep = a >= 2 and b >= 2
        for n in ("1", "5", "12", "0"):
            for fmt in ([], ["--json"]):
                yield ["sequences", *ab, "--n", n, *fmt], None
                yield ["positive-roots", *ab, "--n", n, *fmt], None
        for m in ("0", "2", "4", "-1"):
            for fmt in ([], ["--json"]):
                yield ["orbit", *ab, "--m-max", m, *fmt], None
        for depth in ("0", "1", "2", "3", "-1"):
            for fmt in ("dot", "json"):
                yield ["graph", *ab, "--depth", depth, "--format", fmt], None
        yield ["graph", *ab], None
        for sel in SELECTORS:
            yield ["verify", *ab, "--m-max", "2", "--s-max", "2", sel], None
        yield ["verify", *ab, "--m-max", "-1", "--s-max", "2", "structure"], None
        yield ["verify", *ab, "--m-max", "1", "--s-max", "0", "all"], None
        payloads = PATH_PAYLOADS + tuple(_own_forms(a, b) if deep else ())
        for stdin in payloads + BAD_PAYLOADS:
            yield ["validate", *ab], stdin
            for op in OPS if stdin in payloads else OPS[:1]:
                for mode in MODES:
                    yield ["apply", *ab, "--op", op, "--mode", mode], stdin
        yield ["apply", *ab, "--op", "f1"], payloads[0]
    for a, b in ((1, 4), (0, 9), (2, 2), (-1, -9)):
        ab = ["--a", str(a), "--b", str(b)]
        yield ["sequences", *ab], None
        yield ["orbit", *ab], None
        yield ["positive-roots", *ab], None
        yield ["graph", *ab], None
        yield ["verify", *ab, "structure"], None
        yield ["validate", *ab], PATH_PAYLOADS[0]
        yield ["apply", *ab, "--op", "f1", "--mode", "generic"], PATH_PAYLOADS[5]
    for argv in (
        [],
        ["frobnicate"],
        ["sequences"],
        ["sequences", "--a", "3"],
        ["sequences", "--a", "x", "--b", "3"],
        ["orbit", "--a", "3", "--b", "3", "--m-max", "1.5"],
        ["apply", "--a", "3", "--b", "3"],
        ["apply", "--a", "3", "--b", "3", "--op", "g1"],
        ["apply", "--a", "3", "--b", "3", "--op", "f1", "--mode", "fast"],
        ["graph", "--a", "3", "--b", "3", "--format", "png"],
        ["verify", "--a", "3", "--b", "3"],
        ["verify", "--a", "3", "--b", "3", "everything"],
        ["validate", "--a", "3", "--b", "3", "--extra"],
    ):
        yield argv, None
    # entries past the interpreter's int-to-string digit limit
    for argv in (
        ["sequences", "--a", "3", "--b", "3", "--n", "12000"],
        ["orbit", "--a", "3", "--b", "3", "--m-max", "12000"],
    ):
        for fmt in ([], ["--json"]):
            yield argv + fmt, None
    for stdin in CAP_PAYLOADS:
        yield ["validate", "--a", "3", "--b", "3"], stdin
        yield ["apply", "--a", "3", "--b", "3", "--op", "f1"], stdin
    for stdin in DIGIT_LIMIT_PAYLOADS:
        for mode in MODES:
            yield ["apply", "--a", "100000", "--b", "100000", "--op", "f1", "--mode", mode], stdin
    # far past the digit limit: the tables grow in doubling lengths and
    # stop near the first entry past it, instead of running out of memory
    for argv in (
        ["sequences", "--a", "3", "--b", "3", "--n", "10000000"],
        ["orbit", "--a", "3", "--b", "3", "--m-max", "10000000"],
        ["positive-roots", "--a", "3", "--b", "3", "--n", "10000000"],
    ):
        for fmt in ([], ["--json"]):
            yield argv + fmt, None
    # past the graph depth cap (exit 2)
    for fmt in ("dot", "json"):
        yield ["graph", "--a", "3", "--b", "3", "--depth", "17", "--format", fmt], None
    # an integral endpoint weight, but H_1 has a non-integral local minimum (exit 3)
    yield ["apply", "--a", "3", "--b", "3", "--op", "f1", "--mode", "generic"], (
        '{"dirs": [{"family": "x", "m": 3}, {"family": "x", "m": 0}], "sigmas": ["0", "1/2", "1"]}'
    )
    # node labels past the int-to-string digit limit (exit 2, empty stdout)
    for fmt in ("dot", "json"):
        yield ["graph", "--a", str(10**1500), "--b", str(10**1500), "--depth", "4", "--format", fmt], None
    # a decimal exponent whose power of ten is past the digit limit is
    # refused before that power is built (exit 3 and 1); a short one reads
    # as any other decimal
    past = '{"form": "ii", "m": 2, "s": 2, "sigmas": ["0", "1e-4301", "1"]}'
    short = '{"form": "ii", "m": 2, "s": 2, "sigmas": ["0", "5e-1", "1"]}'
    yield ["apply", "--a", "3", "--b", "3", "--op", "f1"], past
    yield ["validate", "--a", "3", "--b", "3"], past
    yield ["validate", "--a", "3", "--b", "3"], short


def record():
    cases = []
    for argv, stdin in _cases():
        try:
            result = run_case(argv, stdin)
        except Exception as err:  # noqa: BLE001 - a raising case is skipped, see the docstring
            print(f"skipped (raises {type(err).__name__}): {argv} {stdin!r}", file=sys.stderr)
            continue
        cases.append({"argv": argv, "stdin": stdin, **result})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(cases, indent=0) + "\n")
    print(f"{len(cases)} cases written to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_cli.py --record")
    record()
