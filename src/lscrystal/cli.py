"""Command-line surface.

Exit codes are part of the interface: 0 success, 1 failed check or
invalid path, 2 bad parameters, 3 malformed input on stdin, 4 the two
operator engines disagree.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cartan import GCM, dominance_class
from .explicit import (
    ExplicitPath,
    _on_grid,
    e_explicit,
    f_explicit,
    from_ls_path,
    to_ls_path,
)
from .oracle import (
    SearchBounds,
    VerificationReport,
    _same_path,
    check_classification,
    check_connectedness,
    check_crystal_axioms,
    check_operator_equivalence,
    check_straight_through_lambda,
    check_structure,
)
from .paths import LSPath, crystal_bfs, e_generic, f_generic, h_function, weight
from .weyl import (
    orbit_weight,
    positive_roots_recurrence,
    positive_roots_weyl,
    pq_table,
    window_elements,
)

OK, CHECK_FAILED, BAD_PARAMS, MALFORMED_INPUT, ENGINES_DISAGREE = 0, 1, 2, 3, 4

# The largest m or s that apply and validate take on stdin, checked
# before anything is built.  A path of index m sizes a p/q table of m
# entries of O(m) digits each, so a few bytes could ask for any amount
# of memory.  At the cap a straight path costs a whole `validate` or
# `apply` process at most 0.7 MB of peak RSS over m = 1, at (3,3) and
# at (20,20), and no time outside the start-up spread; a straight path
# at m = 10000 costs 47 MB.  A path of the 1000 directions x_1000, ...,
# x_1, whose height functions `apply --mode generic` builds before it
# refuses the path, costs 1.2 MB over m = 1, 18 MB and 0.15 s in all
# (CPython 3.11.7, x86-64 Linux).
INDEX_CAP = 1000

# The largest --depth that graph takes, checked before the search.  The
# breadth-first search costs about 10x more for every 4 levels: at (3,3)
# a whole `graph` process at depth 12 takes 0.2 s and 16 MB of peak RSS,
# at 16 it takes 1.2-1.8 s and 28 MB, and at 20 it takes 10-18 s and
# 166 MB.  The output is written as it is formatted, so both formats
# peak alike: at the cap 4-8 s and 75 MB at (20,20), and 5-7 s and
# 88 MB at (1000,1000), whose labels have the longest numbers (CPython
# 3.11.7, x86-64 Linux).
GRAPH_DEPTH_CAP = 16

# verify selector -> (runner(gcm, bounds), needs a, b >= 2).  The runners
# look each check up by name when called, so a check replaced on this
# module (a test stub, a tracing wrapper) is the one that runs.
CHECKS = {
    "classification": (lambda gcm, bounds: check_classification(gcm, bounds), True),
    "connectedness": (lambda gcm, bounds: check_connectedness(gcm, bounds), True),
    "straight": (lambda gcm, bounds: check_straight_through_lambda(gcm, bounds), True),
    "axioms": (lambda gcm, bounds: check_crystal_axioms(gcm, bounds), True),
    "equivalence": (lambda gcm, bounds: check_operator_equivalence(gcm, bounds.m_max, bounds.s_max), True),
    "structure": (lambda gcm, bounds: check_structure(gcm, bounds), False),
}


def _too_many_digits(option: str) -> int:
    """Report an int past the interpreter's int-to-string limit, which
    str() refuses with ValueError; the limit is read, never changed."""
    limit = sys.get_int_max_str_digits()
    print(
        f"error: an entry has more than {limit} digits, the limit of int-to-string "
        f"conversion (sys.get_int_max_str_digits()); lower {option}",
        file=sys.stderr,
    )
    return BAD_PARAMS


def _newest_fit(n: int, newest) -> bool:
    """Whether str() takes newest(k) at k = 1, 2, 4, ... below n and at n.

    newest(k) is the last two entries of each sequence in a command's
    table of length k, so the command grows its table in doubling
    lengths and stops near the first entry past the int-to-string digit
    limit, not after building the table of length n.  Within each
    parity the magnitudes of p, q and the root coordinates never fall
    from index 2 on, so when the newest two entries at n convert, every
    entry of the table does: this is the command's whole digit check.
    """
    try:
        for k in [1 << j for j in range((n - 1).bit_length())] + [n]:
            for v in newest(k):
                str(v)
    except ValueError:
        return False
    return True


def _pq_fit(gcm: GCM, n: int) -> bool:
    """_newest_fit over the p/q tables up to length n.

    The probe tables are built outside pq_table's cache, which would
    otherwise keep the tables past the digit limit of a refused command
    for the rest of the process.
    """

    def newest(k: int) -> tuple[int, ...]:
        table = pq_table.__wrapped__(gcm, k)
        return table.p[-2:] + table.q[-2:]

    return _newest_fit(n, newest)


def cmd_sequences(args, gcm: GCM) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return BAD_PARAMS
    if not _pq_fit(gcm, args.n):
        return _too_many_digits("--n")
    table = pq_table(gcm, args.n)
    if args.json:
        json.dump({"p": [str(v) for v in table.p], "q": [str(v) for v in table.q]}, sys.stdout)
        print()
    else:
        print("p:", *table.p)
        print("q:", *table.q)
    return OK


def cmd_orbit(args, gcm: GCM) -> int:
    if args.m_max < 0:
        print("error: --m-max must be nonnegative", file=sys.stderr)
        return BAD_PARAMS
    # the window's weights have the coordinates +-p_0..p_{m_max+1}, +-q_1..q_{m_max+1}
    if not _pq_fit(gcm, args.m_max + 1):
        return _too_many_digits("--m-max")
    weights = ((w, orbit_weight(w, gcm)) for w in window_elements(args.m_max))
    if args.json:
        rows = [{"element": str(w), "weight": str(wt), "class": dominance_class(wt)} for w, wt in weights]
        json.dump(rows, sys.stdout)
        print()
    else:
        for w, wt in weights:
            print(f"{w}: {wt}, {dominance_class(wt)}")
    return OK


def cmd_positive_roots(args, gcm: GCM) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return BAD_PARAMS
    if not _newest_fit(args.n, lambda k: positive_roots_recurrence(gcm, k)[-2:]):
        return _too_many_digits("--n")
    rec = positive_roots_recurrence(gcm, args.n)
    weyl = {r.coords for r in positive_roots_weyl(gcm, (args.n + 1) // 2)}
    stray = [coords for coords in rec if coords not in weyl]
    if stray:
        print(f"error: recurrence root {stray[0]} missing from the reflection orbit", file=sys.stderr)
        return CHECK_FAILED
    if args.json:
        # json writes a tuple as an array
        json.dump(rec, sys.stdout)
        print()
    else:
        for c, d in rec:
            print(f"({c}, {d})")
    return OK


def _over_cap(data: dict) -> str | None:
    """The first m or s of a path document above INDEX_CAP, as "name =
    value", or None.  The s of a "dirs" document is its number of
    directions.  A field of another type is left to the parser."""
    if "form" in data:
        fields = [("m", data.get("m")), ("s", data.get("s"))]
    else:
        dirs = data["dirs"] if isinstance(data["dirs"], list) else []
        fields = [("s", len(dirs))] + [("m", d.get("m")) for d in dirs if isinstance(d, dict)]
    return next((f"{name} = {v}" for name, v in fields if type(v) is int and v > INDEX_CAP), None)


def _read_path_json() -> tuple[dict | None, int]:
    raw = sys.stdin.read()
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as err:
        # JSONDecodeError is a ValueError, and so is an integer past the
        # int-to-string digit limit; deep nesting exhausts the recursion limit
        print(f"error: stdin is not JSON: {err}", file=sys.stderr)
        return None, MALFORMED_INPUT
    if not isinstance(data, dict) or not ({"form", "dirs"} & set(data)):
        print('error: expected an object with "form" or "dirs"', file=sys.stderr)
        return None, MALFORMED_INPUT
    over = _over_cap(data)
    if over is not None:
        print(f"error: {over} is above the input cap of {INDEX_CAP} on m and s", file=sys.stderr)
        return None, MALFORMED_INPUT
    return data, OK


def _parse_path(data: dict) -> tuple[LSPath, ExplicitPath | None]:
    """Returns (path, the normal form it came as or None); raises on bad fields."""
    if "form" in data:
        ep = ExplicitPath.from_json(data)
        return to_ls_path(ep), ep
    return LSPath.from_json(data), None


def _not_ls_path(pi: LSPath, gcm: GCM) -> str | None:
    """Why pi is no LS path the generic operators are defined on, or None.

    Littelmann's operators need an integral endpoint weight and integral
    local minima of H_1 and H_2; the witness here is the Fraction
    height function, not the engine.  The global minimum is checked
    too, because local_min_values skips a minimum on a flat piece.
    """
    try:
        weight(pi, gcm)
    except ValueError as err:
        return str(err)
    for i in (1, 2):
        h = h_function(pi, i, gcm)
        for v in [h.minimum(), *h.local_min_values()]:
            if v.denominator != 1:
                return f"H_{i} has the non-integral local minimum {v}"
    return None


# op -> (generic operator, closed-form operator, i)
_OPS = {
    "f1": (f_generic, f_explicit, 1),
    "f2": (f_generic, f_explicit, 2),
    "e1": (e_generic, e_explicit, 1),
    "e2": (e_generic, e_explicit, 2),
}


def cmd_apply(args, gcm: GCM) -> int:
    op_g, op_x, i = _OPS[args.op]
    if args.mode in ("explicit", "both") and gcm.boundary:
        print("error: the closed-form operators need a, b >= 2", file=sys.stderr)
        return BAD_PARAMS
    data, code = _read_path_json()
    if data is None:
        return code
    try:
        pi, given = _parse_path(data)
    except (ValueError, KeyError, TypeError) as err:
        print(f"error: bad path: {err}", file=sys.stderr)
        return MALFORMED_INPUT

    def emit(result: LSPath | None) -> int:
        if result is None:
            print("null")
            return OK
        if given is not None:
            try:
                result = from_ls_path(result)
            except ValueError as err:
                # a generic image of a path outside the crystal need not
                # be a normal form, so it has no answer in the input schema
                print(f"error: not a normal form: {err}", file=sys.stderr)
                return MALFORMED_INPUT
        return _print_json(result.to_json, OK)

    if args.mode == "generic":
        reason = _not_ls_path(pi, gcm)
        if reason is not None:
            print(f"error: not an LS path: {reason}", file=sys.stderr)
            return MALFORMED_INPUT
        try:
            result = op_g(pi, i, gcm)
        except ValueError as err:
            # a path that passes the check above but breaks the LS chain
            # condition can reflect into directions out of order
            print(f"error: not an LS path: {err}", file=sys.stderr)
            return MALFORMED_INPUT
        return emit(result)

    try:
        ep = _on_grid(from_ls_path(pi) if given is None else given, gcm)
    except ValueError as err:
        print(f"error: not a normal form: {err}", file=sys.stderr)
        return MALFORMED_INPUT
    closed = op_x(ep, i, gcm)
    if args.mode == "explicit":
        return emit(None if closed is None else to_ls_path(closed))

    engine = op_g(pi, i, gcm)
    if not _same_path(closed, engine):
        # everything needed to rerun this apply call and see it again
        return _print_json(
            lambda: {
                "a": gcm.a,
                "b": gcm.b,
                "op": args.op,
                "input": (pi if given is None else given).to_json(),
                "explicit": None if closed is None else closed.to_json(),
                "generic": None if engine is None else engine.to_json(),
            },
            ENGINES_DISAGREE,
        )
    return emit(engine)


def _print_json(make_doc, code: int) -> int:
    """Print the document make_doc() builds and return code, or report a
    breakpoint past the int-to-string digit limit, which a path's to_json
    meets at large --a, --b or m."""
    try:
        doc = make_doc()
    except ValueError:
        return _too_many_digits("--a, --b or the path's m")
    print(json.dumps(doc))
    return code


def cmd_validate(args, gcm: GCM) -> int:
    if gcm.boundary:
        print("error: normal-form validation needs a, b >= 2", file=sys.stderr)
        return BAD_PARAMS
    data, code = _read_path_json()
    if data is None:
        return code
    try:
        pi, ep = _parse_path(data)
        ep = _on_grid(from_ls_path(pi) if ep is None else ep, gcm)
    except (KeyError, TypeError) as err:
        print(f"error: bad fields: {err}", file=sys.stderr)
        return MALFORMED_INPUT
    except ValueError as err:
        print(f"invalid: {err}", file=sys.stderr)
        return CHECK_FAILED
    print(json.dumps(ep.to_json()))
    return OK


def cmd_graph(args, gcm: GCM) -> int:
    if gcm.boundary:
        print("error: normal-form node labels need a, b >= 2", file=sys.stderr)
        return BAD_PARAMS
    if args.depth < 0:
        print("error: --depth must be nonnegative", file=sys.stderr)
        return BAD_PARAMS
    if args.depth > GRAPH_DEPTH_CAP:
        print(f"error: --depth must be at most {GRAPH_DEPTH_CAP}", file=sys.stderr)
        return BAD_PARAMS
    order, edges = crystal_bfs(gcm, lambda pi, level: level < args.depth)
    forms = [from_ls_path(pi) for pi in order]
    # a label prints every number its node prints, the weight and the
    # sigma strings of the path's JSON, so formatting the labels is the
    # whole int-to-string digit check, and it runs before the first write
    try:
        labels = [f"{ep} | {weight(pi, gcm)}" for ep, pi in zip(forms, order)]
    except ValueError:
        return _too_many_digits("--a, --b or --depth")
    # each piece is written as soon as it is formatted; the JSON pieces
    # are joined by the separators json.dumps(doc) would put between them
    if args.format == "dot":
        print("digraph crystal {")
        for k, label in enumerate(labels):
            print(f'  n{k} [label="{label}"];')
        for src, dst, i in edges:
            print(f'  n{src} -> n{dst} [label="f{i}"];')
        print("}")
        return OK
    print('{"nodes": [', end="")
    for k, (label, ep) in enumerate(zip(labels, forms)):
        print((", " if k else "") + json.dumps({"id": f"n{k}", "label": label, "path": ep.to_json()}), end="")
    print('], "edges": [', end="")
    for k, (src, dst, i) in enumerate(edges):
        print((", " if k else "") + json.dumps({"from": f"n{src}", "to": f"n{dst}", "label": f"f{i}"}), end="")
    print("]}")
    return OK


def cmd_verify(args, gcm: GCM) -> int:
    if args.m_max < 0 or args.s_max < 1:
        print("error: need --m-max >= 0 and --s-max >= 1", file=sys.stderr)
        return BAD_PARAMS
    selected = list(CHECKS) if args.check == "all" else [args.check]
    # on a boundary matrix only the checks that work for a = 1 or b = 1 run
    runners = [CHECKS[name][0] for name in selected if not (gcm.boundary and CHECKS[name][1])]
    if not runners:
        print(f"error: check '{args.check}' needs a, b >= 2", file=sys.stderr)
        return BAD_PARAMS
    bounds = SearchBounds(args.m_max, args.s_max)
    report = VerificationReport(tuple(r for run in runners for r in run(gcm, bounds).results))
    for line in report.to_json_lines():
        print(line)
    return OK if report.all_passed else CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lscrystal",
        description="Exact crystal computations for rank-2 hyperbolic Cartan matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--a", type=int, required=True, help="off-diagonal entry -a(1,2)")
        p.add_argument("--b", type=int, required=True, help="off-diagonal entry -a(2,1)")

    p = sub.add_parser("sequences", help="print the p and q recurrence tables")
    common(p)
    p.add_argument("--n", type=int, default=10, help="largest index to print")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sequences)

    p = sub.add_parser("orbit", help="orbit weights in the window, top down")
    common(p)
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("positive-roots", help="positive real roots by coefficient recurrence")
    common(p)
    p.add_argument("--n", type=int, default=10, help="roots per series")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_positive_roots)

    p = sub.add_parser("apply", help="apply a root operator to a path read from stdin")
    common(p)
    p.add_argument("--op", choices=sorted(_OPS), required=True)
    p.add_argument("--mode", choices=("generic", "explicit", "both"), default="both")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("validate", help="check a path from stdin against the normal forms")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("graph", help="crystal graph by breadth-first search from the straight path")
    common(p)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="run brute-force verification checks")
    common(p)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--s-max", type=int, default=3)
    p.add_argument(
        "check",
        choices=("all", *CHECKS),
        help="which check family to run",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else 0
    try:
        gcm = GCM(args.a, args.b)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return BAD_PARAMS
    return args.func(args, gcm)


if __name__ == "__main__":
    sys.exit(main())
