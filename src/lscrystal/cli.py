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
    e_explicit,
    f_explicit,
    from_ls_path,
    to_ls_path,
    validate_explicit,
)
from .oracle import (
    SearchBounds,
    check_classification,
    check_connectedness,
    check_crystal_axioms,
    check_operator_equivalence,
    check_straight_through_lambda,
    check_structure,
    combine,
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
# breadth-first search costs about 13x more for every 4 levels: at (3,3)
# depth 12 takes 0.2 s and 18 MB of peak RSS, 16 takes 1.5 s and 35 MB,
# and 20 takes 14 s and 256 MB.  At the cap a whole dot `graph` process
# takes 5.4 s and 114 MB at (20,20), and 5.4 s and 142 MB at
# (1000,1000), whose labels have the longest numbers; the json format
# holds the whole document in memory and takes up to 9 s and 293 MB
# there (CPython 3.11.7, x86-64 Linux).
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
    p, q = [str(v) for v in table.p], [str(v) for v in table.q]
    if args.json:
        print(json.dumps({"p": p, "q": q}))
    else:
        print("p: " + " ".join(p))
        print("q: " + " ".join(q))
    return OK


def cmd_orbit(args, gcm: GCM) -> int:
    if args.m_max < 0:
        print("error: --m-max must be nonnegative", file=sys.stderr)
        return BAD_PARAMS
    # the window's weights have the coordinates +-p_0..p_{m_max+1}, +-q_1..q_{m_max+1}
    if not _pq_fit(gcm, args.m_max + 1):
        return _too_many_digits("--m-max")
    rows = []
    for w in window_elements(args.m_max):
        wt = orbit_weight(w, gcm)
        rows.append((str(w), str(wt), dominance_class(wt)))
    if args.json:
        print(json.dumps([{"element": e, "weight": w, "class": c} for e, w, c in rows]))
    else:
        for e, w, c in rows:
            print(f"{e}: {w}, {c}")
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
        print(json.dumps([list(coords) for coords in rec]))
    else:
        print("\n".join(f"({c}, {d})" for c, d in rec))
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


_OPS_GENERIC = {"f1": (f_generic, 1), "f2": (f_generic, 2), "e1": (e_generic, 1), "e2": (e_generic, 2)}
_OPS_EXPLICIT = {"f1": (f_explicit, 1), "f2": (f_explicit, 2), "e1": (e_explicit, 1), "e2": (e_explicit, 2)}


def cmd_apply(args, gcm: GCM) -> int:
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
        op, i = _OPS_GENERIC[args.op]
        try:
            result = op(pi, i, gcm)
        except ValueError as err:
            # a path that passes the check above but breaks the LS chain
            # condition can reflect into directions out of order
            print(f"error: not an LS path: {err}", file=sys.stderr)
            return MALFORMED_INPUT
        return emit(result)

    try:
        ep = from_ls_path(pi)
        ep = validate_explicit(ep.form, ep.m, ep.s, ep.sigmas, gcm)
    except ValueError as err:
        print(f"error: not a normal form: {err}", file=sys.stderr)
        return MALFORMED_INPUT
    op_x, i = _OPS_EXPLICIT[args.op]
    closed = op_x(ep, i, gcm)
    if args.mode == "explicit":
        return emit(None if closed is None else to_ls_path(closed))

    op_g, i = _OPS_GENERIC[args.op]
    engine = op_g(pi, i, gcm)
    closed_pi = None if closed is None else to_ls_path(closed)
    if closed_pi != engine:
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
        if ep is None:
            ep = from_ls_path(pi)
        ep = validate_explicit(ep.form, ep.m, ep.s, ep.sigmas, gcm)
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
    # the whole output is built before any of it is printed, so a
    # breakpoint past the int-to-string digit limit leaves stdout empty
    try:
        labels = [f"{ep} | {weight(pi, gcm)}" for ep, pi in zip(forms, order)]
        if args.format == "dot":
            nodes = [f'  n{k} [label="{label}"];' for k, label in enumerate(labels)]
            arrows = [f'  n{src} -> n{dst} [label="f{i}"];' for src, dst, i in edges]
            text = "\n".join(["digraph crystal {", *nodes, *arrows, "}"])
        else:
            doc = {
                "nodes": [
                    {"id": f"n{k}", "label": label, "path": ep.to_json()}
                    for k, (label, ep) in enumerate(zip(labels, forms))
                ],
                "edges": [{"from": f"n{src}", "to": f"n{dst}", "label": f"f{i}"} for src, dst, i in edges],
            }
            text = json.dumps(doc)
    except ValueError:
        return _too_many_digits("--a, --b or --depth")
    print(text)
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
    report = combine(*(run(gcm, bounds) for run in runners))
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
    p.add_argument("--op", choices=sorted(_OPS_GENERIC), required=True)
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
