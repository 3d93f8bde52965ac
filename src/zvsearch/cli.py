"""Command line front end.

One verb per invocation, one structured document on stdout, diagnostics
on stderr. Graphs are read from edge-list files or built inline from
generator specs ("cycle:6", "grid:3,4"), so acceptance scripts need no
temporary files. Exit codes: 0 for definite answers, 1 for bad input,
2 for blown resource budgets. A reader that closes stdout early
(`| head`) ends the run with exit 1 and no message.

The argument parser is built once, when this module is imported, and
every main() call parses with it: each parse fills a fresh namespace,
so nothing carries over from one call to the next. numpy is loaded
only by the verbs that run the solver (solve, pathwidth, mono and
lowerbound), on their first call into it.
"""

import argparse
import contextlib
import gc
import json
import os
import sys

from .errors import InputError, ResourceLimitError
from .game import (
    check_aligned_search,
    check_search,
    is_monotonic,
    is_successful,
    search_width,
    simulate,
)
from .graphs import format_edge_list, generate, parse_edge_list
from .gsp import classify_topological_3
from .solver import (
    _MASK_CAP,
    boundary_gap_certificate,
    boundary_profile,
    inspection_number,
    monotonic_inspection_number,
    pathwidth,
)
from .synth import AlignedSearchBundle, _rooted, synthesize

STATE_BUDGET_VAR = "ZVSEARCH_STATE_BUDGET"
SUBSET_BUDGET_VAR = "ZVSEARCH_SUBSET_BUDGET"


def _env_budget(var, default):
    """A positive integer read from the environment variable var, or
    default when it is unset."""
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        val = int(raw)
    except ValueError:
        raise InputError(f"{var} must be an integer, got {raw!r}")
    if val <= 0:
        raise InputError(f"{var} must be positive")
    return val


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise InputError(f"cannot read {path}: {ex.strerror or ex}")


def _load_graph(src):
    """Edge-list file if the path exists, generator spec otherwise."""
    if os.path.exists(src):
        g, terminals = parse_edge_list(_read(src))
        return g, terminals
    if ":" in src or src.isidentifier():
        return generate(src), None
    raise InputError(f"{src!r} is neither a file nor a generator spec")


def _load_steps(text):
    steps = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        steps.append(frozenset(line.split()))
    return tuple(steps)


_NESTED = (dict, list, tuple)
_scalar = json.JSONEncoder().encode
_string = json.encoder.encode_basestring_ascii


def _atom(x):
    # a scalar as the encoder writes it, or None for a list or a dict,
    # on which the join in _scalars fails
    return None if isinstance(x, _NESTED) else _scalar(x)


def _scalars(items, pad):
    """A non-empty list of scalars written in one piece, up to its closing
    bracket, or None if it holds a list or a dict. Strings and exact
    ints, which make up search steps and tree rows, skip the encoder's
    dispatch on type; a bool is not an exact int."""
    try:
        return "[" + pad + ("," + pad).join([
            _string(x) if type(x) is str else int.__repr__(x) if type(x) is int
            else _atom(x)
            for x in items
        ])
    except TypeError:
        return None


def _flat_list(items, pad):
    """A non-empty list written in one piece, up to its closing bracket,
    when it holds only scalars or only non-empty lists of scalars (the
    steps of a search, the rows of a tree record); None otherwise."""
    if not isinstance(items[0], (list, tuple)):
        return _scalars(items, pad)
    inner, close = pad + "  ", pad + "]"
    rows = []
    for row in items:
        flat = _scalars(row, inner) if isinstance(row, (list, tuple)) and row else None
        if flat is None:
            return None
        rows.append(flat + close)
    return "[" + pad + ("," + pad).join(rows)


def _emit(doc):
    """Print doc as json.dump(doc, indent=2, sort_keys=True) would.

    Dict keys must be strings: a key of any other type raises TypeError
    naming it, where json.dumps would have converted it. The document
    is walked on an explicit stack so that a list of scalars, such as
    one step of a search, or of such lists, such as the rows of a tree
    record, is written in one piece, where json's encoder writes it item
    by item. No document nests deeper than a few levels: trees are
    written as flat records.
    """
    stack = [(doc, "\n")]
    while stack:
        top = stack.pop()
        if isinstance(top, str):
            sys.stdout.write(top)
            continue
        value, pad = top
        if not isinstance(value, _NESTED) or not value:
            sys.stdout.write(_scalar(value))
            continue
        ends, heads = "[]", [""] * len(value)
        if isinstance(value, dict):
            for k in value:
                if not isinstance(k, str):
                    raise TypeError(f"dict key {k!r} is not a str")
            ends, heads = "{}", [_scalar(k) + ": " for k in sorted(value)]
            value = [value[k] for k in sorted(value)]
        inner = pad + "  "
        parts = [ends[0]]
        for i, (head, v) in enumerate(zip(heads, value)):
            parts.append(("," if i else "") + inner + head)
            if isinstance(v, (list, tuple)) and v:
                flat = _flat_list(v, inner + "  ")
                if flat is not None:
                    parts.append(flat + inner + "]")
                    continue
            parts.append((v, inner))
        stack.extend(reversed(parts + [pad + ends[1]]))
    sys.stdout.write("\n")


def cmd_gen(args):
    g = generate(args.spec)
    sys.stdout.write(format_edge_list(g))


def cmd_solve(args):
    g, _ = _load_graph(args.graph)
    res = inspection_number(
        g, k_max=args.k_max, state_budget=args.budget, mask_cap=args.mask_cap
    )
    _emit(res.to_record())


def cmd_pathwidth(args):
    g, _ = _load_graph(args.graph)
    width, decomp = pathwidth(g, mask_cap=args.mask_cap)
    _emit({"value": width, "bags": [sorted(b) for b in decomp.bags]})


def cmd_mono(args):
    g, _ = _load_graph(args.graph)
    res = monotonic_inspection_number(g, mask_cap=args.mask_cap)
    _emit(res.to_record())


@contextlib.contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector for the block, and enable it
    again afterwards only if it was on. synth and verify build tens of
    thousands of acyclic objects, which reference counting alone frees,
    and a full collection in the middle of them only walks them."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _verify_bundle(path):
    try:
        rec = json.loads(_read(path))
    except json.JSONDecodeError as ex:
        raise InputError(f"{path}: not valid JSON ({ex})")
    try:
        bundle = AlignedSearchBundle.from_record(rec)
        a, b = bundle.alignment
    except (KeyError, TypeError, ValueError) as ex:
        raise InputError(f"{path}: not a bundle record ({ex})")
    host = bundle.host
    for v in (a, b):
        if v not in host:
            raise InputError(f"no vertex {v!r}")
    # From the empty clean set, a vertex the search never inspects never
    # turns clean: one round keeps only protected vertices clean. So a
    # host with more vertices than the steps hold fails, and it is not
    # numbered: a record can make it as large as it claims.
    if host.n > sum(len(step) for step in bundle.search):
        ok = aligned = False
    else:
        # synthesized searches run to tens of thousands of steps; check
        # them streaming, on the host's own numbering, rather than
        # holding a trace. An aligned search is a successful one, so the
        # plain check runs only when the aligned one fails; a step naming
        # a vertex the host lacks raises unless alignment breaks before it.
        aligned = check_aligned_search(host, bundle.search, a, b)[0]
        ok = aligned or check_search(host, bundle.search)[0]
    _emit(
        {
            "successful": ok,
            "aligned": aligned,
            "width": search_width(bundle.search),
            "length": len(bundle.search),
            "host_vertices": host.n,
            "alignment": list(bundle.alignment),
        }
    )


@_collector_paused()
def cmd_verify(args):
    if args.bundle is not None:
        if args.graph is not None or args.search is not None:
            raise InputError("--bundle replaces the graph and --search arguments")
        _verify_bundle(args.bundle)
        return
    if args.graph is None or args.search is None:
        raise InputError("verify needs either --bundle FILE or GRAPH --search FILE")
    g, _ = _load_graph(args.graph)
    steps = _load_steps(_read(args.search))
    clean_start = ()
    if args.clean_start:
        clean_start = tuple(x for x in args.clean_start.split(",") if x)
    trace = simulate(g, steps, clean_start=clean_start)
    _emit(
        {
            "successful": is_successful(trace),
            "monotonic": is_monotonic(trace),
            "width": search_width(steps),
            "length": len(steps),
        }
    )


def _classified(cls):
    doc = cls.to_record()
    if cls.witness is not None:
        doc["family"] = cls.witness.family
    return doc


def cmd_classify(args):
    g, _ = _load_graph(args.graph)
    _emit(_classified(classify_topological_3(g)))


@_collector_paused()
def cmd_synth(args):
    """Classify the graph; for a YES graph, build and print a verified
    bundle, else print the classification.

    The graph is classified, and so peeled, once. Between that and the
    one synthesis, the size of each candidate tree's bundle is planned
    without building it (see synth._rooted): the classifier's tree, or
    that tree's assembly rerooted at an edge of its last block, read off
    the classification's peel, whichever plans the smallest host. A plan
    past the host cap ends the run with a resource limit before anything
    is built.
    """
    g, _ = _load_graph(args.graph)
    cls = classify_topological_3(g)
    if cls.verdict != "YES":
        _emit(_classified(cls))
        return
    floors = {}
    for u, v, c in args.floor or ():
        try:
            floors[(u, v)] = int(c)
        except ValueError:
            raise InputError(f"floor count must be an integer, got {c!r}")
    tree = _rooted(g, cls, floors)
    bundle = synthesize(tree.terminal_graph(), tree, floors or None)
    _emit(bundle.to_record())


def cmd_lowerbound(args):
    g, _ = _load_graph(args.graph)
    profile = boundary_profile(g, args.k, mask_cap=args.mask_cap)
    cert = boundary_gap_certificate(g, args.k, profile=profile)
    doc = {
        "k": args.k,
        "profile": sorted(profile),
        "certificate": cert.to_record() if cert is not None else None,
    }
    _emit(doc)


def build_parser():
    top = argparse.ArgumentParser(
        prog="zvsearch",
        description="Sweep searches on graphs: solve, classify, synthesize.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    p.add_argument("spec", help='generator spec, e.g. "cycle:6" or "grid:3,4"')
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("solve", help="exact inspection number")
    p.add_argument("graph", help="edge-list file or generator spec")
    p.add_argument("--k-max", type=int, default=None, help="stop after this width")
    p.add_argument("--budget", type=int, default=None, help="state budget")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("pathwidth", help="exact pathwidth with a decomposition")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_pathwidth)

    p = sub.add_parser("mono", help="monotonic inspection number")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_mono)

    p = sub.add_parser("verify", help="replay a search file or a bundle")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--search", default=None, help="file with one step per line")
    p.add_argument("--clean-start", default="", help="comma-separated vertices")
    p.add_argument("--bundle", default=None, help="bundle JSON from synth")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify", help="simple decomposition or witness")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("synth", help="build a verified 3-search bundle")
    p.add_argument("graph")
    p.add_argument(
        "--floor",
        nargs=3,
        action="append",
        metavar=("U", "V", "COUNT"),
        help="minimum interior vertices on an edge (repeatable)",
    )
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("lowerbound", help="boundary-gap certificate for in > k")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(fn=cmd_lowerbound)

    return top


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        # each budget is read only by the verbs that use it; a subset
        # budget of c allows 2^c table entries, or 2^c search steps of
        # a boundary profile from separators
        if args.verb in ("solve", "pathwidth", "mono", "lowerbound"):
            args.mask_cap = _env_budget(SUBSET_BUDGET_VAR, _MASK_CAP)
        if args.verb == "solve" and args.budget is None:
            args.budget = _env_budget(STATE_BUDGET_VAR, 200_000)
        if getattr(args, "k_max", None) is not None and args.k_max < 1:
            raise InputError("--k-max must be >= 1")
        if getattr(args, "budget", None) is not None and args.budget <= 0:
            raise InputError("--budget must be positive")
        if getattr(args, "k", None) is not None and args.k < 0:
            raise InputError("-k must be >= 0")
        args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): point stdout at
        # devnull, so that the flush at exit fails no more, and stop
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except InputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except ResourceLimitError as ex:
        print(f"resource limit: {ex}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
