"""Command line front end.

One verb per invocation, one structured document on stdout, diagnostics
on stderr. Graphs are read from edge-list files or built inline from
generator specs ("cycle:6", "grid:3,4"), so acceptance scripts need no
temporary files. Exit codes: 0 for definite answers, 1 for bad input,
2 for blown resource budgets. A reader that closes stdout early
(`| head`) ends the run with exit 1 and no message.
"""

import argparse
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
from .synth import AlignedSearchBundle, synthesize

STATE_BUDGET_VAR = "ZVSEARCH_STATE_BUDGET"
SUBSET_BUDGET_VAR = "ZVSEARCH_SUBSET_BUDGET"


def _default_state_budget():
    raw = os.environ.get(STATE_BUDGET_VAR)
    if raw is None:
        return 200_000
    try:
        val = int(raw)
    except ValueError:
        raise InputError(f"{STATE_BUDGET_VAR} must be an integer, got {raw!r}")
    if val <= 0:
        raise InputError(f"{STATE_BUDGET_VAR} must be positive")
    return val


def _subset_budget():
    raw = os.environ.get(SUBSET_BUDGET_VAR)
    if raw is None:
        return _MASK_CAP
    try:
        val = int(raw)
    except ValueError:
        raise InputError(f"{SUBSET_BUDGET_VAR} must be an integer, got {raw!r}")
    if val <= 0:
        raise InputError(f"{SUBSET_BUDGET_VAR} must be positive")
    # the cap guards the 2^n numpy tables in the solver
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


def _emit(doc):
    """Print doc as json.dump(doc, indent=2, sort_keys=True) would.

    The document is walked on an explicit stack: a decomposition tree
    nests as deep as its graph is long, past the recursion limit that
    json's own encoder runs into. A list of scalars, such as one step
    of a search, is written in one piece.
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
            ends, heads = "{}", [_scalar(k) + ": " for k in sorted(value)]
            value = [value[k] for k in sorted(value)]
        inner = pad + "  "
        parts = [ends[0]]
        for i, (head, v) in enumerate(zip(heads, value)):
            parts.append(("," if i else "") + inner + head)
            if isinstance(v, (list, tuple)) and v and not any(
                isinstance(x, _NESTED) for x in v
            ):
                deeper = inner + "  "
                body = ("," + deeper).join(map(_scalar, v))
                parts.append("[" + deeper + body + inner + "]")
            else:
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


def _verify_bundle(path):
    try:
        rec = json.loads(_read(path))
    except json.JSONDecodeError as ex:
        raise InputError(f"{path}: not valid JSON ({ex})")
    try:
        bundle = AlignedSearchBundle.from_record(rec)
    except (KeyError, TypeError, ValueError) as ex:
        raise InputError(f"{path}: not a bundle record ({ex})")
    # synthesized searches run to tens of thousands of steps; check them
    # streaming rather than holding a trace
    host = bundle.host.derived
    ok, _ = check_search(host, bundle.search)
    a, b = bundle.alignment
    aligned, _ = check_aligned_search(host, bundle.search, a, b)
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


def cmd_classify(args):
    g, _ = _load_graph(args.graph)
    cls = classify_topological_3(g)
    doc = cls.to_record()
    if cls.witness is not None:
        doc["family"] = cls.witness.family
    _emit(doc)


def cmd_synth(args):
    g, _ = _load_graph(args.graph)
    cls = classify_topological_3(g)
    if cls.verdict != "YES":
        doc = cls.to_record()
        doc["family"] = cls.witness.family
        _emit(doc)
        return
    floors = {}
    for u, v, c in args.floor or ():
        try:
            floors[(u, v)] = int(c)
        except ValueError:
            raise InputError(f"floor count must be an integer, got {c!r}")
    bundle = synthesize(cls.tree.terminal_graph(), cls.tree, floors or None)
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.mask_cap = _subset_budget()
        if getattr(args, "budget", None) is None and args.verb in ("solve",):
            args.budget = _default_state_budget()
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
