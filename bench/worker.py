"""One run of one workload, in a fresh single-threaded process.

Started by run.py. It imports zvsearch from the checkout's src/,
generates the workload's corpus and writes its edge-list files (the
set-up that run.py times), prints "ready", then runs passes over the
corpus (see PASS_SECONDS). Each case is one in-process call of
zvsearch.cli.main with stdout captured; only that call is timed. The
first output of every case is written to the work directory for run.py
to check; later passes must reproduce it byte for byte. The last line
on stdout is a JSON summary.

After every case the worker times speed_probe(), so that run.py can
tell how fast the host was around each case.

A traced run alternates untraced and traced passes, so that it measures
its own overhead, and repeats no short case, so that each span is one
call. It adds COVER_CASES to every pass: one tiny case per wrapped
function, so that every layer has spans in every workload and none
reports a constant zero.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import corpus
import spans

# A case faster than SHORT_CASE_S runs SHORT_REPEATS more times in a row,
# caches cleared each time, and keeps its fastest time: a slow spell of
# the host can cover one short call, rarely three.
SHORT_CASE_S = 0.02
SHORT_REPEATS = 2

# Seconds one pass takes on a slow day of the reference host. A run makes
# seconds // PASS_SECONDS passes, at least two, so that the number of
# passes, and with it each case's fastest time, does not depend on how
# fast the host happens to be. Only a host slower than that stops early.
PASS_SECONDS = {"solve": 10.0, "subset": 7.5, "classify": 6.5, "synth": 12.5}

COVER_GRAPHS = [{"name": s, "spec": s} for s in ("cycle:5", "path:5", "f1", "cycle:4")]
COVER_CASES = [
    {"verb": "solve", "graph": "cycle:5", "argv_tail": []},
    {"verb": "pathwidth", "graph": "cycle:5", "argv_tail": []},
    {"verb": "mono", "graph": "cycle:5", "argv_tail": []},
    {"verb": "lowerbound", "graph": "cycle:5", "argv_tail": ["-k", "{pw}"]},
    {"verb": "classify", "graph": "path:5", "argv_tail": []},
    {"verb": "classify", "graph": "f1", "argv_tail": []},
    {"verb": "synth", "graph": "cycle:4", "argv_tail": []},
    {"verb": "verify", "graph": "cycle:4", "argv_tail": []},
]


def load_cli(root):
    """zvsearch.cli from root/src, never from an installed copy."""
    pkg = root / "src" / "zvsearch"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no zvsearch sources at {pkg}")
    sys.path.insert(0, str(root / "src"))
    import zvsearch.cli as cli

    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: imported zvsearch from {cli.__file__}, not {pkg}")
    return cli


def materialize(workload, seed, work, cover):
    """Corpus graphs and cases; edge-list graphs become files in work."""
    graphs, cases = corpus.build(workload, seed)
    for case in cases:
        case["cover"] = False
    if cover:
        graphs = graphs + COVER_GRAPHS
        cases = cases + [dict(c, cover=True) for c in COVER_CASES]
    source = {}
    for g in graphs:
        if "spec" in g:
            source[g["name"]] = g["spec"]
        else:
            path = work / f"{g['name']}.txt"
            path.write_text("".join(f"{u} {v}\n" for u, v in g["edges"]), encoding="utf-8")
            source[g["name"]] = str(path)
    return cases, source


def clear_caches():
    """Empty every functools cache in the program, so that each case
    starts as a fresh CLI process would and no pass reuses a result
    computed by an earlier one."""
    for name, mod in list(sys.modules.items()):
        if name == "zvsearch" or name.startswith("zvsearch."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def speed_probe(size=3000):
    """Seconds of a fixed pure-Python task (hashing, allocation, sorting,
    like the program's graph code, but none of it): how fast the host is
    right now. It takes a few milliseconds."""
    t0 = time.perf_counter()
    table = {}
    for i in range(size):
        table[(i * 7919) % 10007, i & 7] = {str(i), i}
    total = 0
    for key, val in sorted(table.items()):
        total += len(val) + key[1]
    return time.perf_counter() - t0


def call(cli, argv, tracer):
    """(seconds, exit code or exception text, stdout) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.root() if tracer else None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            status = cli.main(argv)
        except SystemExit as ex:
            status = ex.code if isinstance(ex.code, int) else 2
        except Exception as ex:  # a crash is a failed case, not a failed run
            status = f"{type(ex).__name__}: {ex}"
        t1 = time.perf_counter()
    if span is not None:
        span.start, span.end = t0, t1
        span.info["out_bytes"] = len(out.getvalue().encode())
        tracer.close(span, status != 0)
    if status != 0 and not isinstance(status, str):
        status = f"exit {status}: {err.getvalue().strip()[:200]}"
    return t1 - t0, status, out.getvalue()


def run_pass(cli, cases, source, work, tracer, first, repeat):
    """Time every case; returns one record per case."""
    pw = {}
    records = []
    for i, case in enumerate(cases):
        graph = case["graph"]
        if case["verb"] == "verify":
            argv = ["verify", "--bundle", str(work / f"{graph}.bundle.json")]
        else:
            tail = [a.replace("{pw}", str(pw.get(graph, "{pw}"))) for a in case["argv_tail"]]
            argv = [case["verb"], source[graph]] + tail
        clear_caches()
        seconds, status, text = call(cli, argv, tracer)
        for _ in range(SHORT_REPEATS if repeat and status == 0 and seconds < SHORT_CASE_S else 0):
            clear_caches()
            seconds = min(seconds, call(cli, argv, None)[0])
        if tracer:
            tracer.settle()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if status == 0 and case["verb"] == "pathwidth":
            pw[graph] = json.loads(text)["value"]
        if status == 0 and case["verb"] == "synth":
            (work / f"{graph}.bundle.json").write_text(text, encoding="utf-8")
        if first:
            case["argv"] = argv
            case["digest"] = digest
            if status == 0:
                case["out"] = str(work / f"out{i:04d}.json")
                Path(case["out"]).write_text(text, encoding="utf-8")
        elif status == 0 and digest != case["digest"]:
            status = "output differs from the first pass"
        records.append({"t": seconds, "status": status, "probe": speed_probe()})
    return records


def median_metrics(summaries):
    return {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    work = Path(args.work)
    cli = load_cli(root)
    cases, source = materialize(args.workload, args.seed, work, bool(args.trace))
    print("ready", flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        tracer = spans.Tracer(cli)
    start = time.monotonic()
    planned = max(2, int(args.seconds // PASS_SECONDS[args.workload]))
    passes = []
    layers = []
    span_log = []
    for index in range(planned):
        if index >= 2 and time.monotonic() - start > args.seconds * (index / planned + 0.5):
            break
        traced = bool(args.trace) and index % 2 == 1
        gc.collect()
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            records = run_pass(cli, cases, source, work, tracer if traced else None,
                               index == 0, repeat=not args.trace)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(spans.summarize(tracer.spans))
            span_log.extend(dict(s.record(), pass_index=index) for s in tracer.spans)
        passes.append({"traced": traced, "records": records})

    if args.trace:
        with open(work.parent / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in span_log)
    summary = {
        "cases": [
            {k: c.get(k) for k in ("verb", "graph", "argv", "out", "cover")} for c in cases
        ],
        "passes": passes,
        "layers": median_metrics(layers) if layers else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
