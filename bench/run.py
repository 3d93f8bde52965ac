"""Benchmark of the zvsearch command line, one workload per run.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports zvsearch from src/ there.
Workloads (BENCHMARK.json says why each exists): solve, subset,
classify, synth. The run

  1. times the set-up (interpreter start, `import zvsearch`, corpus
     generation, edge-list files) in SETUP_SAMPLES fresh processes and
     keeps the median;
  2. runs the corpus in one fresh worker process (worker.py) for about
     --seconds, one in-process `zvsearch.cli.main` call per case;
  3. checks every output outside the timed region (check.py);
  4. prints each metric with its unit, then, as the last line, one JSON
     object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones. A case's time is
its fastest pass after scaling to the reference host speed (see
case_times); wall_ref_s sums those times over the corpus, case_p50_ref_ms
and case_p90_ref_ms are their median and 90th percentile, setup_s is the
median set-up, scaled the same way, and peak_rss_mb the worker's
ru_maxrss. The same times unscaled (wall_s, case_p50_ms, case_p90_ms,
setup_raw_s), failed_frac and the
synthesized output sizes (host_vertices, search_steps) are printed too.
With --trace 1 the metrics are the per-layer ones from spans at the
cli -> library boundary (spans.py), medians over the traced passes, plus
trace_overhead_frac (traced over untraced wall_ref_s, minus 1). Run
artefacts (work files, span logs) go to .bench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import worker  # noqa: E402

SETUP_SAMPLES = 7
WORKER_GRACE_S = 120  # time a worker may run past --seconds before it is killed
# worker.speed_probe() on the reference host: the *_ref metrics are case
# times scaled to a host where the probe takes this long
REF_PROBE_S = 0.004


def host_probe_s(samples=25):
    """Median speed probe: how fast the host is right now."""
    return statistics.median(worker.speed_probe() for _ in range(samples))


def set_up(args, work, setup_only):
    """Start a worker; returns it with its set-up time in seconds, raw and
    scaled to the reference host speed like the *_ref times (set-up
    drifts with the host as much as the cases do)."""
    speed = host_probe_s(5)
    w = Worker(args, work, setup_only)
    return w, (w.ready_s, w.ready_s * REF_PROBE_S / speed)


def environment(root):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "zvsearch").glob("*.py")):
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class Worker:
    """A worker process; ready_s is the time from spawn to its "ready"."""

    def __init__(self, args, work, setup_only):
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work),
        ]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.deadline = time.monotonic() + args.seconds + WORKER_GRACE_S
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        try:
            line = self.proc.stdout.readline()
            self.ready_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise RuntimeError(f"worker failed during set-up (exit {self.proc.wait()})")
        except BaseException:
            self.stop()
            raise

    def result(self):
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def graph_of(zvsearch_graphs, g):
    if "spec" in g:
        return zvsearch_graphs.generate(g["spec"])
    return zvsearch_graphs.Graph.from_edges(g["edges"])


def check_outputs(args, cases):
    """Per case: None or why its output is wrong. Also output sizes."""
    import check
    from zvsearch import graphs as zg

    defs, _ = corpus.build(args.workload, args.seed)
    defs = {g["name"]: g for g in defs + worker.COVER_GRAPHS}
    built = {}
    pw, bundles = {}, {}
    reasons = []
    sizes = {"host_vertices": 0, "search_steps": 0}
    for case in cases:
        name, verb = case["graph"], case["verb"]
        if case["out"] is None:
            reasons.append("no output")
            continue
        if name not in built:
            built[name] = graph_of(zg, defs[name])
        g = built[name]
        with open(case["out"], encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            if verb == "solve":
                why = check.check_solve(g, doc, corpus.SOLVE_NAMED.get(name))
            elif verb == "pathwidth":
                why = check.check_pathwidth(g, doc)
                if why is None:
                    pw[name] = doc["value"]
            elif verb == "mono":
                why = check.check_mono(g, doc, pw.get(name))
            elif verb == "lowerbound":
                why = check.check_lowerbound(g, doc, int(case["argv"][-1]))
            elif verb == "classify":
                why = check.check_classify(g, doc)
            elif verb == "synth":
                why, bundles[name] = check.check_synth(g, doc)
                if why is None and not case["cover"]:
                    sizes["host_vertices"] += bundles[name].host.derived.n
                    sizes["search_steps"] += len(bundles[name].search)
            elif verb == "verify":
                why = "no checked bundle"
                if bundles.get(name) is not None:
                    why = check.check_verify(doc, bundles[name])
            else:
                why = f"no check for {verb}"
        except Exception as ex:  # a malformed document is a wrong output
            why = f"check raised {type(ex).__name__}: {ex}"
        reasons.append(why)
    return reasons, sizes


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return {"cli.out_bytes": "B", "synth.check_equiv": "1"}.get(name, "count")


def case_times(summary, traced, ref):
    """Per corpus case, its fastest time over the passes of one kind.

    The host's speed drifts by tens of percent within seconds, and the
    fastest pass only removes short slow spells. With ref, each time is
    first scaled by REF_PROBE_S over the faster of the speed probes taken
    just before and just after the case, which removes the drift."""
    passes = [p["records"] for p in summary["passes"] if p["traced"] == traced]
    scaled = []
    for recs in passes:
        row = []
        for i, rec in enumerate(recs):
            speed = min(r["probe"] for r in recs[max(0, i - 1):i + 1])
            row.append(rec["t"] * REF_PROBE_S / speed if ref else rec["t"])
        scaled.append(row)
    return [
        min(row[i] for row in scaled)
        for i, case in enumerate(summary["cases"])
        if not case["cover"]
    ]


def timing_metrics(times, suffix):
    """wall, p50 and p90 of per-case times; the name gets suffix."""
    return {
        f"wall{suffix}_s": (sum(times), "s"),
        f"case_p50{suffix}_ms": (statistics.median(times) * 1e3, "ms"),
        f"case_p90{suffix}_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # turn a polite kill into an exit, so that the finally blocks stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    worker.load_cli(root)  # exits early when there is no program to measure
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = environment(root)
    probe_before = host_probe_s()

    setup = []
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=out_dir))
    try:
        for _ in range(SETUP_SAMPLES - 1):
            w, times = set_up(args, work, setup_only=True)
            setup.append(times)
            w.result()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        w, times = set_up(args, work, setup_only=False)
        setup.append(times)
        summary = json.loads(w.result().splitlines()[-1])
        probe_after = host_probe_s()
        reasons, sizes = check_outputs(args, summary["cases"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    failures = []
    for i, case in enumerate(summary["cases"]):
        for p in summary["passes"]:
            why = p["records"][i]["status"]
            why = reasons[i] if why == 0 else why
            attempted += 1
            if why is not None:
                failed += 1
                failures.append(f"{case['verb']} {case['graph']}: {why}")
    for line in dict.fromkeys(failures):
        print(f"FAILED {line}", file=sys.stderr)

    bench = json.loads((root / "BENCHMARK.json").read_text())
    purpose = {w["name"]: w["why"] for w in bench["workloads"]}
    untraced = case_times(summary, False, ref=False)
    passes = summary["passes"]
    print(f"# workload {args.workload}, seed {args.seed}: {len(untraced)} cases, "
          f"{sum(not p['traced'] for p in passes)} untraced and "
          f"{sum(p['traced'] for p in passes)} traced passes; "
          f"why: {purpose[args.workload]}")
    env["host_probe_s"] = [probe_before, probe_after]
    print(f"# env {json.dumps(env, sort_keys=True)}")
    untraced_ref = case_times(summary, False, ref=True)
    if args.trace:
        metrics = {k: (v, layer_unit(k)) for k, v in summary["layers"].items()}
        traced_ref = case_times(summary, True, ref=True)
        metrics["trace_overhead_frac"] = (sum(traced_ref) / sum(untraced_ref) - 1, "1")
        print(f"# spans: {out_dir / f'spans-{args.workload}-{args.seed}.jsonl'}")
        shown = dict(metrics)
    else:
        p90 = statistics.quantiles(untraced_ref, n=10)[8]
        print(f"# {sum(t > p90 for t in untraced_ref)} cases lie beyond case_p90_ref_ms")
        metrics = timing_metrics(untraced_ref, "_ref")
        metrics["setup_s"] = (statistics.median(ref for _, ref in setup), "s")
        metrics["peak_rss_mb"] = (summary["peak_rss_mb"], "MB")
        # shown, not declared: raw times drift with the host, failed_frac
        # is 0 on a correct program and the output sizes are 0 outside synth
        shown = dict(metrics, **timing_metrics(untraced, ""))
        shown["setup_raw_s"] = (statistics.median(raw for raw, _ in setup), "s")
        shown["failed_frac"] = (failed / attempted, "1")
        shown["host_vertices"] = (sizes["host_vertices"], "count")
        shown["search_steps"] = (sizes["search_steps"], "count")
    width = max(map(len, shown))
    for name, (value, unit) in shown.items():
        print(f"{name:<{width}} {value:>14.6g} {unit}")
    declared = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != declared:
        raise SystemExit(f"benchmark: metrics {sorted(set(metrics) ^ declared)} "
                         "are not both printed and declared in BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
