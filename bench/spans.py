"""Spans at the cli -> library boundary.

The tracer replaces the library functions that `zvsearch.cli` imported
with wrappers that record one span per call: name, start, end, parent
and whether it raised. Spans stay in memory; the worker writes them out
when the run ends. Nothing inside the library is traced, so a layer's
time is the time of the calls the CLI makes into it.
"""

import time

# name in zvsearch.cli -> span name (layer.function)
WRAPPED = {
    "generate": "graphs.generate",
    "parse_edge_list": "graphs.parse_edge_list",
    "inspection_number": "solver.inspection_number",
    "pathwidth": "solver.pathwidth",
    "monotonic_inspection_number": "solver.monotonic_inspection_number",
    "boundary_profile": "solver.boundary_profile",
    "boundary_gap_certificate": "solver.boundary_gap_certificate",
    "classify_topological_3": "gsp.classify_topological_3",
    "synthesize": "synth.synthesize",
    "check_search": "game.check_search",
    "check_aligned_search": "game.check_aligned_search",
}
ROOT = "cli.main"
SPAN_NAMES = (ROOT,) + tuple(WRAPPED.values())


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "error", "args", "result", "info")

    def __init__(self, sid, name, parent):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = self.end = None
        self.error = False
        self.args = self.result = None
        self.info = {}

    @property
    def duration(self):
        return self.end - self.start

    def record(self):
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "error": self.error,
            **self.info,
        }


class Tracer:
    """Collects spans while installed into a module."""

    def __init__(self, module):
        missing = [name for name in WRAPPED if not callable(getattr(module, name, None))]
        if missing:
            raise RuntimeError(
                f"{module.__name__} no longer has {missing}; update bench/spans.py "
                "so that no layer silently drops out of the traced run"
            )
        self.module = module
        self.originals = {name: getattr(module, name) for name in WRAPPED}
        self.spans = []
        self._stack = []

    def install(self):
        for name, span_name in WRAPPED.items():
            setattr(self.module, name, self._wrap(span_name, self.originals[name]))

    def uninstall(self):
        for name, fn in self.originals.items():
            setattr(self.module, name, fn)

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.args = args

        traced.__wrapped__ = fn
        return traced

    def root(self):
        """Open the span of one whole cli.main call; close it with close()."""
        return self._open(ROOT)

    def close(self, span, error):
        span.error = error
        self._stack.pop()

    def settle(self):
        """Turn the arguments and results held by finished spans into
        counts, and drop the references. Call it between cases, outside
        the timed region."""
        for span in self.spans:
            if span.args is None and span.result is None:
                continue
            if span.result is not None:
                _extract(span)
            span.args = span.result = None


def _tree_size(record):
    """(nodes, depth) of a decomposition tree record, without recursion."""
    nodes = depth = 0
    stack = [(record, 1)]
    while stack:
        rec, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in rec.get("children", ()))
    return nodes, depth


def _extract(span):
    res, info = span.result, span.info
    if span.name == "solver.inspection_number":
        info["states"] = res.explored_states
    elif span.name == "gsp.classify_topological_3":
        info["verdict"] = res.verdict
        if res.tree is not None:
            info["tree_nodes"], info["tree_depth"] = _tree_size(res.to_record()["tree"])
    elif span.name == "synth.synthesize":
        info["host_vertices"] = res.host.derived.n
        info["search_steps"] = len(res.search)
    elif span.name in ("game.check_search", "game.check_aligned_search"):
        info["steps"] = len(span.args[1])


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans):
    """Per-layer metrics of one pass, from its settled spans."""
    time_of = dict.fromkeys(SPAN_NAMES, 0.0)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.errors"] = 0
    child_time = 0.0
    roots = {s.id for s in spans if s.name == ROOT}
    info = {}
    for s in spans:
        time_of[s.name] += s.duration
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.errors"] += s.error
        if s.parent in roots:
            child_time += s.duration
        for key, val in s.info.items():
            if key == "verdict":
                key = f"classify_{val.lower()}_s"
                val = s.duration
            if key == "tree_depth":
                info[key] = max(info.get(key, 0), val)
            else:
                info[key] = info.get(key, 0) + val
        if s.name == "synth.synthesize" and "host_vertices" in s.info:
            info["max_host"] = max(info.get("max_host", 0), s.info["host_vertices"])
    states = info.get("states", 0)
    checked = time_of["game.check_search"] + time_of["game.check_aligned_search"]
    out.update({
        "cli.main.self_s": time_of[ROOT] - child_time,
        "cli.out_bytes": info.get("out_bytes", 0),
        "graphs.load_s": time_of["graphs.generate"] + time_of["graphs.parse_edge_list"],
        "solver.explored_states": states,
        "solver.states_per_s": _ratio(states, time_of["solver.inspection_number"]),
        "gsp.classify_yes_s": info.get("classify_yes_s", 0.0),
        "gsp.classify_no_s": info.get("classify_no_s", 0.0),
        "gsp.tree_nodes": info.get("tree_nodes", 0),
        "gsp.tree_depth": info.get("tree_depth", 0),
        "synth.max_host_vertices": info.get("max_host", 0),
        "synth.host_vertices": info.get("host_vertices", 0),
        "synth.search_steps": info.get("search_steps", 0),
        "synth.check_equiv": _ratio(
            time_of["synth.synthesize"], time_of["game.check_aligned_search"]
        ),
        "game.steps_per_s": _ratio(info.get("steps", 0), checked),
    })
    # graphs.* is reported as graphs.load_s and classify by verdict above
    for name in WRAPPED.values():
        if not name.startswith(("graphs.", "gsp.")):
            out[f"{name}_s"] = time_of[name]
    return out
