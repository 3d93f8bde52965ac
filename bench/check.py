"""Output checks, run after the timed passes.

Each check takes the input graph and the JSON document a verb printed
and returns None when the document is correct, or the reason it is not.
Checks replay what can be replayed (witness searches, bundles) and
re-derive what can be re-derived (decomposition validity, the gap in a
boundary profile); they never trust the value a document states.
"""

from zvsearch.forbidden import ForbiddenWitness, embedded, pattern_check
from zvsearch.game import check_aligned_search, is_monotonic, is_successful, simulate
from zvsearch.gsp import is_simple, tree_from_record
from zvsearch.solver import pathwidth
from zvsearch.synth import AlignedSearchBundle


def decomposition_problem(g, bags):
    """Why bags are not a path decomposition of g, or None."""
    bags = [frozenset(b) for b in bags]
    if set().union(*bags) != set(g.vertices):
        return "bags do not cover the vertices"
    for u, v in g.edges():
        if not any(u in b and v in b for b in bags):
            return f"edge {u}-{v} lies in no bag"
    for v in g.vertices:
        hits = [i for i, b in enumerate(bags) if v in b]
        if hits[-1] - hits[0] != len(hits) - 1:
            return f"bags holding {v} are not contiguous"
    return None


def _replay(g, steps, width, monotonic=False):
    steps = [frozenset(s) for s in steps]
    if any(len(s) > width for s in steps):
        return f"witness has a step wider than {width}"
    trace = simulate(g, steps)
    if not is_successful(trace):
        return "witness does not clear the graph"
    if monotonic and not is_monotonic(trace):
        return "witness is not monotonic"
    return None


def check_solve(g, doc, expect=None):
    value = doc["value"]
    if not isinstance(value, int) or value < 1:
        return f"value {value!r} is not a positive width"
    if expect is not None and value != expect:
        return f"value {value} differs from the frozen {expect}"
    why = _replay(g, doc["witness"], value)
    if why:
        return why
    width, decomp = pathwidth(g)
    why = decomposition_problem(g, decomp.bags)
    if why:
        return f"reference decomposition: {why}"
    if value > max(len(b) for b in decomp.bags):
        return f"value {value} exceeds pathwidth + 1 = {width + 1}"
    return None


def check_pathwidth(g, doc):
    why = decomposition_problem(g, doc["bags"])
    if why:
        return why
    if doc["value"] != max(len(b) for b in doc["bags"]) - 1:
        return "value is not the width of the bags"
    return None


def check_mono(g, doc, pw=None):
    if pw is not None and doc["value"] != pw + 1:
        return f"value {doc['value']} is not pathwidth + 1 = {pw + 1}"
    return _replay(g, doc["witness"], doc["value"], monotonic=True)


def check_lowerbound(g, doc, k):
    """The certificate must be the first size i whose k sizes below hold
    no profile member, and exist exactly when such an i does."""
    profile = doc["profile"]
    if doc["k"] != k:
        return f"k {doc['k']} is not the requested {k}"
    if k > 0 and not {0, g.n} <= set(profile):
        return "profile misses the empty set or the whole graph"
    first = next(
        (i for i in range(1, g.n + 1) if not any(i - k < c < i for c in profile)), None
    )
    cert = doc["certificate"]
    if cert is None:
        return None if first is None else f"no certificate, but size {first} has a gap"
    if cert["k"] != k or cert["profile"] != profile:
        return "certificate disagrees with the profile"
    if cert["i"] != first:
        return f"certificate gap at {cert['i']}, first gap at {first}"
    return None


def check_classify(g, doc):
    if doc["verdict"] == "YES":
        tree = tree_from_record(doc["tree"])
        if tree.graph != g:
            return "decomposition does not rebuild the input graph"
        if not is_simple(tree):
            return "decomposition is not simple"
        return None
    if doc["verdict"] != "NO":
        return f"unknown verdict {doc['verdict']!r}"
    witness = ForbiddenWitness.from_record(doc["witness"])
    if doc.get("family") != witness.family:
        return "family field disagrees with the witness"
    if not pattern_check(witness):
        return f"witness is not an {witness.family} pattern"
    if not embedded(witness, g):
        return "witness is not a subgraph of the input"
    return None


def check_synth(g, doc):
    """Returns (reason or None, bundle or None)."""
    if "search" not in doc:
        return f"no bundle (verdict {doc.get('verdict')!r})", None
    bundle = AlignedSearchBundle.from_record(doc)
    if bundle.host.base != g:
        return "bundle base is not the input graph", None
    a, b = bundle.alignment
    ok, why = check_aligned_search(bundle.host.derived, bundle.search, a, b, width=3)
    if not ok:
        return f"bundle search fails: {why}", None
    return None, bundle


def check_verify(doc, bundle):
    want = {
        "successful": True,
        "aligned": True,
        "length": len(bundle.search),
        "host_vertices": bundle.host.derived.n,
        "alignment": list(bundle.alignment),
    }
    for key, val in want.items():
        if doc.get(key) != val:
            return f"{key} is {doc.get(key)!r}, expected {val!r}"
    if doc["width"] > 3:
        return f"width {doc['width']} exceeds 3"
    return None
