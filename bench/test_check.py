"""The output checks accept real outputs and reject corrupted ones.

    python3 -m pytest bench/test_check.py
"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import check  # noqa: E402
import spans  # noqa: E402
from zvsearch import cli  # noqa: E402
from zvsearch.graphs import generate  # noqa: E402

import pytest  # noqa: E402


def emit(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def test_solve():
    g = generate("cycle:6")
    doc = emit("solve", "cycle:6")
    assert check.check_solve(g, doc, 3) is None
    assert check.check_solve(g, doc, 4)
    assert check.check_solve(g, dict(doc, value=2))
    assert check.check_solve(g, dict(doc, value=4))
    assert check.check_solve(g, dict(doc, witness=doc["witness"][:-1]))


def test_pathwidth_and_mono():
    g = generate("grid:3,3")
    pw = emit("pathwidth", "grid:3,3")
    assert check.check_pathwidth(g, pw) is None
    assert check.check_pathwidth(g, dict(pw, value=pw["value"] - 1))
    bags = [set(b) for b in pw["bags"]]
    v = next(v for v in g.vertices if sum(v in b for b in bags) >= 3)
    hits = [i for i, b in enumerate(bags) if v in b]
    bags[hits[1]].discard(v)  # v's bags are no longer contiguous
    assert check.check_pathwidth(g, dict(pw, bags=[sorted(b) for b in bags]))

    mono = emit("mono", "grid:3,3")
    assert check.check_mono(g, mono, pw["value"]) is None
    assert check.check_mono(g, dict(mono, value=mono["value"] + 1), pw["value"])
    assert check.check_mono(g, dict(mono, witness=mono["witness"][:-1]))


def test_lowerbound():
    g = generate("grid:3,3")
    doc = emit("lowerbound", "grid:3,3", "-k", "2")
    assert doc["certificate"] is not None
    assert check.check_lowerbound(g, doc, 2) is None
    assert check.check_lowerbound(g, doc, 3)
    cert = dict(doc["certificate"], i=doc["certificate"]["i"] + 1)
    assert check.check_lowerbound(g, dict(doc, certificate=cert), 2)
    assert check.check_lowerbound(g, dict(doc, certificate=None), 2)


def test_classify():
    g = generate("cycle:5")
    yes = emit("classify", "cycle:5")
    assert check.check_classify(g, yes) is None
    other = emit("classify", "cycle:6")
    assert check.check_classify(g, dict(yes, tree=other["tree"]))

    f1 = generate("f1")
    no = emit("classify", "f1")
    assert check.check_classify(f1, no) is None
    assert check.check_classify(f1, dict(no, family="F2"))
    assert check.check_classify(generate("k4sub"), no)


def test_synth_and_verify(tmp_path):
    g = generate("cycle:5")
    doc = emit("synth", "cycle:5")
    why, bundle = check.check_synth(g, doc)
    assert why is None
    dropped = dict(doc, search=doc["search"][:-1])
    assert check.check_synth(g, dropped)[0]
    assert check.check_synth(generate("cycle:6"), doc)[0]

    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    ver = emit("verify", "--bundle", str(path))
    assert check.check_verify(ver, bundle) is None
    assert check.check_verify(dict(ver, length=ver["length"] - 1), bundle)
    assert check.check_verify(dict(ver, aligned=False), bundle)


def test_tracer_refuses_a_cli_without_a_wrapped_name():
    fake = types.ModuleType("fake_cli")
    for name in spans.WRAPPED:
        setattr(fake, name, len)
    assert spans.Tracer(fake).originals
    del fake.synthesize
    with pytest.raises(RuntimeError, match="synthesize"):
        spans.Tracer(fake)
