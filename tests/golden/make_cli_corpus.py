"""Regenerate cli_corpus.json: exit code, stdout and stderr of CLI calls.

Usage (from the repository root):

    PYTHONPATH=src python tests/golden/make_cli_corpus.py

The inputs are the paper examples, the exotic D3 type, seeded random
irregular types over A-D (rank <= 7) and G2 (p <= 4), and one many-point
document.  Every input is passed inline, so each record is a complete,
replayable command line.  Outputs longer than PIN_LIMIT characters are
stored as their SHA-256 digest, which keeps the file small and the
comparison exact.  tests/test_golden.py replays the corpus and compares the
three outputs of every call byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from wildbraid import cli, fission, rootsys, selfcheck

CORPUS = Path(__file__).with_name("cli_corpus.json")
SEED = 20261018
RANDOM_COUNT = 120
PIN_LIMIT = 512
COMMANDS = (
    ["decompose", "--json"],
    ["decompose", "--check"],
    ["decompose", "--oracle"],
    ["tree", "--format", "json"],
    ["tree", "--format", "dot"],
    ["cable", "--json"],
)


def pin(text: str) -> str:
    """The text itself, or its SHA-256 digest when it is long."""
    if len(text) <= PIN_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def record(command: list[str], doc: str) -> dict:
    """One in-process CLI call, as the corpus stores it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command + [doc])
    return {
        "command": command,
        "exit": code,
        "stdout": pin(out.getvalue()),
        "stderr": pin(err.getvalue()),
    }


def _doc(q: fission.IrregularType) -> str:
    doc = {
        "lie_type": q.rs.family,
        "rank": q.rs.rank,
        "p": q.p,
        "coefficients": [[str(c) for c in coeff.coords] for coeff in q.coefficients],
    }
    return json.dumps(doc, sort_keys=True)


def corpus_inputs() -> list[str]:
    a2, a8 = rootsys.build_root_system("A", 2), rootsys.build_root_system("A", 8)
    d3 = rootsys.build_root_system("D", 3)
    docs = [_doc(fission.irregular_type(a2, selfcheck.SL3_VECTORS))]
    docs += [_doc(fission.irregular_type(a8, v)) for v in selfcheck.Q_EXAMPLES.values()]
    docs.append(_doc(fission.irregular_type(d3, [(1, 2, 4), (1, 1, 0)])))
    rng = random.Random(SEED)
    systems = [(f, r) for f in "ABCD" for r in range(2 if f == "D" else 1, 8)]
    systems.append(("G2", 2))
    points = []
    for _ in range(RANDOM_COUNT):
        rs = rootsys.build_root_system(*rng.choice(systems))
        q = fission.random_irregular_type(rs, rng.randint(1, 4), rng)
        docs.append(_doc(q))
        if len(points) < 3 and rs.rank <= 3:
            points.append(json.loads(docs[-1]))
    docs.append(json.dumps({"points": points}, sort_keys=True))
    return docs


def build_corpus() -> list[dict]:
    return [
        {"input": doc, "calls": [record(cmd, doc) for cmd in COMMANDS]}
        for doc in corpus_inputs()
    ]


if __name__ == "__main__":
    entries = build_corpus()
    CORPUS.write_text(json.dumps(entries, indent=0, sort_keys=True) + "\n")
    print(f"{len(entries)} inputs, {CORPUS.stat().st_size} bytes -> {CORPUS}")
