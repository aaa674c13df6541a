"""Replay the golden CLI corpus: every exit code, stdout and stderr byte for byte.

The corpus is tests/golden/cli_corpus.json; tests/golden/make_cli_corpus.py
regenerates it (see its docstring).
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden")


def _corpus_module():
    spec = importlib.util.spec_from_file_location(
        "make_cli_corpus", GOLDEN / "make_cli_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_corpus_byte_identical():
    corpus = _corpus_module()
    entries = json.loads(corpus.CORPUS.read_text())
    assert len(entries) == corpus.RANDOM_COUNT + 6
    mismatches = []
    for entry in entries:
        for call in entry["calls"]:
            got = corpus.record(call["command"], entry["input"])
            if got != call:
                mismatches.append((call["command"], entry["input"], call, got))
    assert not mismatches, f"{len(mismatches)} calls differ; first: {mismatches[0]}"
