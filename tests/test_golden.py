"""The output corpus: every command line in ``tests/golden/cli.json`` prints what it
printed, and every hash in ``tests/golden/outcomes.json`` reads what it read.

A change that moves an entry on purpose rewrites the manifests with
``tests/golden/regen.py``, which says how.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)
CORPUS = json.loads((GOLDEN / "cli.json").read_text())
OUTCOMES = json.loads((GOLDEN / "outcomes.json").read_text())


@pytest.mark.parametrize("name", CORPUS)
def test_cli_corpus_entry_prints_the_same_bytes(name, tmp_path):
    entry = CORPUS[name]
    expected = {key: entry[key] for key in ("exit", "stdout", "stderr")}
    assert regen.replay(entry, tmp_path) == expected


def test_cli_corpus_holds_every_case():
    # a case added to regen.py and not yet replayed into the manifest fails here
    assert {name: {k: v for k, v in entry.items() if k not in ("exit", "stdout", "stderr")}
            for name, entry in CORPUS.items()} == regen.CASES


@pytest.mark.parametrize("name", OUTCOMES)
def test_outcome_hash_reads_the_same(name):
    assert regen.outcome_digest(name) == OUTCOMES[name]


def test_outcome_manifest_holds_every_digest():
    assert OUTCOMES.keys() == regen.DIGESTS.keys()
