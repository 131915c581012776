"""Golden CLI corpus: every subcommand on fixed documents, byte for byte.

Each line of golden/corpus.jsonl holds the argv of one call (``{0}``,
``{1}`` stand for the input files), the exact bytes of those files, the
exit code and the exact report bytes.  A schema error's report names its
input file, held there as ``{0}`` or ``{1}`` as well.  The entries were
drawn from fixed seeds of gen.py, and the schema errors are worded as
jsonschema 4.26.0's ``best_match`` words them; a refactor that keeps
behaviour keeps every report.
"""

import json
from pathlib import Path

import pytest

from thetaparam.cli import main

CORPUS = [
    json.loads(line)
    for line in (Path(__file__).parent / "golden" / "corpus.jsonl").read_text().splitlines()
]


def test_corpus_covers_every_subcommand():
    assert len(CORPUS) >= 200
    ops = {(e["argv"][0], e["code"]) for e in CORPUS}
    for op in ("validate", "lift", "predict", "equiv", "blocks", "distinguish", "transport"):
        assert (op, 0) in ops and (op, 1) in ops, op
    assert ("finite-verify", 0) in ops and ("validate", 2) in ops


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_golden_report(k, tmp_path):
    entry = CORPUS[k]
    paths = []
    for i, text in enumerate(entry["docs"]):
        path = tmp_path / f"doc{i}.json"
        path.write_text(text)
        paths.append(str(path))
    argv = [a.format(*paths) for a in entry["argv"]]
    report = entry["report"]
    for i, path in enumerate(paths):
        report = report.replace(f"{{{i}}}", json.dumps(path)[1:-1])
    out = tmp_path / "report.json"
    assert main(["--out", str(out), *argv]) == entry["code"]
    assert out.read_text() == report
