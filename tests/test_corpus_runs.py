"""`evmsem run --expect --trace -` on every corpus fixture, `evmsem check
PROPERTY FIXTURE --expect` for every verdict a fixture declares, and `evmsem
ingest` of the shipped state tests, print the stdout (by sha256) and exit with
the code recorded in `tests/data/corpus_runs.json`. The commands run in
process, through `cli.main`.

Rewrite the record, only when a change of that output is intended, with
`PYTHONPATH=src python tests/test_corpus_runs.py`.
"""

import hashlib
import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from evmsem.cli import main
from evmsem.fixtures import corpus_dir, parse_fixture

RECORD = Path(__file__).parent / "data" / "corpus_runs.json"


def _commands():
    """(name, argv) of each recorded command."""
    for path in sorted(corpus_dir().glob("*.json")):
        yield f"run {path.stem}", ["run", "--expect", "--trace", "-", str(path)]
        for prop in parse_fixture(path).expect.get("verdicts", {}):
            yield f"check {prop} {path.stem}", ["check", prop, str(path), "--expect"]
    yield "ingest state_tests", ["ingest", str(corpus_dir() / "state_tests")]


def corpus_runs() -> dict:
    """name -> {"exit": code, "stdout_sha256": digest} of each command."""
    runs = {}
    for name, argv in _commands():
        out = StringIO()
        with redirect_stdout(out):
            code = main(argv)
        runs[name] = {"exit": code,
                      "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    return runs


def test_corpus_runs_print_the_recorded_bytes():
    recorded = json.loads(RECORD.read_text())
    assert len(recorded) == 35       # 15 runs, 19 declared checks and one ingest
    assert corpus_runs() == recorded


if __name__ == "__main__":
    RECORD.write_text(json.dumps(corpus_runs(), indent=1, sort_keys=True) + "\n")
