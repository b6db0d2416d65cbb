"""The pinned CLI outputs: the SHA-256 of stdout and the exit code of each
`--json` command below, run in-process through `cli.main`, on the fixtures
G1-G4 and the first 10 graphs of `conftest.oracle_corpus()`:

- `plan`, `resolve --from-tails`, and `minimal` under both profiles;
- for every choice of `blowup.choices(G)`: `distinguished` under both
  profiles and `sync --point 1` and `--point 2`.

`tests/test_cli_digests.py` recomputes every entry of `cli_digests.json`.
This script writes that file; pytest does not collect it.  Rerun it only
when an output is meant to change, and say why:

    PYTHONPATH=src python tests/cli_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import oracle_corpus
from tailcomb.blowup import PROFILES, choices
from tailcomb.cli import main
from tailcomb.fixtures import FIXTURE_NAMES, fixture
from tailcomb.graph import write_json

DATA = Path(__file__).with_name("cli_digests.json")


def graphs() -> dict:
    """Each pinned graph by the name its entries are filed under."""
    named = {name: fixture(name) for name in FIXTURE_NAMES}
    named.update((f"corpus-{i}", G) for i, G in enumerate(oracle_corpus()[:10]))
    return named


def commands(G) -> list[list[str]]:
    """The pinned commands on G, each without its graph argument."""
    out = [["plan"], ["resolve", "--from-tails"]]
    out += [["minimal", "--profile", profile] for profile in PROFILES]
    for ch in choices(G):
        picked = ["--pair", f"{G.nodes[ch.r1].id},{G.nodes[ch.r2].id}",
                  "--match", ",".join(":".join(pair) for pair in ch.match_names(G))]
        out += [["distinguished", *picked, "--profile", profile] for profile in PROFILES]
        out += [["sync", *picked, "--point", point] for point in ("1", "2")]
    return out


def run(argv: list[str]) -> dict:
    """The digest of one command's stdout and its exit code."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit": code}


def all_digests() -> dict:
    """{graph: {command: digest}}; each graph is read from a JSON file, as
    the CLI reads one, so every command starts on a cold graph."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, G in graphs().items():
            path = Path(tmp, f"{name}.json")
            path.write_text(write_json(G.to_spec()), encoding="utf-8")
            digests[name] = {" ".join(argv): run([argv[0], str(path), *argv[1:], "--json"])
                             for argv in commands(G)}
    return digests


if __name__ == "__main__":
    DATA.write_text(json.dumps(all_digests(), indent=2) + "\n", encoding="ascii")
    print(f"wrote {DATA}")
