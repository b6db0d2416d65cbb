import json

from cli_digests import DATA, all_digests


def test_cli_digests():
    # the commands first, so that a failure names the set that moved
    pinned = json.loads(DATA.read_text(encoding="ascii"))
    got = all_digests()
    assert {g: sorted(runs) for g, runs in got.items()} == {
        g: sorted(runs) for g, runs in pinned.items()}
    assert got == pinned
