import json

from pinned_runs import DATA, all_runs


def test_pinned_runs():
    # the counts first, so that a failure names the suite that moved
    pinned = json.loads(DATA.read_text(encoding="ascii"))
    got = all_runs()

    def field(runs, name):
        return {c: {s: r[name] for s, r in seeds.items()} for c, seeds in runs.items()}

    assert field(got, "checks") == field(pinned, "checks")
    assert field(got, "sha256") == field(pinned, "sha256")
