"""Property suites: the in-scope theorems run as falsifiable checks.

Every suite maps a graph (plus a factory of its per-instance generator,
which only a sampling suite calls) to a count of executed checks and a list
of violations; the runner feeds a deterministic stream of random graphs and
wraps each violation in a self-contained reproducer.
"""

from __future__ import annotations

import json
import time
from functools import partial
from itertools import combinations_with_replacement, repeat

from . import blowup as bw
from . import degrees as dg
from .errors import InvariantViolation, PreconditionError
from .graph import CurveGraph, validate, write_json
from .lift import _checked, _one_tail_side, _sync_reports, one_tail_diagnostic
from .randgen import child_rng, instance_graph
from .tails import (_candidates, _level_families, _pool_index, family_terminals,
                    nested, symm_diff, tail_family)


def _sub(G, mask):
    return list(G.names_of(mask))


# -- individual suites -------------------------------------------------------


def suite_closure(G: CurveGraph, rng, profile):
    """Wedge closure of 2-tails and of level-2-free 3-tails, the terminal
    support lemmas, and the three elementary pair facts."""
    checks = 0
    bad = []
    marked_bit = 1 << G.marked
    two = [z for z, _ in _pool_index(G, 2)[0]]
    for a in range(len(two)):
        for b in range(a, len(two)):
            z, zp = two[a], two[b]
            w = z & zp
            if not w:
                continue
            checks += 1
            if not (G.is_tail(w) and G.k(w) == 2):
                bad.append({"check": "lemma-2.2", "z": _sub(G, z), "zp": _sub(G, zp)})
    for g1, g2 in combinations_with_replacement(range(G.p), 2):
        anchors = (1 << g1) | (1 << g2)
        if anchors & marked_bit:
            continue
        fam2 = nested(G, 2, anchors)
        cands3 = [z for z, _ in _candidates(G, 3, anchors)]
        closed = set(cands3)
        for a in range(len(cands3)):
            for b in range(a, len(cands3)):
                z, zp = cands3[a], cands3[b]
                checks += 1
                if z & zp not in closed:
                    bad.append(
                        {"check": "lemma-2.3", "anchors": _sub(G, anchors),
                         "z": _sub(G, z), "zp": _sub(G, zp)}
                    )
        fam3 = nested(G, 3, anchors)
        for z, tz in _candidates(G, 2, anchors):
            checks += 1
            if not any(w & z == w and G.term_mask(w) & tz for w in fam2):
                bad.append(
                    {"check": "lemma-2.5", "anchors": _sub(G, anchors), "z": _sub(G, z)}
                )
        for z, tz in _pool_index(G, 3)[0]:
            if z & anchors != anchors:
                continue
            checks += 1
            ok = any(G.term_mask(w) & tz for w in fam2) or any(
                G.term_mask(w) & tz and w & z == w for w in fam3
            )
            if not ok:
                bad.append(
                    {"check": "lemma-2.6", "anchors": _sub(G, anchors), "z": _sub(G, z)}
                )
    checks27, bad27 = lemma27(G, *G.tail_table())
    return checks + checks27, bad + bad27


def lemma27(G: CurveGraph, masks, terms) -> tuple[int, list]:
    """Lemma 2.7's three pair facts, one check per ordered pair of masks;
    terms is parallel to masks and holds their terminal masks (the tail
    table's two tuples, in the suite).

    With T(z) the terminal nodes of z, on(z) the nodes with an end on z and
    k(z) = |T(z)|: (i) T(z) inside on(z') implies z or its complement lies
    in z'; (ii) |T(z) & T(z')| = k(z) - 1 implies the pair is perfect (z or
    its complement is comparable with z'); (iii) k(z) >= 2 and k(z') = 1
    imply T(z) & T(z') is empty.
    """
    full = G.full_mask
    rows = []
    for z, tz in zip(masks, terms):
        on = 0
        for t, nd in enumerate(G.nodes):
            if (z >> nd.a | z >> nd.b) & 1:
                on |= 1 << t
        rows.append((z, full ^ z, tz, tz.bit_count(), on))
    bad = []
    for z, zc, tz, kz, _ in rows:
        for zp, _, tzp, kzp, on_zp in rows:
            if not tz & ~on_zp and z & zp != z and zc & zp != zc:
                bad.append({"check": "lemma-2.7-i", "z": _sub(G, z), "zp": _sub(G, zp)})
            shared = tz & tzp
            if shared.bit_count() == kz - 1:
                w, wc = z & zp, zc & zp
                if w != z and w != zp and wc != zc and wc != zp:
                    bad.append(
                        {"check": "lemma-2.7-ii", "z": _sub(G, z), "zp": _sub(G, zp)}
                    )
            if kz >= 2 and kzp == 1 and shared:
                bad.append({"check": "lemma-2.7-iii", "z": _sub(G, z), "zp": _sub(G, zp)})
    return len(rows) ** 2, bad


def _ijk_triples(G):
    for i in range(G.p):
        for j in range(i + 1, G.p):
            if not G.joining(i, j):
                continue
            for k in range(G.p):
                yield i, j, k


def suite_prop31(G: CurveGraph, rng, profile):
    """Symmetric-difference structure: the boundary-count bound, the total
    order with terminal links, the condition trichotomy, containment across
    the two families, the difference-node locations and the interior
    terminal-support inclusions."""
    checks = 0
    bad = []
    for i, j, k in _ijk_triples(G):
        ijm = G.joining(i, j)
        union = set(tail_family(G, i, k)) | set(tail_family(G, j, k))
        checks += 1
        hits = sum(1 for w in union if G.term_mask(w) & ijm)
        if hits > 1:
            bad.append({"check": "eq-14", "i": G.names[i], "j": G.names[j],
                        "k": G.names[k], "count": hits})
        reports = {}
        for s in (1, 2, 3):
            checks += 1
            try:
                reports[s] = symm_diff(G, s, i, j, k)
            except InvariantViolation as exc:
                bad.append({"check": f"prop-3.1-s{s}", "i": G.names[i],
                            "j": G.names[j], "k": G.names[k], "error": str(exc)})
                reports[s] = None
            if s == 1:
                # Containment across the level-1 families holds between the
                # adjacent pair's own families; tails anchored at the third
                # component k need not nest against them.
                fa = set(nested(G, 1, 1 << i))
                fb = set(nested(G, 1, 1 << j))
            else:
                fa, fb = _level_families(G, s, i, j, k)
            checks += 1
            for w in fa:
                for wp in fb:
                    if not (w & wp == w or w & wp == wp):
                        bad.append({"check": "remark-3.2", "s": s,
                                    "w": _sub(G, w), "wp": _sub(G, wp)})
        r2, r3 = reports.get(2), reports.get(3)
        if any(reports.get(s) and reports[s].family for s in (2, 3)):
            checks += 1
            if reports.get(1) and reports[1].family:
                bad.append({"check": "prop-3.1-last", "i": G.names[i],
                            "j": G.names[j], "k": G.names[k]})
        if r2 and r2.family:
            fam = r2.family
            s1, s2 = r2.difference_nodes
            checks += 1
            if not (ijm >> s1) & 1:
                bad.append({"check": "eq-16-s1", "i": G.names[i], "j": G.names[j],
                            "k": G.names[k], "s1": G.nodes[s1].id})
            if r3 and r3.family:
                checks += 1
                if not (G.term_mask(r3.family[0]) >> s2) & 1:
                    bad.append({"check": "eq-16-s2", "i": G.names[i],
                                "j": G.names[j], "k": G.names[k],
                                "s2": G.nodes[s2].id})
            both = (family_terminals(G, 2, (1 << i) | (1 << k))
                    & family_terminals(G, 2, (1 << j) | (1 << k)))
            checks += 1
            for w in fam[1:-1]:
                if G.term_mask(w) & ~both:
                    bad.append({"check": "eq-17-interior", "w": _sub(G, w)})
            ends = (G.term_mask(fam[0]) | G.term_mask(fam[-1])) & ~both
            if ends != (1 << s1) | (1 << s2):
                bad.append({"check": "eq-17-ends", "i": G.names[i],
                            "j": G.names[j], "k": G.names[k],
                            "failing": list(G.node_ids(ends)),
                            "difference_nodes": [G.nodes[s1].id, G.nodes[s2].id]})
    return checks, bad


def suite_oracle(G: CurveGraph, rng, profile):
    """Twister coefficients against the brute-force quasistable twist."""
    checks = 0
    bad = []
    table = dg.twister(G)
    for g1, g2 in combinations_with_replacement(range(G.p), 2):
        alpha = table[(g1, g2)]
        checks += 1
        try:
            c, d = dg.quasistable_representative(
                G, dg.abel_multidegree(G, g1, g2), bound=max(alpha) + 2
            )
        except (InvariantViolation, ValueError) as exc:
            bad.append({"check": "thm-2.4", "pair": [G.names[g1], G.names[g2]],
                        "error": str(exc)})
            continue
        if c != alpha:
            bad.append({"check": "thm-2.4", "pair": [G.names[g1], G.names[g2]],
                        "alpha": list(alpha), "oracle": list(c)})
    return checks, bad


def suite_lemma35(G: CurveGraph, rng, profile):
    checks = 0
    bad = []
    for i, j, k in _ijk_triples(G):
        for a, b in ((i, j), (j, i)):
            checks += 1
            try:
                dg.lemma35_difference(G, a, b, k)
            except InvariantViolation as exc:
                bad.append({"check": "lemma-3.5", "i": G.names[a], "j": G.names[b],
                            "k": G.names[k], "error": str(exc)})
    return checks, bad


def suite_admissibility(G: CurveGraph, rng, profile):
    """Every gated inequality instance, at every node pair and under both
    matchings (any good refinement realizes either one), plus the diagonal
    instances."""
    checks = 0
    bad = []
    for r in G.reducible_nodes():
        rep = bw.admissibility_check(G, r, r)
        checks += rep.count
        for inst in rep.failures:
            bad.append({"check": f"ineq-{inst.ineq}", "pair": [G.nodes[r].id],
                        "args": list(inst.args), "value": inst.value})
    for ch in bw.choices(G):
        rep = bw.admissibility_check(G, ch.r1, ch.r2, ch)
        checks += rep.count
        for inst in rep.failures:
            bad.append({
                "check": f"ineq-{inst.ineq}",
                "pair": [G.nodes[ch.r1].id, G.nodes[ch.r2].id],
                "matching": ch.match_names(G),
                "args": list(inst.args),
                "value": inst.value,
            })
    return checks, bad


def suite_lemma61(G: CurveGraph, rng, profile):
    checks = 0
    bad = []
    for ch in bw.choices(G):
        for index, labels in enumerate(bw._point_labels(ch), 1):  # (g1, g1', g2, g2')
            checks += 1
            detail = (_one_tail_side(G, ch.r1, labels[0])
                      + _one_tail_side(G, ch.r2, labels[2]))
            if detail:
                pt = bw.DistinguishedPoint(ch, index, *labels)
                bad.append({"check": "lemma-6.1", "point": pt.describe(G),
                            "detail": [list(d) for d in detail]})
    return checks, bad


def suite_prop62(G: CurveGraph, rng, profile):
    """Quasistable implies synchronized, and the level-2 node-counting
    identity on every synchronized point."""
    checks = 0
    bad = []
    verdicts = bw._point_verdicts(G, profile)
    reports = _sync_reports(G)
    for ch, pair in verdicts.items():
        for qs, entry in zip(pair, reports[ch]):
            checks += 1
            sync = _checked(entry)
            if qs.ok and not sync.synchronized:
                # the reproducer carries the level-1 verdict, as `sync` prints it
                diag_ok = not one_tail_diagnostic(G, sync.point)
                bad.append({"check": "prop-6.2", "point": sync.point.describe(G),
                            "sync": {**sync.describe(G),
                                     "one_tail_diagnostic_ok": diag_ok}})
            if sync.synchronized:
                checks += 1
                if sync.eq34:
                    bad.append({"check": "eq-34", "point": sync.point.describe(G),
                                "violations": [list(v) for v in sync.eq34]})
    return checks, bad


def suite_thm63(G: CurveGraph, rng, profile):
    """Both points of a choice are quasistable exactly when both are
    synchronized.

    Under the reconstructed profile both points of a choice have the same
    condition pairs, {(x, y'), (x', y)}, so they always share their
    quasistable verdict and the mixed branch (one point quasistable, the
    other not) cannot occur there.
    """
    checks = 0
    bad = []
    verdicts = bw._point_verdicts(G, profile)
    reports = _sync_reports(G)
    for ch, (qs1, qs2) in verdicts.items():
        en1, en2 = reports[ch]
        checks += 1
        qs_both = qs1.ok and qs2.ok
        sync_both = _checked(en1).synchronized and _checked(en2).synchronized
        if qs_both != sync_both:
            bad.append({
                "check": "thm-6.3",
                "pair": [G.nodes[ch.r1].id, G.nodes[ch.r2].id],
                "matching": ch.match_names(G),
                "quasistable": qs_both,
                "synchronized": sync_both,
            })
    return checks, bad


def suite_thm64(G: CurveGraph, rng, profile):
    checks = 1
    bad = []
    plan = bw.plan_from_tails(G)
    report = bw.decide_resolution(G, plan, profile)
    if not report.resolved:
        bad.append({
            "check": "thm-6.4",
            "profile": profile,
            "failing_pairs": [
                [G.nodes[p.r1].id, G.nodes[p.r2].id]
                for p in report.failing_pairs()
            ],
        })
    return checks, bad


QS_SAMPLES = 6  # degree-0 multidegrees drawn per instance by qs-uniqueness


def suite_qs_uniqueness(G: CurveGraph, rng, profile):
    """At most one quasistable multidegree per twist class inside the box.

    Degree-0 multidegrees with entries in [-3, 3] are sampled per instance
    (graphs with more than five components are skipped, matching the scale
    at which the full box scan stays exhaustive)."""
    if G.p > 5:
        return 0, []
    randint = rng().randint
    checks = 0
    bad = []
    for _ in range(QS_SAMPLES):
        d0 = [randint(-3, 3) for _ in range(G.p - 1)]
        last = -sum(d0)
        if not -3 <= last <= 3:
            continue
        d0 = tuple(d0 + [last])
        checks += 1
        try:
            dg.quasistable_representative(G, d0, bound=3)
        except dg.RepresentativeNotFound:
            pass  # absence within the box is not a uniqueness failure
        except InvariantViolation as exc:
            bad.append({"check": "qs-uniqueness", "d0": list(d0),
                        "error": str(exc)})
    return checks, bad


SUITES = {
    "closure-22/23": suite_closure,
    "prop-31": suite_prop31,
    "thm-24-oracle": suite_oracle,
    "lemma-35": suite_lemma35,
    "thm-36-admissibility": suite_admissibility,
    "lemma-61": suite_lemma61,
    "prop-62": suite_prop62,
    "thm-63-pairwise": suite_thm63,
    "thm-64-resolution": suite_thm64,
    "qs-uniqueness": suite_qs_uniqueness,
}

ALL_SUITES = tuple(SUITES)


# -- runner ------------------------------------------------------------------


_LEAST = {"instances": 0, "max_components": 1, "max_extra_edges": 0, "jobs": 1}


class SuiteConfig:
    """The settings of one run, validated on construction: the counts are
    ints (not bools) no smaller than their bounds in `_LEAST`, allow_loops
    is a bool, and nothing is coerced.
    Configs with equal settings are equal.  `__slots__` names the
    settings."""

    __slots__ = ("seed", "instances", "max_components", "max_extra_edges",
                 "allow_loops", "profile", "suites", "jobs")

    def __init__(self, seed: int = 1, instances: int = 50, max_components: int = 6,
                 max_extra_edges: int = 4, allow_loops: bool = True,
                 profile: str = bw.RECONSTRUCTED,
                 suites: tuple[str, ...] = ALL_SUITES, jobs: int = 1):
        suites = tuple(suites)
        bad = [s for s in suites if s not in SUITES]
        if bad:
            raise PreconditionError(f"unknown suites: {bad}")
        repeated = sorted({s for s in suites if suites.count(s) > 1})
        if repeated:
            raise PreconditionError(f"suites named more than once: {repeated}")
        if profile not in bw.PROFILES:
            raise PreconditionError(f"unknown profile {profile!r}")
        counts = {"seed": seed, "instances": instances, "max_components": max_components,
                  "max_extra_edges": max_extra_edges, "jobs": jobs}
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise PreconditionError(f"{name} must be an integer, got {value!r}")
        if not isinstance(allow_loops, bool):
            raise PreconditionError(f"allow_loops must be a boolean, got {allow_loops!r}")
        for name, least in _LEAST.items():
            if counts[name] < least:
                raise PreconditionError(
                    f"{name} must be at least {least}, got {counts[name]}")
        self.seed = seed
        self.instances = instances
        self.max_components = max_components
        self.max_extra_edges = max_extra_edges
        self.allow_loops = allow_loops
        self.profile = profile
        self.suites = suites
        self.jobs = jobs

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if type(other) is not SuiteConfig:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items())
        return f"SuiteConfig({fields})"


class VerificationReport:
    """The checks and violations of one run, per suite; `wall_time` is set
    once the run ends."""

    __slots__ = ("config", "checks", "violations", "wall_time")

    def __init__(self, config: SuiteConfig, checks: dict, violations: dict,
                 wall_time: float = 0.0):
        self.config = config
        self.checks = checks  # suite name -> number of checks
        self.violations = violations  # suite name -> list of reproducers
        self.wall_time = wall_time

    @property
    def ok(self) -> bool:
        return not any(self.violations[s] for s in self.config.suites)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "config": self.config.to_dict(),
            "suites": {
                s: {"checks": self.checks[s], "violations": self.violations[s]}
                for s in self.config.suites
            },
            "ok": self.ok,
        }
        if include_timing:
            out["wall_time_s"] = round(self.wall_time, 3)
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return write_json(self.to_dict(include_timing))


def _check(G: CurveGraph, name: str, seed: int, index: int, profile: str):
    """Run one suite on one graph: its check count and its violations, each
    wrapped in a self-contained reproducer.  An exception raised inside the
    suite counts as one failed check: an invariant violation with its
    witnesses, any other one (a crash) with its type, so that one broken
    suite never aborts a run.  The suite gets its generator,
    `child_rng(seed, "index:name")`, as a factory, so a suite that draws
    nothing pays for no seeding."""
    rng = partial(child_rng, seed, f"{index}:{name}")
    try:
        checks, bad = SUITES[name](G, rng, profile)
    except InvariantViolation as exc:
        checks, bad = 1, [{"check": name, "error": str(exc),
                           "witnesses": _jsonable(exc.witnesses)}]
    except Exception as exc:
        checks, bad = 1, [{"check": name,
                           "error": f"{type(exc).__name__}: {exc}"}]
    return checks, [
        {"suite": name, "instance": index, "seed": seed, "profile": profile,
         "graph": G.to_spec(), "context": b}
        for b in bad
    ]


def _run_instance(cfg: SuiteConfig, index: int, G: CurveGraph | None):
    """Every selected suite on one graph: G, or else instance `index` of the
    seeded stream (drawn here, so a pool worker draws its own)."""
    if G is None:
        G = instance_graph(
            cfg.seed, index, cfg.max_components, cfg.max_extra_edges, cfg.allow_loops
        )
    return {name: _check(G, name, cfg.seed, index, cfg.profile) for name in cfg.suites}


def _jsonable(obj):
    try:
        json.dumps(obj)
        return obj
    except TypeError:
        return repr(obj)


def _run(config: SuiteConfig, work: list) -> VerificationReport:
    """The report of the selected suites on each (index, graph) of work; a
    graph of None is drawn from the seeded stream.  The pool, when
    config.jobs asks for one, never starts more workers than there are
    instances."""
    start = time.monotonic()
    report = VerificationReport(config, {s: 0 for s in config.suites},
                                {s: [] for s in config.suites})
    jobs = min(config.jobs, len(work))
    if jobs > 1:
        # imported here: the pool's modules cost a serial run memory it never uses
        from concurrent.futures import ProcessPoolExecutor

        indices, graphs = zip(*work)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_instance, repeat(config), indices, graphs))
    else:
        results = [_run_instance(config, i, G) for i, G in work]
    for per_suite in results:
        for name, (checks, bad) in per_suite.items():
            report.checks[name] += checks
            report.violations[name].extend(bad)
    report.wall_time = time.monotonic() - start
    return report


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run the selected suites over the seeded instance stream."""
    return _run(config, [(i, None) for i in range(config.instances)])


def replay(dump: dict) -> VerificationReport:
    """Re-run the suite of a violation dump on its embedded graph.

    The dump is an object with a suite name and a graph description, and
    optionally integer "seed" and "instance" (not booleans) and a profile
    name; anything else raises PreconditionError or GraphError.  A seed or
    profile the dump lacks is `SuiteConfig`'s.
    """
    if not isinstance(dump, dict):
        raise PreconditionError("a dump must be a JSON object")
    name = dump.get("suite")
    if not isinstance(name, str) or name not in SUITES:
        raise PreconditionError(f"dump references unknown suite {name!r}")
    G = validate(dump.get("graph"))
    for key in ("seed", "instance"):
        value = dump.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise PreconditionError(f"dump {key} must be an integer, got {value!r}")
    run = {key: dump[key] for key in ("seed", "profile") if key in dump}
    cfg = SuiteConfig(instances=1, suites=(name,), **run)
    return _run(cfg, [(dump.get("instance", 0), G)])
