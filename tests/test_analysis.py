"""Tests for the repro.analysis subsystem.

Three layers:
* the trace sanitizer is clean over real runs (apps x protocol ladder)
  and catches intentionally seeded violations of every check class;
* the static determinism lint is clean over ``src/repro`` and catches a
  seeded violation of every rule class;
* the runtime invariant checker accepts real runs and rejects direct
  violations of each predicate.

Plus the determinism regression: identical runs must produce
byte-identical trace streams.
"""

import pytest

from repro.analysis import (RULES, SANITIZER_CHECKS, HBGraph,
                            InvariantChecker, InvariantViolation,
                            Sanitizer, default_target, lint_source,
                            sanitize_run)
from repro.apps import APP_REGISTRY
from repro.cli import main as cli_main
from repro.sim.trace import TraceEvent, Tracer
from repro.svm import PROTOCOL_LADDER
from repro.svm.pages import PageAccess
from repro.svm.timestamps import Interval, VectorClock

CHECK_APPS = ("Barnes-spatial", "Water-spatial")


def ev(seq, category, **fields):
    return TraceEvent(t=float(seq), category=category,
                      fields=fields, seq=seq)


def findings_of(check_name, events):
    return Sanitizer(checks=[check_name]).run(events)


# ---------------------------------------------------- clean on real runs

@pytest.mark.parametrize("app_name", CHECK_APPS)
@pytest.mark.parametrize("features", PROTOCOL_LADDER,
                         ids=lambda f: f.name)
def test_sanitizer_clean_on_ladder(app_name, features):
    """Seed protocols produce zero findings, with invariants enabled."""
    result, findings = sanitize_run(APP_REGISTRY[app_name](), features)
    assert findings == [], "\n".join(str(f) for f in findings)
    assert result.time_us > 0


# ------------------------------------------------- seeded trace violations

def test_registry_has_all_check_classes():
    assert {"lost-write-notice", "clock-regression", "lock-queue",
            "fetch-race", "barrier-epoch"} <= set(SANITIZER_CHECKS)


def test_catches_lost_write_notice():
    events = [
        ev(1, "interval.close", node=1, index=1, written=(7,),
           clock=(0, 1)),
        # Node 0's clock has seen node 1's interval 1 (which wrote page
        # 7) yet the fault carries no needed version for it.
        ev(2, "fault.fetch", node=0, gid=7, needed=(), clock=(0, 1)),
    ]
    found = findings_of("lost-write-notice", events)
    assert len(found) == 1
    assert "write notice" in found[0].message
    assert found[0].events[-1].seq == 2


def test_write_notice_ok_when_needed_covers():
    events = [
        ev(1, "interval.close", node=1, index=1, written=(7,),
           clock=(0, 1)),
        ev(2, "fault.fetch", node=0, gid=7, needed=((1, 1),),
           clock=(0, 1)),
    ]
    assert findings_of("lost-write-notice", events) == []


def test_write_notice_ok_when_unseen():
    # Clock has not seen the write: no acquire chain, nothing lost.
    events = [
        ev(1, "interval.close", node=1, index=1, written=(7,),
           clock=(0, 1)),
        ev(2, "fault.fetch", node=0, gid=7, needed=(), clock=(0, 0)),
    ]
    assert findings_of("lost-write-notice", events) == []


def test_catches_clock_regression():
    events = [
        ev(1, "clock.advance", node=0, clock=(2, 2), want=()),
        ev(2, "clock.advance", node=0, clock=(1, 2), want=()),
    ]
    found = findings_of("clock-regression", events)
    assert len(found) == 1
    assert "regressed" in found[0].message


def test_catches_merge_not_dominating():
    events = [
        ev(1, "clock.advance", node=0, clock=(1, 0), want=(0, 2)),
    ]
    found = findings_of("clock-regression", events)
    assert len(found) == 1
    assert "dominate" in found[0].message


@pytest.mark.parametrize("prefix", ["nilock", "svmlock"])
def test_catches_double_grant(prefix):
    events = [
        ev(1, prefix + ".acquire", node=1, lock=3),
        ev(2, prefix + ".grant", node=0, lock=3, requester=1,
           queue=(1,), present=False, held=False),
        ev(3, prefix + ".granted", node=1, lock=3),
    ]
    found = findings_of("lock-queue", events)
    assert any("double grant" in f.message for f in found)


def test_catches_grant_while_held():
    events = [
        ev(1, "nilock.acquire", node=1, lock=3),
        ev(2, "nilock.grant", node=0, lock=3, requester=1,
           queue=(1,), present=True, held=True),
        ev(3, "nilock.granted", node=1, lock=3),
    ]
    found = findings_of("lock-queue", events)
    assert any("still held" in f.message for f in found)


def test_catches_queue_head_bypass():
    events = [
        ev(1, "nilock.acquire", node=2, lock=3),
        ev(2, "nilock.acquire", node=1, lock=3),
        ev(3, "nilock.grant", node=0, lock=3, requester=1,
           queue=(2, 1), present=True, held=False),
        ev(4, "nilock.granted", node=1, lock=3),
        ev(5, "nilock.grant", node=1, lock=3, requester=2,
           queue=(2,), present=True, held=False),
        ev(6, "nilock.granted", node=2, lock=3),
    ]
    found = findings_of("lock-queue", events)
    assert any("bypassed queue head" in f.message for f in found)


def test_catches_orphaned_waiter():
    events = [
        ev(1, "nilock.acquire", node=1, lock=3),
        ev(2, "nilock.acquire", node=2, lock=3),
        ev(3, "nilock.grant", node=0, lock=3, requester=1,
           queue=(1,), present=True, held=False),
        ev(4, "nilock.granted", node=1, lock=3),
        # Node 2 never gets its grant.
    ]
    found = findings_of("lock-queue", events)
    assert any("orphaned waiter" in f.message for f in found)


def test_lock_queue_clean_chain_accepted():
    events = [
        ev(1, "nilock.acquire", node=1, lock=3),
        ev(2, "nilock.grant", node=0, lock=3, requester=1,
           queue=(1,), present=True, held=False),
        ev(3, "nilock.granted", node=1, lock=3),
        ev(4, "nilock.acquire", node=2, lock=3),
        ev(5, "nilock.grant", node=1, lock=3, requester=2,
           queue=(2,), present=True, held=False),
        ev(6, "nilock.granted", node=2, lock=3),
    ]
    assert findings_of("lock-queue", events) == []


def test_catches_fetch_race():
    events = [
        ev(1, "home.apply", gid=5, writer=1, index=1),
        # Accepted a snapshot that does not satisfy the needed versions.
        ev(2, "fetch.ok", node=0, gid=5, snapshot=((1, 1),),
           needed=((1, 2),)),
    ]
    found = findings_of("fetch-race", events)
    assert len(found) == 1
    assert "raced" in found[0].message


def test_catches_fetch_race_among_several_writers():
    events = [
        ev(1, "home.apply", gid=5, writer=1, index=2),
        ev(2, "home.apply", gid=5, writer=4, index=1),
        # Writer 1 is ahead of need, writer 3 is missing (version 0)
        # and writer 4 is behind: the walk must not stop at writer 1.
        ev(3, "fetch.ok", node=0, gid=5, snapshot=((1, 2), (4, 1)),
           needed=((1, 1), (3, 0), (4, 2))),
        # Writer 2 missing from the snapshot entirely.
        ev(4, "fetch.ok", node=1, gid=5, snapshot=((1, 2),),
           needed=((2, 1),)),
        # Satisfied, with writers the reader did not need.
        ev(5, "fetch.ok", node=2, gid=5, snapshot=((1, 2), (4, 1)),
           needed=((4, 1),)),
    ]
    found = findings_of("fetch-race", events)
    assert [f.message for f in found] == [
        "node 0 accepted page 5 at versions {1: 2, 4: 1} while needing "
        "{1: 1, 3: 0, 4: 2}: a diff application raced with the fetch",
        "node 1 accepted page 5 at versions {1: 2} while needing "
        "{2: 1}: a diff application raced with the fetch",
    ]


def test_catches_phantom_version():
    events = [
        # Snapshot claims a diff no home.apply ever produced.
        ev(1, "fetch.ok", node=0, gid=5, snapshot=((1, 3),),
           needed=((1, 3),)),
    ]
    found = findings_of("fetch-race", events)
    assert any("no such diff" in f.message for f in found)


def test_fetch_ok_when_satisfied():
    events = [
        ev(1, "home.apply", gid=5, writer=1, index=2),
        ev(2, "fetch.ok", node=0, gid=5, snapshot=((1, 2),),
           needed=((1, 2),)),
    ]
    assert findings_of("fetch-race", events) == []


def test_catches_barrier_epoch_violation():
    events = [
        ev(1, "barrier.enter", rank=0, epoch=0),
        ev(2, "barrier.exit", rank=0, epoch=0),
        ev(3, "barrier.enter", rank=1, epoch=0),
        ev(4, "barrier.exit", rank=1, epoch=0),
    ]
    found = findings_of("barrier-epoch", events)
    assert len(found) == 1
    assert "exited before" in found[0].message


def test_barrier_epochs_independent():
    events = [
        ev(1, "barrier.enter", rank=0, epoch=0),
        ev(2, "barrier.enter", rank=1, epoch=0),
        ev(3, "barrier.exit", rank=0, epoch=0),
        ev(4, "barrier.exit", rank=1, epoch=0),
        ev(5, "barrier.enter", rank=0, epoch=1),
        ev(6, "barrier.enter", rank=1, epoch=1),
        ev(7, "barrier.exit", rank=1, epoch=1),
    ]
    assert findings_of("barrier-epoch", events) == []


def test_checks_read_their_categories_in_trace_order():
    """Every check reads only its own categories from the HBGraph
    index; rows of several categories must come back in trace order,
    not grouped by category."""
    events = [
        # A clean NI-lock chain, 0 -> 1 -> 2, its rows interleaved
        # with other families.  Grouped by op, the second grant would
        # leave a token still in flight to node 1.
        ev(1, "nilock.acquire", node=1, lock=0),
        ev(2, "nilock.grant", node=0, lock=0, requester=1, queue=(1,)),
        ev(3, "barrier.enter", rank=0, epoch=0),
        ev(4, "nilock.granted", node=1, lock=0),
        ev(5, "nilock.acquire", node=2, lock=0),
        # Claims version 1 of writer 1 before any home applied it:
        # the apply below comes too late to back the claim.
        ev(6, "fetch.ok", node=0, gid=5, snapshot=((1, 1),), needed=()),
        ev(7, "nilock.grant", node=1, lock=0, requester=2, queue=(2,)),
        ev(8, "home.apply", gid=5, writer=1, index=1),
        ev(9, "nilock.granted", node=2, lock=0),
        ev(10, "barrier.exit", rank=0, epoch=0),
    ]
    found = Sanitizer().run(events)
    assert [(f.check, [e.seq for e in f.events]) for f in found] \
        == [("fetch-race", [6])], "\n".join(str(f) for f in found)
    assert "no such diff" in found[0].message
    hb = HBGraph(events, Sanitizer().reads)
    assert [e.seq for e in hb.rows("nilock.*")] == [1, 2, 4, 5, 7, 9]
    assert [e.seq for e in hb.rows("home.apply", "fetch.ok")] == [6, 8]
    assert list(hb.rows("svmlock.*")) == []
    with pytest.raises(ValueError, match="declared reads"):
        hb.rows("no.such")


def test_hbgraph_keeps_and_answers_only_declared_reads():
    events = [
        ev(1, "fault.fetch", node=0, gid=7, needed=(), clock=(0, 0)),
        ev(2, "fault.read", node=0, gid=7),
        ev(3, "nilock.acquire", node=1, lock=0),
        ev(4, "diff.flush", node=0, gid=7),
    ]
    hb = HBGraph(events, ("fault.fetch", "nilock.*"))
    assert set(hb._rows) == {"fault.fetch", "nilock.acquire"}
    assert [e.seq for e in hb.rows("fault.fetch", "nilock.acquire")] \
        == [1, 3]
    assert list(hb.rows("interval.close")) == []   # the graph's own
    for undeclared in ("fault.read", "fault.*", "diff.flush", "x.*"):
        with pytest.raises(ValueError, match="declared reads"):
            hb.rows(undeclared)
    view = hb.restricted(("nilock.*",))
    assert [e.seq for e in view.rows("nilock.*")] == [3]
    with pytest.raises(ValueError, match="declared reads"):
        view.rows("fault.fetch")


def test_a_check_reading_an_undeclared_category_fails_loudly(monkeypatch):
    from repro.analysis.sanitizer import BarrierEpochCheck
    events = [ev(1, "barrier.enter", rank=0, epoch=0),
              ev(2, "barrier.exit", rank=0, epoch=0)]
    assert findings_of("barrier-epoch", events) == []
    monkeypatch.setattr(BarrierEpochCheck, "reads", ("barrier.enter",))
    with pytest.raises(ValueError, match="'barrier.exit'"):
        findings_of("barrier-epoch", events)
    # another check's declaration does not cover it either
    with pytest.raises(ValueError, match="'barrier.exit'"):
        Sanitizer().run(events)


def test_sanitize_run_records_only_what_its_checks_read(monkeypatch):
    import repro.runtime as runtime
    tracers = []
    real = runtime.run_svm

    def run_svm(*args, tracer=None, **kwargs):
        tracers.append(tracer)
        return real(*args, tracer=tracer, **kwargs)

    monkeypatch.setattr(runtime, "run_svm", run_svm)
    result, findings = sanitize_run(APP_REGISTRY["Barnes-spatial"](),
                                    PROTOCOL_LADDER[0])
    assert findings == []
    counts = tracers[0].counts()
    assert counts["fault.fetch"] > 0 and counts["interval.close"] > 0
    assert not {"fault.read", "fault.done", "diff.flush"} & set(counts)
    reads = Sanitizer().reads
    assert all(c in reads or c.split(".", 1)[0] + ".*" in reads
               for c in counts)


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        Sanitizer(checks=["no-such-check"])


# ------------------------------------------------------------------ HBGraph

def test_hbgraph_happens_before():
    events = [
        ev(1, "interval.close", node=1, index=1, written=(7,),
           clock=(0, 1)),
        ev(2, "clock.advance", node=0, clock=(0, 1), want=(0, 1)),
    ]
    hb = HBGraph(events)
    assert [i.index for i in hb.writes_to(7)] == [1]
    # Before the acquire node 0 has no snapshot; after it, the interval
    # is ordered before node 0's execution.
    assert not hb.happens_before(1, 1, 0, 1)
    assert hb.happens_before(1, 1, 0, 2)
    assert hb.clock_of(0, 2) == (0, 1)
    assert hb.clock_of(0, 1) is None


# ----------------------------------------------------------------- tracer

def test_tracer_seq_monotone_and_in_text():
    tracer = Tracer()
    tracer.record(1.0, "a.b", x=1)
    tracer.record(1.0, "a.c", x=2)
    first, second = tracer.events
    assert (first.seq, second.seq) == (1, 2)
    assert "#000001" in str(first)
    tracer.record(2.0, "a.d")
    assert [e.seq for e in tracer] == [1, 2, 3]


def test_trace_jsonl_is_canonical():
    tracer = Tracer()
    tracer.record(1.0, "a.b", x=1, y=(2, 3))
    line = tracer.to_jsonl()
    assert line == ('{"category":"a.b","fields":{"x":1,"y":[2,3]},'
                    '"seq":1,"t":1.0}')


def test_determinism_byte_identical_traces():
    """Same app, same protocol, same seed => identical event streams."""
    streams = []
    for _ in range(2):
        tracer = Tracer()
        app = APP_REGISTRY["Barnes-spatial"]()
        from repro.runtime import run_svm
        run_svm(app, PROTOCOL_LADDER[-1], tracer=tracer)
        streams.append(tracer.to_jsonl())
    assert streams[0] == streams[1]
    assert streams[0].count("\n") > 100


# ------------------------------------------------------------------- lint

def test_lint_registry_has_rule_classes():
    assert {"wall-clock", "global-random", "unordered-iter",
            "float-time-eq", "mutable-default",
            "global-mutation"} <= set(RULES)


def test_lint_clean_over_package():
    """src/repro is lint-clean modulo inline ``# repro: noqa[...]``
    suppressions (the policy `repro lint` enforces); every suppression
    in the tree must carry a justification after the bracket."""
    from repro.analysis.static.driver import analyze_paths
    report = analyze_paths([default_target()])
    assert report.violations == [], "\n".join(
        str(v) for v in report.violations)
    assert report.syntax_errors == []
    # suppressions are rare and deliberate: wall-clock only, each on a
    # line whose comment explains itself
    for v in report.suppressed:
        assert v.rule == "wall-clock", v


@pytest.mark.parametrize("rule,bad,good", [
    ("wall-clock",
     "import time\nt0 = time.time()\n",
     "t0 = sim.now\n"),
    ("wall-clock",
     "from datetime import datetime\nd = datetime.now()\n",
     "d = compute_stamp(sim.now)\n"),
    ("global-random",
     "import random\nx = random.randint(0, 3)\n",
     "import random\nrng = random.Random(7)\nx = rng.randint(0, 3)\n"),
    ("global-random",
     "from random import shuffle\n",
     "from random import Random\n"),
    ("unordered-iter",
     "for x in {1, 2, 3}:\n    emit(x)\n",
     "for x in sorted({1, 2, 3}):\n    emit(x)\n"),
    ("unordered-iter",
     "out = [f(x) for x in set(items)]\n",
     "out = [f(x) for x in sorted(set(items))]\n"),
    ("float-time-eq",
     "if sim.now == deadline:\n    fire()\n",
     "if sim.now >= deadline:\n    fire()\n"),
    ("mutable-default",
     "def f(acc=[]):\n    return acc\n",
     "def f(acc=None):\n    return acc or []\n"),
    ("global-mutation",
     "TABLE = {}\nTABLE.update({'a': 1})\n",
     "TABLE = {'a': 1}\n"),
    ("global-mutation",
     "TABLE = {}\nTABLE['a'] = 1\n",
     "TABLE = dict(a=1)\n"),
])
def test_lint_rule_catches_and_passes(rule, bad, good):
    hits = lint_source(bad, rules=[rule])
    assert hits and all(v.rule == rule for v in hits), bad
    assert lint_source(good, rules=[rule]) == [], good


def test_lint_function_scope_mutation_allowed():
    src = "def build():\n    t = {}\n    t['a'] = 1\n    return t\n"
    assert lint_source(src, rules=["global-mutation"]) == []


def test_lint_reports_syntax_error():
    hits = lint_source("def broken(:\n")
    assert len(hits) == 1 and hits[0].rule == "syntax"


def test_lint_unknown_rule_rejected():
    with pytest.raises(ValueError):
        lint_source("x = 1\n", rules=["no-such-rule"])


def test_lint_violation_str_has_location():
    hit = lint_source("import time\nt = time.time()\n",
                      path="m.py")[0]
    assert str(hit).startswith("m.py:2:")


# -------------------------------------------------------------- invariants

class _FakeLog:
    def __init__(self, heads):
        self.heads = heads

    def current_index(self, node):
        return self.heads[node]


class _FakeProto:
    def __init__(self, heads, clocks):
        self.invariants = None
        self.tables = []
        self.interval_log = _FakeLog(heads)
        self.node_clock = clocks


def _checker(heads=(1, 0), clocks=None):
    clocks = clocks or [VectorClock(values=[1, 0]),
                        VectorClock(values=[0, 0])]
    return InvariantChecker(_FakeProto(list(heads), clocks))


def test_invariant_rejects_illegal_page_transition():
    with pytest.raises(InvariantViolation, match="illegal page"):
        _checker().on_page_transition(
            0, 7, PageAccess.READ, PageAccess.WRITE, "invalidate")


def test_invariant_accepts_legal_page_transition():
    _checker().on_page_transition(
        0, 7, PageAccess.INVALID, PageAccess.READ, "fault")


def test_invariant_rejects_interval_log_mismatch():
    with pytest.raises(InvariantViolation, match="log head"):
        _checker(heads=(2, 0)).on_interval_close(
            0, Interval(node=0, index=1, pages=(3,)))


def test_invariant_rejects_clock_interval_mismatch():
    ck = _checker(heads=(1, 0),
                  clocks=[VectorClock(values=[5, 0]),
                          VectorClock(values=[0, 0])])
    with pytest.raises(InvariantViolation, match="clock component"):
        ck.on_interval_close(0, Interval(node=0, index=1, pages=(3,)))


def test_invariant_rejects_empty_interval():
    with pytest.raises(InvariantViolation, match="empty interval"):
        _checker().on_interval_close(
            0, Interval(node=0, index=1, pages=()))


def test_invariant_rejects_clock_regression():
    ck = _checker()
    with pytest.raises(InvariantViolation, match="regressed"):
        ck.on_clock_merge(0, (2, 2), VectorClock(values=[1, 2]),
                          VectorClock(values=[0, 0]))


def test_invariant_rejects_nondominating_merge():
    ck = _checker()
    with pytest.raises(InvariantViolation, match="dominate"):
        ck.on_clock_merge(0, (1, 0), VectorClock(values=[1, 0]),
                          VectorClock(values=[0, 2]))


def test_invariant_rejects_barrier_log_disagreement():
    ck = _checker(heads=(1, 0))
    with pytest.raises(InvariantViolation, match="disagrees"):
        ck.on_barrier_epoch(0, VectorClock(values=[2, 0]))


def test_invariant_rejects_barrier_clock_regression():
    ck = _checker(heads=(1, 0))
    ck.on_barrier_epoch(0, VectorClock(values=[1, 0]))
    ck.protocol.interval_log.heads = [0, 0]
    with pytest.raises(InvariantViolation, match="regressed"):
        ck.on_barrier_epoch(1, VectorClock(values=[0, 0]))


def test_invariant_nonstrict_accumulates():
    ck = InvariantChecker(_FakeProto([1, 0],
                                     [VectorClock(values=[1, 0]),
                                      VectorClock(values=[0, 0])]),
                          strict=False)
    ck.on_page_transition(0, 7, PageAccess.READ, PageAccess.WRITE,
                          "invalidate")
    ck.on_clock_merge(0, (2, 2), VectorClock(values=[1, 2]),
                      VectorClock(values=[0, 0]))
    assert len(ck.violations) == 2


def test_invariant_install_uninstall():
    from repro.hw import MachineConfig
    from repro.runtime import SVMBackend
    from repro.svm import GENIMA
    backend = SVMBackend(MachineConfig(), GENIMA, check=True)
    assert backend.protocol.invariants is backend.invariants
    assert all(t.on_transition is not None
               for t in backend.protocol.tables)
    backend.invariants.uninstall()
    assert backend.protocol.invariants is None
    assert all(t.on_transition is None for t in backend.protocol.tables)


# -------------------------------------------------------------------- CLI

def test_cli_lint_clean(capsys):
    assert cli_main(["lint"]) == 0
    assert "lint clean" in capsys.readouterr().out


def test_cli_lint_flags_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    assert cli_main(["lint", str(bad)]) == 1
    assert "wall-clock" in capsys.readouterr().out


def test_cli_lint_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    assert "unordered-iter" in capsys.readouterr().out


def test_cli_check_single_cell(capsys):
    rc = cli_main(["check", "--app", "Barnes-spatial",
                   "--protocol", "Base"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
