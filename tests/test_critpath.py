"""Critical-path extraction: exactness, sanitizer pass and CLI."""

import json

import pytest

from repro import PROTOCOL_LADDER, run_svm
from repro.analysis import (PathStep, Sanitizer, bucket_shares,
                            extract_critical_path, render_ladder_diff,
                            render_path)
from repro.apps import BarnesSpatial
from repro.cli import main
from repro.experiments import collect_critpath
from repro.sim import TIME_TOLERANCE_US, Tracer
from repro.svm import GENIMA

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture(scope="module")
def ladder_runs():
    """One spanned Barnes-spatial run per ladder variant (shared)."""
    return [collect_critpath(BarnesSpatial(), feats)
            for feats in PROTOCOL_LADDER]


def test_path_reconciles_with_wall_on_every_variant(ladder_runs):
    for run in ladder_runs:
        path = run.path
        assert path.complete, run.variant
        assert path.ok(), (run.variant, path.residual_us)
        assert path.wall_us == pytest.approx(run.result.time_us)


def test_path_structure(ladder_runs):
    path = ladder_runs[-1].path  # GeNIMA
    assert path.steps, "empty critical path"
    # steps are contiguous in time, start-to-end
    for a, b in zip(path.steps, path.steps[1:]):
        assert a.t1 == pytest.approx(b.t0)
        assert a.dur_us >= 0.0
    # the walk starts at some rank's run begin and ends on a rank track
    assert path.terminal_track.startswith("r")
    assert path.steps[-1].track.startswith("r")
    # every bucket total is non-negative and they sum to the total
    assert all(us >= 0.0 for us in path.buckets.values())
    assert sum(path.buckets.values()) == pytest.approx(path.total_us)
    shares = bucket_shares(path)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_sanitizer_critical_path_check(ladder_runs):
    traced = collect_critpath(BarnesSpatial(), PROTOCOL_LADDER[0],
                              tracer=Tracer())
    assert traced.path.to_dict() == ladder_runs[0].path.to_dict()
    findings = Sanitizer(checks=["critical-path"]).run(
        traced.tracer.events)
    assert findings == []


def test_sanitizer_skips_unspanned_traces():
    tracer = Tracer()
    run_svm(BarnesSpatial(), GENIMA, tracer=tracer)  # spans off
    assert Sanitizer(checks=["critical-path"]).run(tracer.events) == []


def test_extract_requires_spans():
    tracer = Tracer()
    run_svm(BarnesSpatial(), GENIMA, tracer=tracer)  # spans off
    with pytest.raises(ValueError, match="spans=True"):
        extract_critical_path(tracer.events)


def test_renderers(ladder_runs):
    text = render_path(ladder_runs[0].path, name="Barnes/Base",
                       max_steps=5)
    assert "critical path [Barnes/Base]" in text
    assert "path total" in text and "wall" in text
    diff = render_ladder_diff({r.variant: r.path for r in ladder_runs})
    assert "Base" in diff and "GeNIMA" in diff and "vs Base" in diff


def test_collect_critpath_single():
    run = collect_critpath(BarnesSpatial(), GENIMA)
    assert run.variant == "GeNIMA"
    assert run.path.ok()
    # a caller's tracer keeps the span stream for Perfetto export
    traced = collect_critpath(BarnesSpatial(), GENIMA,
                              tracer=Tracer())
    assert len(traced.tracer.filter("span")) > 0


def test_cli_critpath(tmp_path, capsys):
    out = tmp_path / "cp.json"
    trace = tmp_path / "trace.json"
    assert main(["critpath", "--app", "barnes-spatial",
                 "--variant", "base", "--variant", "genima",
                 "--out", str(out), "--perfetto", str(trace)]) == 0
    stdout = capsys.readouterr().out
    assert "critical-path ladder" in stdout
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert set(payload["paths"]) == {"Base", "GeNIMA"}
    for p in payload["paths"].values():
        assert abs(p["residual_us"]) <= TIME_TOLERANCE_US
    # per-variant suffix when several variants share one base name
    for slug in ("Base", "GeNIMA"):
        f = tmp_path / f"trace-{slug}.json"
        assert f.exists()
        events = json.loads(f.read_text())
        assert any(e["ph"] == "B" for e in events)
        assert any(e["ph"] == "s" for e in events)


# -- the streaming extractor against the sort-based reference -------------

#: cells whose paths the span-only, one-sweep extractor must reproduce.
REFERENCE_CELLS = [("FFT", "Base"), ("FFT", "GeNIMA"),
                   ("Barnes-spatial", "GeNIMA"), ("Water-spatial", "Base"),
                   ("LU-contiguous", "DW+RF"), ("Radix-local", "DW")]


@pytest.mark.parametrize("app,rung", REFERENCE_CELLS,
                         ids=[f"{a}/{r}" for a, r in REFERENCE_CELLS])
def test_span_only_path_matches_reference_on_full_trace(app, rung):
    from repro.apps import APP_REGISTRY
    from tests.critpath_reference import reference_critical_path

    feats = {f.name: f for f in PROTOCOL_LADDER}[rung]
    run = collect_critpath(APP_REGISTRY[app](), feats)
    full = Tracer()
    run_svm(APP_REGISTRY[app](), feats, tracer=full, spans=True)
    assert len(full.filter("span")) < sum(full.counts().values())
    reference = reference_critical_path(full.events)
    assert run.path.to_dict() == reference.to_dict()
    assert run.path.ok()


#: cells whose online fold must match extraction from a full trace:
#: (app, rung, nodes, packet loss).
FOLD_CELLS = [("FFT", "Base", 4, None),
              ("Barnes-spatial", "GeNIMA", 4, None),
              ("Barnes-spatial", "DW+RF+DD", 4, None),
              ("KVStore", "GeNIMA", 8, 0.02)]


@pytest.mark.parametrize("app,rung,nodes,loss", FOLD_CELLS,
                         ids=[f"{a}/{r}/{n}/{loss or 'off'}"
                              for a, r, n, loss in FOLD_CELLS])
def test_online_fold_matches_extraction_from_a_full_trace(app, rung,
                                                          nodes, loss):
    from repro.apps import APP_REGISTRY
    from repro.hw import FaultConfig, MachineConfig

    feats = {f.name: f for f in PROTOCOL_LADDER}[rung]

    def config():
        faults = None if loss is None else FaultConfig(loss=loss, seed=3)
        return MachineConfig(nodes=nodes, faults=faults)

    online = collect_critpath(APP_REGISTRY[app](), feats, config=config(),
                              check=True)
    assert online.tracer is None
    full = Tracer()
    run_svm(APP_REGISTRY[app](), feats, config=config(), tracer=full,
            spans=True)
    if loss is not None:
        assert full.count("fault.drop") > 0
    offline = extract_critical_path(iter(full))
    assert online.path.to_dict() == offline.to_dict()
    assert online.path.ok()


def _rows(*records):
    """TraceEvent rows from ``(t, category, fields)``, seq from 1."""
    from repro.sim import TraceEvent
    return [TraceEvent(t, c, f, seq)
            for seq, (t, c, f) in enumerate(records, 1)]


#: r0 sends a page request at 10; on h0 the linked handler ``A`` opens
#: at 12, ``B`` at 14, A closes under B (non-LIFO), ``C`` opens at 17
#: and B closes under C (non-LIFO again); h0 replies at 19 and r0 is
#: woken at 22.
NON_LIFO = _rows(
    (0.0, "span.begin", {"sid": 1, "track": "r0", "name": "run",
                         "bucket": "compute"}),
    (10.0, "span.flow", {"fid": 1, "track": "r0", "kind": "page_req",
                         "bucket": "data"}),
    (12.0, "span.begin", {"sid": 2, "track": "h0", "name": "A",
                          "bucket": "data", "link": 1}),
    (13.0, "fetch.ok", {"gid": 4}),
    (14.0, "span.begin", {"sid": 3, "track": "h0", "name": "B",
                          "bucket": "lock"}),
    (16.0, "span.end", {"sid": 2}),
    (17.0, "span.begin", {"sid": 4, "track": "h0", "name": "C",
                          "bucket": "barrier"}),
    (18.0, "span.end", {"sid": 3}),
    (19.0, "span.flow", {"fid": 2, "track": "h0", "kind": "page_reply",
                         "bucket": "data"}),
    (20.0, "span.end", {"sid": 4}),
    (22.0, "span.wake", {"fid": 2, "track": "r0"}),
    (30.0, "span.end", {"sid": 1}),
)


def test_non_lifo_closes_on_a_handler_track():
    from tests.critpath_reference import reference_critical_path

    path = extract_critical_path(NON_LIFO)
    assert path.to_dict() == reference_critical_path(NON_LIFO).to_dict()
    assert path.ok() and path.total_us == 30.0
    h0 = [s for s in path.steps if s.kind == "seg" and s.track == "h0"]
    # [12, 19) on h0: A to 14, B to 17 (A closed under it), C after;
    # the label names the longest piece (A's, B's is split at 16).
    assert h0 == [PathStep("seg", "h0", 12.0, 19.0,
                           {"data": 2.0, "lock": 3.0, "barrier": 2.0},
                           "A")]


def test_fold_fed_row_by_row_matches_extraction():
    from repro.analysis.critpath import CriticalPathFold

    forward = Tracer()
    fold = CriticalPathFold(forward)
    for t, category, fields, _ in NON_LIFO:
        fold.record(t, category, **fields)
    assert fold.path().to_dict() == \
        extract_critical_path(NON_LIFO).to_dict()
    # every row, of any family, reaches the forwarding target
    assert forward.events == list(NON_LIFO)


def test_fold_rejects_time_running_backwards():
    from repro.analysis.critpath import CriticalPathFold

    fold = CriticalPathFold()
    fold.append(5.0, "span.begin", {"sid": 0, "track": "r0",
                                    "name": "run"})
    fold.append(1.0, "fetch.ok", {})          # not folded: no check
    with pytest.raises(ValueError, match="trace order"):
        fold.append(4.0, "span.end", {"sid": 0})


def test_extractor_reads_a_one_shot_iterator():
    want = extract_critical_path(NON_LIFO).to_dict()
    assert extract_critical_path(iter(NON_LIFO)).to_dict() == want
    assert extract_critical_path(r for r in NON_LIFO).to_dict() == want
    tracer = Tracer()
    for t, category, fields, _ in NON_LIFO:
        tracer.append(t, category, fields)
    assert extract_critical_path(iter(tracer)).to_dict() == want
    assert extract_critical_path(tracer).to_dict() == want


def test_extractor_rejects_span_rows_out_of_order():
    rows = list(NON_LIFO)
    rows[5], rows[6] = rows[6], rows[5]
    with pytest.raises(ValueError, match="out of"):
        extract_critical_path(rows)


def test_collect_critpath_stores_no_rows(ladder_runs):
    # the fold indexes span rows as they are recorded: no tracer
    assert all(run.tracer is None for run in ladder_runs)
    # a caller's own tracer records every family
    full = collect_critpath(BarnesSpatial(), GENIMA,
                            tracer=Tracer())
    assert len(full.tracer.filter("fetch")) > 0
    assert full.path.to_dict() == ladder_runs[-1].path.to_dict()


def test_cli_critpath_check_sanitizes_every_family(monkeypatch, capsys):
    seen = []
    real = Sanitizer.run

    def run(self, events):
        events = list(events)
        seen.append({e.category.split(".", 1)[0] for e in events})
        return real(self, events)

    monkeypatch.setattr(Sanitizer, "run", run)
    assert main(["critpath", "--app", "fft", "--variant", "base",
                 "--nodes", "2", "--check"]) == 0
    capsys.readouterr()
    assert len(seen) == 1
    assert {"span", "fault", "fetch"} <= seen[0]
