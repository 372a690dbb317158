"""Critical-path extraction: exactness, sanitizer pass and CLI."""

import json

import pytest

from repro import PROTOCOL_LADDER, run_svm
from repro.analysis import (Sanitizer, bucket_shares,
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
    findings = Sanitizer(checks=["critical-path"]).run(
        ladder_runs[0].tracer.events)
    assert findings == []


def test_sanitizer_skips_unspanned_traces():
    tracer = Tracer(capacity=None)
    run_svm(BarnesSpatial(), GENIMA, tracer=tracer)  # spans off
    assert Sanitizer(checks=["critical-path"]).run(tracer.events) == []


def test_extract_requires_spans():
    tracer = Tracer(capacity=None)
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
    # the tracer keeps the span stream for Perfetto export
    assert run.tracer.count_prefix("span") > 0


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
