"""CLI tests (in-process via repro.cli.main)."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "FFT" in out and "GeNIMA" in out and "Barnes-spatial" in out


def test_run_command(capsys):
    assert main(["run", "--app", "Water-spatial",
                 "--protocol", "GeNIMA"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "interrupts      : 0" in out


def test_run_origin(capsys):
    assert main(["run", "--app", "Water-spatial",
                 "--protocol", "Origin"]) == 0
    out = capsys.readouterr().out
    assert "Origin" in out


def test_run_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["run", "--app", "NotAnApp"])


def test_scale_command_writes_curves(capsys, tmp_path):
    import json
    out = tmp_path / "scale.json"
    assert main(["scale", "--app", "OpenLoop", "--nodes", "2",
                 "--nodes", "4", "--topology", "crossbar",
                 "--topology", "fat-tree", "--no-cache",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "crossbar" in text and "fat-tree" in text
    data = json.loads(out.read_text())
    assert data["app"] == "OpenLoop"
    # 2 topologies x 2 default rungs x 2 node counts.
    assert len(data["rows"]) == 8
    for row in data["rows"]:
        assert row["speedup"] > 0


def test_scale_rejects_non_datacenter_app():
    with pytest.raises(SystemExit):
        main(["scale", "--app", "FFT"])


def test_metrics_command_openmetrics(capsys):
    assert main(["metrics", "--app", "Water-spatial",
                 "--cadence-us", "500", "--openmetrics"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_ts_ni_queue_depth histogram" in out
    assert out.endswith("# EOF\n")


def test_metrics_command_json(capsys, tmp_path):
    import json
    path = tmp_path / "metrics.json"
    assert main(["metrics", "--app", "Water-spatial",
                 "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["telemetry"]["samples"] > 0
    assert "svm.page_fetches" in data["snapshot"]


def test_dash_command(capsys, tmp_path):
    import json
    html = tmp_path / "dash.html"
    trace = tmp_path / "dash_trace.json"
    assert main(["dash", "--app", "KVStore", "--scale", "--nodes", "4",
                 "--cadence-us", "500", "--html", str(html),
                 "--perfetto", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "hot nodes" in out and "phase" in out
    assert html.read_text().startswith("<!doctype html>")
    events = json.loads(trace.read_text())
    assert any(e.get("ph") == "C" for e in events)


def test_dash_samples_on_one_slice_hook(monkeypatch, capsys):
    from repro.sim import Simulator
    widths = []
    add = Simulator.add_slice_hook

    def counting_add(self, width, fn):
        widths.append(width)
        return add(self, width, fn)

    monkeypatch.setattr(Simulator, "add_slice_hook", counting_add)
    assert main(["dash", "--app", "KVStore", "--scale", "--nodes", "4",
                 "--cadence-us", "500"]) == 0
    assert "phase" in capsys.readouterr().out
    assert widths == [500.0]


def test_dash_rejects_negative_top_k():
    with pytest.raises(SystemExit, match="top_k"):
        main(["dash", "--app", "KVStore", "--scale", "--nodes", "4",
              "--top-k", "-1"])


def test_dash_scale_rejects_paper_app():
    with pytest.raises(SystemExit):
        main(["dash", "--app", "FFT", "--scale"])


def test_ladder_command(capsys):
    assert main(["ladder", "--app", "Water-spatial"]) == 0
    out = capsys.readouterr().out
    for name in ("Base", "DW", "DW+RF", "DW+RF+DD", "GeNIMA"):
        assert name in out


def test_ladder_warm_cache_is_byte_identical(capsys, tmp_path):
    cache_dir = str(tmp_path / "explicit")
    assert main(["ladder", "--app", "Water-spatial",
                 "--cache-dir", cache_dir]) == 0
    cold = capsys.readouterr().out
    assert main(["ladder", "--app", "Water-spatial",
                 "--cache-dir", cache_dir]) == 0
    assert capsys.readouterr().out == cold
    assert main(["cache", "--cache-dir", cache_dir]) == 0
    assert "entries    : 6" in capsys.readouterr().out


def test_no_cache_writes_nothing(capsys, tmp_path):
    cache_dir = str(tmp_path / "untouched")
    assert main(["ladder", "--app", "Water-spatial",
                 "--cache-dir", cache_dir, "--no-cache"]) == 0
    capsys.readouterr()
    assert main(["cache", "--cache-dir", cache_dir]) == 0
    assert "entries    : 0" in capsys.readouterr().out


def test_cache_wipe(capsys, tmp_path):
    cache_dir = str(tmp_path / "wiped")
    assert main(["faultsweep", "--app", "Water-spatial", "--loss", "0",
                 "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "--cache-dir", cache_dir, "--wipe"]) == 0
    assert "wiped 1 entry" in capsys.readouterr().out
    assert main(["cache", "--cache-dir", cache_dir]) == 0
    assert "entries    : 0" in capsys.readouterr().out


def test_calibrate_command(capsys):
    assert main(["calibrate"]) == 0
    out = capsys.readouterr().out
    assert "one-way 1-word latency" in out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_nodes_option_changes_processor_count(capsys):
    assert main(["run", "--app", "Water-spatial", "--protocol", "GeNIMA",
                 "--nodes", "8"]) == 0
    out = capsys.readouterr().out
    assert "32 processors" in out


BAD_FLAGS = [
    (["run", "--app", "FFT", "--nodes", "0"], "--nodes"),
    (["profile", "--app", "FFT", "--nodes", "0"], "--nodes"),
    (["critpath", "--app", "FFT", "--nodes", "0"], "--nodes"),
    (["scale", "--nodes", "0"], "--nodes"),
    (["scale", "--procs-per-node", "0"], "--procs-per-node"),
    (["metrics", "--app", "FFT", "--nodes", "0"], "--nodes"),
    (["dash", "--app", "FFT", "--nodes", "0"], "--nodes"),
    (["metrics", "--app", "FFT", "--procs-per-node", "0"],
     "--procs-per-node"),
    (["dash", "--app", "FFT", "--procs-per-node", "0"], "--procs-per-node"),
    (["dash", "--app", "FFT", "--width", "0"], "--width"),
    (["dash", "--app", "FFT", "--cadence-us", "inf"], "--cadence-us"),
    (["profile", "--app", "FFT", "--slice-us", "0"], "--slice-us"),
    (["run", "--app", "FFT", "--protocol", "Origin", "--check"], "--check"),
    (["run", "--app", "FFT", "--protocol", "Origin",
      "--faults", "loss=0.5"], "--faults"),
]


@pytest.mark.parametrize("argv, flag", BAD_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag in BAD_FLAGS])
def test_bad_flag_is_a_usage_error_naming_it(argv, flag, capsys):
    """Rejected while parsing (exit 2), not mid-run or silently."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
