"""Tests for the experiment drivers (on reduced app subsets for speed)."""

import pytest

from repro.experiments import (ExperimentCache, compute_figure1,
                               compute_figure2, compute_figure3,
                               compute_figure4, compute_scale,
                               compute_table1, compute_table2,
                               compute_table34, compute_table5,
                               format_table, measure_comm_layer,
                               render_figure1, render_figure2,
                               render_scale, render_table1,
                               render_table2, render_table34,
                               scale_params, scaling_study)
from repro.experiments import cache as cache_module
from repro.runtime import parallel, runner
from repro.runtime.parallel import CellSpec, ResultStore
from repro.svm import BASE, GENIMA

FAST_APPS = ["Water-spatial", "Ocean-rowwise"]


@pytest.fixture(scope="module")
def cache():
    return ExperimentCache()


# ------------------------------------------------------------------- cache

def test_cache_reuses_results(cache):
    first = cache.cell(cache.spec_svm("Water-spatial", GENIMA))
    second = cache.cell(cache.spec_svm("Water-spatial", GENIMA))
    assert first is second


def test_cache_distinguishes_protocols(cache):
    runs = cache.run({name: cache.spec_svm("Water-spatial", feats)
                      for name, feats in (("base", BASE),
                                          ("genima", GENIMA))})
    assert runs["base"] is not runs["genima"]
    assert runs["base"].system == "Base"
    assert runs["genima"].system == "GeNIMA"


def test_cache_distinguishes_node_counts(cache):
    runs = cache.run({nodes: cache.spec_svm("Water-spatial", GENIMA,
                                            nodes=nodes)
                      for nodes in (4, 8)})
    assert runs[4].nprocs == 16
    assert runs[8].nprocs == 32


def test_run_keeps_positional_duplicates(cache):
    spec = cache.spec_svm("Water-spatial", GENIMA)
    runs = cache.run(dict(enumerate([spec, spec])))
    assert list(runs) == [0, 1]
    assert runs[0] is runs[1]


def _no_evaluation(monkeypatch):
    """Fail on any cell evaluated, and on any run simulated outside one."""
    def boom(*args, **kwargs):
        raise AssertionError("a run was simulated")
    monkeypatch.setattr(parallel, "evaluate_cell", boom)
    monkeypatch.setattr(runner, "run_on_backend", boom)


PAPER_DRIVERS = [compute_figure1, compute_figure2, compute_figure3,
                 compute_figure4, compute_table1, compute_table2,
                 compute_table34, compute_table5]


@pytest.mark.parametrize("driver", PAPER_DRIVERS,
                         ids=lambda fn: fn.__name__)
def test_empty_app_list_is_an_error(driver, monkeypatch):
    # Empty is an error, not the full ten-app grid (a ~45 s cold run).
    _no_evaluation(monkeypatch)
    with pytest.raises(ValueError, match="apps"):
        driver(ExperimentCache(), apps=[])


def test_warm_figure_digests_each_cell_once(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    compute_figure2(ExperimentCache(store=store), apps=FAST_APPS)
    calls = []
    digest = CellSpec.digest

    def counting_digest(self, fingerprint=None):
        calls.append(self)
        return digest(self, fingerprint)
    monkeypatch.setattr(CellSpec, "digest", counting_digest)
    _no_evaluation(monkeypatch)
    compute_figure2(ExperimentCache(store=store), apps=FAST_APPS)
    assert len(calls) == len(FAST_APPS) * 6  # seq + five ladder rungs


def test_study_reuses_figure_cells(monkeypatch):
    monkeypatch.setattr(cache_module, "CACHE", ExperimentCache())
    compute_figure2(apps=["Water-spatial"])
    _no_evaluation(monkeypatch)
    rows = scaling_study("Water-spatial", node_counts=(4,))
    assert [row["procs"] for row in rows] == [16]


# -------------------------------------------------------------------- scale

def test_scale_params_hold_total_work_fixed():
    one = scale_params("KVStore", 1)
    many = scale_params("KVStore", 64)
    assert one["requests_per_rank"] == 64 * many["requests_per_rank"]
    ps1 = scale_params("ParamServer", 1)
    ps64 = scale_params("ParamServer", 64)
    assert ps1["compute_us"] == pytest.approx(64 * ps64["compute_us"])
    with pytest.raises(ValueError):
        scale_params("FFT", 4)


def test_compute_scale_covers_the_grid(cache):
    rows = compute_scale(app_name="OpenLoop", node_counts=(2, 4),
                         topologies=("crossbar", "fat-tree"),
                         feature_sets=(BASE, GENIMA), cache=cache)
    assert len(rows) == 2 * 2 * 2
    for row in rows:
        assert row["speedup"] > 0
        assert row["procs"] == row["nodes"]  # 1 proc/node at scale
    text = render_scale(rows, "OpenLoop")
    assert "crossbar" in text and "fat-tree" in text
    assert "Base" in text and "GeNIMA" in text


# ------------------------------------------------------------------ figures

def test_figure1_subset(cache):
    data = compute_figure1(cache, apps=FAST_APPS)
    assert set(data) == set(FAST_APPS)
    for vals in data.values():
        assert vals["Origin"] > vals["Base"] > 0
    text = render_figure1(data)
    assert "Origin" in text and "Water-spatial" in text


def test_figure2_subset_has_full_ladder(cache):
    data = compute_figure2(cache, apps=["Water-spatial"])
    ladder = data["Water-spatial"]
    assert list(ladder) == ["Base", "DW", "DW+RF", "DW+RF+DD", "GeNIMA"]
    assert all(v > 0 for v in ladder.values())
    assert "GeNIMA" in render_figure2(data)


def test_figure4_subset(cache):
    data = compute_figure4(cache, apps=FAST_APPS)
    for vals in data.values():
        assert {"Origin", "Base", "GeNIMA"} <= set(vals)


# ------------------------------------------------------------------- tables

def test_table1_subset(cache):
    data = compute_table1(cache, apps=FAST_APPS)
    for app, v in data.items():
        assert v["uniproc_s"] > 0
        assert isinstance(v["overall_pct"], float)
    assert "Uniproc" in render_table1(data)


def test_table2_subset(cache):
    data = compute_table2(cache, apps=FAST_APPS)
    for v in data.values():
        assert 0 <= v["BT"] <= 100
        assert 0 <= v["BPT"] <= 100
        assert 0 <= v["MT"] <= 100
    assert "BPT" in render_table2(data)


def test_table34_subset(cache):
    data = compute_table34(cache, apps=["Water-spatial"])
    entry = data["Water-spatial"]
    for size in ("small", "large"):
        for system in ("Base", "GeNIMA"):
            assert set(entry[size][system]) == {"source", "lanai",
                                                "net", "dest"}
    assert "Base/GeNIMA" in render_table34(data, "small")
    with pytest.raises(ValueError):
        render_table34(data, "medium")


# --------------------------------------------------------------- reporting

def test_format_table_alignment():
    text = format_table(["a", "bb"], [("x", 1.5), ("long", 22.25)],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.50" in text and "22.25" in text
    # all rows share the same width
    assert len({len(line) for line in lines[1:]}) <= 2


def test_calibration_keys():
    comm = measure_comm_layer()
    assert set(comm) == {"post_overhead_us", "one_word_latency_us",
                         "bandwidth_mbps"}


def test_traffic_profile_shows_protocol_transformation():
    from repro.experiments import render_traffic, traffic_profile
    base = traffic_profile("Water-spatial", BASE)
    genima = traffic_profile("Water-spatial", GENIMA)
    # Base uses the interrupt path: page requests/replies, lock
    # requests/grants, packed diffs.
    assert base["page_req"]["packets"] > 0
    assert base["lock_req"]["packets"] > 0
    assert base["diff"]["packets"] > 0
    assert base.get("fetch_req", {"packets": 0})["packets"] == 0
    # GeNIMA replaces every one of those with an NI mechanism.
    assert genima.get("page_req", {"packets": 0})["packets"] == 0
    assert genima["fetch_req"]["packets"] > 0
    assert genima["lock_op"]["packets"] > 0
    assert genima["diff_run"]["packets"] > 0
    assert genima["wn"]["packets"] > 0
    text = render_traffic({"Base": base, "GeNIMA": genima},
                          "Water-spatial")
    assert "fetch_req" in text


def test_cli_traffic_command(capsys):
    from repro.cli import main
    assert main(["traffic", "--app", "Water-spatial"]) == 0
    out = capsys.readouterr().out
    assert "Traffic profile" in out
