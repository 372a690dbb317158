"""Tests for the tracing facility and its protocol integration."""

from repro.hw import Machine, MachineConfig
from repro.sim import SpanTracer, Simulator, TraceEvent, Tracer
from repro.svm import BASE, GENIMA, HLRCProtocol
from tests.tuple_tracer import TupleTracer

#: the columnar tracer and its one-row-per-record oracle.
SINKS = {"columnar": Tracer, "tuples": TupleTracer}


# ----------------------------------------------------------------- Tracer

def test_record_and_query():
    tr = Tracer()
    tr.record(1.0, "fetch", gid=7)
    tr.record(2.0, "fetch.retry", gid=7)
    tr.record(3.0, "lock.acquire", rank=0)
    assert tr.count("fetch") == 1
    assert tr.count("fetch.retry") == 1
    assert len(tr.filter("fetch")) == 2
    assert len(tr.filter("lock")) == 1
    assert tr.counts() == {"fetch": 1, "fetch.retry": 1,
                           "lock.acquire": 1}


def test_count_prefix():
    tr = Tracer()
    tr.record(1.0, "fetch", gid=7)
    tr.record(2.0, "fetch.retry", gid=7)
    tr.record(3.0, "lock.acquire", rank=0)
    # count() is exact-match; filter() takes whole families.
    assert tr.count("fetch") == 1
    assert len(tr.filter("fetch")) == 2
    assert len(tr.filter("lock")) == 1
    assert len(tr.filter("barrier")) == 0


def test_category_filter_by_prefix():
    tr = Tracer(categories={"lock"})
    tr.record(1.0, "lock.acquire")
    tr.record(2.0, "fetch.retry")
    assert tr.count("lock.acquire") == 1
    assert tr.count("fetch.retry") == 0
    assert len(tr.events) == 1


def test_category_filter_admits_exact_names_and_families():
    exact = Tracer(categories={"fault.fetch"})
    family = Tracer(categories={"fault"})
    for tr in (exact, family):
        tr.record(1.0, "fault.fetch", gid=1)
        tr.record(2.0, "fault.read", gid=1)
        tr.record(3.0, "fetch.ok", gid=1)
    assert exact.counts() == {"fault.fetch": 1}
    assert family.counts() == {"fault.fetch": 1, "fault.read": 1}
    assert exact.wants("fault.fetch") and not exact.wants("fault.read")
    assert not exact.wants("fault")


def test_record_fast_path_rejects_without_side_effects():
    tr = Tracer(categories=())
    for i in range(100):
        tr.record(float(i), "fetch.ok", gid=i)
    assert tr.events == []
    assert tr.counts() == {}
    # rejected events never touch the columns or the category table
    assert not (tr._ts or tr._cids or tr._fds or tr._cats)


def test_admission_memo_stays_correct():
    tr = Tracer(categories={"lock"})
    tr.record(1.0, "lock.acquire")
    tr.record(2.0, "fetch.retry")
    assert tr._admit == {"lock.acquire": True, "fetch.retry": False}
    tr.record(3.0, "lock.acquire")
    assert tr.count("lock.acquire") == 2
    assert tr.wants("lock.acquire") and not tr.wants("fetch.retry")


def test_to_text_keeps_the_last_rows():
    tr = Tracer()
    for i in range(5):
        tr.record(float(i * 10), "tick", n=i)
    text = tr.to_text(limit=2)
    assert "n=4" in text and "n=0" not in text
    assert tr.to_text().count("\n") == 4


def test_event_str():
    e = TraceEvent(t=12.5, category="lock.acquire",
                   fields={"rank": 3})
    assert "lock.acquire" in str(e) and "rank=3" in str(e)


def test_trace_event_row_contract():
    import pytest
    e = TraceEvent(t=12.5, category="lock.acquire")
    assert e.fields == {} and e.seq == 0
    assert TraceEvent(1.0, "x").fields is not TraceEvent(1.0, "x").fields
    e = TraceEvent(t=12.5, category="lock.acquire", fields={"rank": 3},
                   seq=7)
    assert (e.t, e.category, e.fields, e.seq) == \
        (12.5, "lock.acquire", {"rank": 3}, 7)
    t, category, fields, seq = e           # a row unpacks in field order
    assert (t, category, fields, seq) == tuple(e)
    with pytest.raises(AttributeError):
        e.t = 1.0
    with pytest.raises(AttributeError):
        e.extra = 1
    assert e == TraceEvent(12.5, "lock.acquire", {"rank": 3}, 7)
    assert e != TraceEvent(12.5, "lock.acquire", {"rank": 4}, 7)
    assert str(e) == "[       12.50 #000007] lock.acquire         rank=3"
    assert repr(e) == ("TraceEvent(t=12.5, category='lock.acquire', "
                       "fields={'rank': 3}, seq=7)")
    assert e.to_json() == ('{"category":"lock.acquire","fields":'
                           '{"rank":3},"seq":7,"t":12.5}')


def test_categories_must_not_be_a_bare_string():
    import pytest
    for sink in SINKS.values():
        # set("fetch") is {'f', 'e', 't', 'c', 'h'}: it recorded nothing.
        with pytest.raises(ValueError, match="categories"):
            sink(categories="fetch")
        for categories in ((), {"fetch"}, ["fetch"], None):
            tr = sink(categories=categories)
            tr.record(1.0, "fetch.ok", gid=1)
            assert tr.count("fetch.ok") == (0 if categories == () else 1)


def test_append_keeps_the_callers_dict():
    for sink in SINKS.values():
        tr = sink()
        fields = {"gid": 7}
        tr.append(1.0, "fetch.ok", fields)
        tr.record(2.0, "fetch.ok", gid=8)
        rows = tr.events
        assert rows[0].fields is fields
        assert rows == [TraceEvent(1.0, "fetch.ok", {"gid": 7}, 1),
                        TraceEvent(2.0, "fetch.ok", {"gid": 8}, 2)]
        sink(categories=()).append(1.0, "x", {})


# ------------------------------------------------------------ span tracing

def test_span_tracer_records_parent_and_link():
    tr = Tracer()
    sim = Simulator()
    sp = SpanTracer(tr, sim)
    outer = sp.begin("run", "r0", bucket="compute", rank=0)
    fid = sp.flow("r0", "page_req", "data", gid=9)
    inner = sp.begin("ni.fw", "ni1", bucket="data", link=fid)
    sp.wake(fid, "r0")
    sp.end(inner)
    sp.end(outer)
    cats = [e.category for e in tr.events]
    assert cats == ["span.begin", "span.flow", "span.begin",
                    "span.wake", "span.end", "span.end"]
    begin_outer, flow, begin_inner, wake = tr.events[:4]
    assert "parent" not in begin_outer.fields  # top-level span
    assert flow.fields["src"] == begin_outer.fields["sid"]
    assert begin_inner.fields["link"] == fid
    assert wake.fields == {"fid": fid, "track": "r0"}


def test_span_tracer_rejects_a_sid_it_never_began():
    import pytest
    tr = Tracer()
    sp = SpanTracer(tr, Simulator())
    sid = sp.begin("run", "r0")
    other = SpanTracer(Tracer(), Simulator()).begin("run", "r0")
    # Before, these wrote rows with track=None that the critical-path
    # extractor skipped without a word.
    with pytest.raises(ValueError, match="never begun"):
        sp.end(sid + 1)
    with pytest.raises(ValueError, match="never begun"):
        sp.flow_from(sid + 1, "page_req")
    assert len(tr.events) == 1
    sp.end(None)                           # still a no-op
    sp.flow_from(sid, "page_req")
    sp.end(sid)
    assert other == sid and len(tr.events) == 3


def test_span_tracer_forgets_ended_spans():
    import pytest
    tr = Tracer()
    sp = SpanTracer(tr, Simulator())
    run = sp.begin("run", "r0")
    sid = sp.begin("page.fault", "r0")
    sp.end(sid)
    assert list(sp._span_track) == [run]
    # A second end used to append a second span.end row for the sid.
    with pytest.raises(ValueError, match=f"span {sid} is not open"):
        sp.end(sid)
    with pytest.raises(ValueError, match="already ended"):
        sp.flow_from(sid, "page_req")
    assert [e.category for e in tr.events] == ["span.begin",
                                               "span.begin", "span.end"]


def test_span_tracer_nested_parent_on_same_track():
    tr = Tracer()
    sp = SpanTracer(tr, Simulator())
    a = sp.begin("run", "r0")
    b = sp.begin("page.fault", "r0", bucket="data")
    assert tr.events[-1].fields["parent"] == a
    sp.end(b)
    sp.end(a)
    assert sp.current("r0") is None


def test_chrome_trace_converts_spans():
    tr = Tracer()
    sp = SpanTracer(tr, Simulator())
    sid = sp.begin("run", "r0", bucket="compute")
    fid = sp.flow("r0", "page_req", "data")
    hid = sp.begin("host.handler", "h1", bucket="data", link=fid)
    sp.end(hid)
    sp.end(sid)
    events = tr.to_chrome_trace()
    phases = [e["ph"] for e in events if e["ph"] not in "Mi"]
    # B(run) s(flow) B(handler)+f(link arrow) E E
    assert phases == ["B", "s", "B", "f", "E", "E"]
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"repro", "rank 0", "h1"} <= names
    b_run = next(e for e in events if e["ph"] == "B")
    assert b_run["tid"] == 0  # r0 shares the rank-0 row


def test_chrome_trace_unranked_events_get_own_row():
    tr = Tracer()
    tr.record(1.0, "lock.acquire", rank=0)
    tr.record(2.0, "retx.timeout", node=1)  # no rank field
    events = tr.to_chrome_trace()
    rows = {e["args"]["name"]: e["tid"]
            for e in events if e["ph"] == "M" and "tid" in e}
    instants = {e["name"]: e["tid"] for e in events if e["ph"] == "i"}
    assert instants["lock.acquire"] == rows["rank 0"]
    assert instants["retx.timeout"] == rows["(events)"]
    assert rows["(events)"] != rows["rank 0"]


# ------------------------------------------------------ protocol integration

def run_all(machine, gens):
    for g in gens:
        machine.sim.process(g)
    machine.run()


def test_protocol_emits_trace_events():
    machine = Machine(MachineConfig())
    tracer = Tracer()
    proto = HLRCProtocol(machine, GENIMA, tracer=tracer)
    region = proto.allocate("t", 8, home_policy="node:1")

    def worker(rank):
        yield from proto.read(rank, region, [rank % 8])
        yield from proto.write(rank, region, [rank % 8],
                               runs_per_page=1, bytes_per_page=64)
        yield from proto.lock(rank, 0)
        yield from proto.unlock(rank, 0)
        yield from proto.barrier(rank)

    run_all(machine, [worker(r) for r in range(16)])
    counts = tracer.counts()
    assert counts["fault.read"] > 0
    assert counts["lock.acquire"] == 16
    assert counts["lock.release"] == 16
    assert counts["barrier.enter"] == 16
    assert counts["barrier.exit"] == 16
    assert counts["interval.close"] >= 1
    assert counts["diff.flush"] >= 1


def test_untraced_protocol_pays_nothing():
    machine = Machine(MachineConfig())
    proto = HLRCProtocol(machine, BASE)
    assert proto.tracer is None

    def worker():
        yield from proto.barrier(0)

    # no exception from the _trace guard
    run_all(machine, [worker()] + [_b(proto, r) for r in range(1, 16)])


def _b(proto, rank):
    yield from proto.barrier(rank)


def test_trace_event_ordering_is_chronological():
    machine = Machine(MachineConfig())
    tracer = Tracer()
    proto = HLRCProtocol(machine, GENIMA, tracer=tracer)

    def worker(rank):
        yield from proto.lock(rank, 1)
        yield from proto.unlock(rank, 1)
        yield from proto.barrier(rank)

    run_all(machine, [worker(r) for r in range(16)])
    times = [e.t for e in tracer.events]
    assert times == sorted(times)


# -- columnar vs the tuple-sink oracle -------------------------------------


def test_capacity_and_sink_args_gone():
    import pytest
    with pytest.raises(TypeError):
        Tracer(sink="tuples")
    # A tracer keeps every row it admits: there is no bound to set.
    for sink in SINKS.values():
        for capacity in (None, 100_000):
            with pytest.raises(TypeError):
                sink(capacity=capacity)


def _fill(tr, n=500):
    for i in range(n):
        tr.record(float(i) / 8, f"fam.{i % 7}", gid=i, rank=i % 4)
    return tr


def test_columnar_jsonl_matches_tuple_sink_bytewise():
    col = _fill(Tracer())
    tup = _fill(TupleTracer())
    assert col.to_jsonl() == tup.to_jsonl()
    assert col.counts() == tup.counts()
    assert col.events == tup.events
    assert col.filter("fam.3") == tup.filter("fam.3")
    assert len(col.filter("fam")) == 500


def test_iter_yields_the_retained_rows_once():
    col = _fill(Tracer(), n=1000)
    rows = iter(col)
    assert list(rows) == col.events == _fill(TupleTracer(), n=1000).events
    assert list(rows) == []                     # one-shot
    assert list(col) == col.events              # a fresh pass each call


def test_sinks_equal_row_for_row_on_a_spanned_cell():
    from repro.apps import APP_REGISTRY
    from repro.runtime.runner import run_svm
    from repro.svm import BASE

    rows = {}
    for sink, cls in SINKS.items():
        tracer = cls()
        run_svm(APP_REGISTRY["Barnes-spatial"](), BASE,
                config=MachineConfig(), tracer=tracer, spans=True)
        rows[sink] = tracer.events
    assert rows["columnar"] and rows["columnar"] == rows["tuples"]
    assert all(type(r) is TraceEvent for sink in rows
               for r in rows[sink])
    assert any(r.category == "span.begin" for r in rows["columnar"])


def test_columnar_sink_full_ladder_cell_bytewise():
    """Golden: both sinks on one full SVM ladder cell, byte-identical."""
    from repro.apps import APP_REGISTRY
    from repro.runtime.runner import run_svm
    from repro.svm import GENIMA

    outs = {}
    for sink, cls in SINKS.items():
        tracer = cls()
        run_svm(APP_REGISTRY["FFT"](), GENIMA,
                config=MachineConfig(), tracer=tracer)
        outs[sink] = tracer.to_jsonl()
    assert outs["columnar"] == outs["tuples"]
    assert outs["columnar"]  # non-trivial trace
