"""Tests for the fault injector and the drop-tolerant transport.

Three levels:

* config: ``FaultConfig`` validation and the ``--faults`` spec parser;
* transport: unit tests over the raw VMMC/NIC stack with targeted
  fault settings (total loss fails fast, duplicates are discarded,
  drops are repaired by retransmission);
* system: whole-app runs must be byte-identical for identical seeds,
  sanitizer-clean under loss, and the machine must not even build the
  fault layers when ``faults=None``.
"""

import gc
import hashlib

import pytest

from repro.hw import FaultConfig, Machine, MachineConfig
from repro.sim import SimulationError, Tracer
from repro.vmmc import VMMC

LOSSY = dict(retx_timeout_us=50.0, retx_timeout_max_us=200.0)


def make_stack(faults=None, **overrides):
    cfg = MachineConfig(faults=faults, **overrides)
    machine = Machine(cfg)
    return machine, VMMC(machine)


# ------------------------------------------------------------------ config

def test_fault_config_parse_round_trip():
    f = FaultConfig.parse("loss=0.01,jitter=5,seed=3")
    assert f.loss == 0.01
    assert f.jitter_us == 5.0
    assert f.seed == 3
    # Untouched knobs keep their defaults.
    assert f.dup == 0.0 and f.reorder == 0.0


def test_fault_config_parse_aliases_and_types():
    f = FaultConfig.parse("rto=100,rto_max=800,retries=4,window=25,dup=0.1")
    assert f.retx_timeout_us == 100.0
    assert f.retx_timeout_max_us == 800.0
    assert f.retx_max == 4
    assert isinstance(f.retx_max, int)
    assert f.reorder_window_us == 25.0


def test_fault_config_parse_rejects_junk():
    with pytest.raises(ValueError):
        FaultConfig.parse("warp=0.5")
    with pytest.raises(ValueError):
        FaultConfig.parse("loss")
    with pytest.raises(ValueError):
        FaultConfig.parse("loss=high")


def test_fault_config_validates_probabilities():
    with pytest.raises(ValueError):
        FaultConfig(loss=1.5)
    with pytest.raises(ValueError):
        FaultConfig(dup=-0.1)
    for attempts in (0, 2.5, True):
        with pytest.raises(ValueError, match="retx_max"):
            FaultConfig(retx_max=attempts)
    # NaN passes a plain ``<= 0`` test; every field is named.
    for field in ("retx_timeout_us", "retx_timeout_max_us", "jitter_us",
                  "reorder_window_us"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                FaultConfig(**{field: value})
    with pytest.raises(ValueError, match="retx_timeout_max_us"):
        FaultConfig(retx_timeout_us=800.0, retx_timeout_max_us=400.0)
    # A seed is a whole number; a negative one stays legal.
    for seed in (1.5, True):
        with pytest.raises(ValueError, match="seed"):
            FaultConfig(seed=seed)
    assert FaultConfig(seed=-1).seed == -1


def test_fault_config_degrades_and_link_filter():
    assert not FaultConfig().degrades
    assert FaultConfig(loss=0.1).degrades
    f = FaultConfig(loss=1.0, links=((0, 1),))
    assert f.affects(0, 1)
    assert not f.affects(1, 0)


def test_faults_off_builds_no_fault_layers():
    machine, _ = make_stack(faults=None)
    assert machine.fault_injector is None
    assert machine.reliability is None
    assert machine.network.fault_injector is None
    assert all(nic.reliability is None for nic in machine.nics)


# --------------------------------------------------------------- transport

def _run_senders(machine, *gens):
    done = []

    def wrap(gen, tag):
        yield from gen
        done.append(tag)

    for i, gen in enumerate(gens):
        machine.sim.process(wrap(gen, i), name=f"sender{i}")
    machine.sim.run()
    assert len(done) == len(gens)


def test_total_loss_fails_fast_with_diagnostic():
    machine, vmmc = make_stack(
        faults=FaultConfig(loss=1.0, retx_max=3, **LOSSY))

    def sender():
        yield from vmmc.send(0, 1, size=64, kind="wn")

    machine.sim.process(sender(), name="sender")
    with pytest.raises(SimulationError, match="unacked after 3"):
        machine.sim.run()
    assert machine.reliability.retx_timeouts == 3


def test_drops_are_repaired_by_retransmission():
    machine, vmmc = make_stack(
        faults=FaultConfig(loss=0.4, seed=2, **LOSSY))
    delivered = []

    def sender():
        for _ in range(20):
            yield from vmmc.send(0, 1, size=256, kind="wn",
                                 await_delivery=True,
                                 on_delivered=delivered.append)

    _run_senders(machine, sender())
    assert len(delivered) == 20
    assert machine.fault_injector.packets_dropped > 0
    assert machine.reliability.retransmits > 0


def test_duplicates_deliver_exactly_once():
    machine, vmmc = make_stack(faults=FaultConfig(dup=1.0, **LOSSY))
    delivered = []

    def sender():
        for _ in range(5):
            yield from vmmc.send(0, 1, size=64, kind="wn",
                                 await_delivery=True,
                                 on_delivered=delivered.append)

    _run_senders(machine, sender())
    assert len(delivered) == 5
    assert machine.fault_injector.packets_duplicated > 0
    assert machine.reliability.dup_discards > 0


def test_link_filter_spares_other_links():
    machine, vmmc = make_stack(
        faults=FaultConfig(loss=1.0, links=((2, 3),), retx_max=2, **LOSSY))
    delivered = []

    def sender():
        yield from vmmc.send(0, 1, size=64, kind="wn",
                             await_delivery=True,
                             on_delivered=delivered.append)

    _run_senders(machine, sender())
    assert len(delivered) == 1
    assert machine.fault_injector.packets_dropped == 0
    assert machine.reliability.retransmits == 0


def test_multicast_survives_loss():
    machine, vmmc = make_stack(
        faults=FaultConfig(loss=0.5, seed=5, **LOSSY))
    landed = []

    def sender():
        yield from vmmc.send_multicast(
            0, [1, 2, 3], size=128, kind="wn",
            on_packet_delivered=lambda pkt: landed.append(pkt.dst))
        # Wait out the recovery tail.
        yield machine.sim.timeout(5000.0)

    _run_senders(machine, sender())
    assert sorted(landed) == [1, 2, 3]


# ------------------------------------------------------------ determinism

def _trace_digest(seed):
    from repro.apps import APP_REGISTRY
    from repro.runtime import run_svm
    from repro.svm import GENIMA
    tracer = Tracer()
    cfg = MachineConfig(
        faults=FaultConfig(loss=0.03, dup=0.01, jitter_us=3.0, seed=seed))
    run_svm(APP_REGISTRY["Water-spatial"](), GENIMA, config=cfg,
            tracer=tracer)
    return hashlib.sha256(tracer.to_jsonl().encode()).hexdigest()


def test_same_seed_gives_byte_identical_traces():
    assert _trace_digest(7) == _trace_digest(7)


def test_different_seed_gives_different_faults():
    assert _trace_digest(7) != _trace_digest(8)


def _lossy_kvstore_config():
    return MachineConfig(nodes=8, topology="fat-tree",
                         faults=FaultConfig(loss=0.02, dup=0.02,
                                            reorder=0.02, seed=3))


#: (protocol, spanned-trace sha256, kernel events dispatched,
#: (retransmits, dup_discards, acks_sent)) of KVStore on an 8-node
#: fat-tree under loss, duplication and reordering.  Unlike the
#: run-to-run digest above these are stored values: a change to the
#: transport's book-keeping that keeps them keeps the lossy schedule.
LOSSY_PINS = [
    ("Base",
     "5c05677fff75f41b78ef67545028237ba4c3cb566fa790d419ef68735248082d",
     92_804, (123, 164, 2095)),
    ("GeNIMA",
     "5b470ffb887d066142a06471b36073256a292ddd3a1c003afa8e70b0bc31aad6",
     137_335, (250, 321, 3674)),
]

#: The same cell with latency jitter armed as well, the one draw kind
#: LOSSY_PINS leave out; the counters add ``packets_jittered``.
JITTER_PINS = [
    ("Base",
     "3f4ecd8f8e253ffd89db3309604b57da7243c8bfb637ae06dc2d9bb26ef8a2ca",
     95_229, (164, 179, 2156, 4907)),
    ("GeNIMA",
     "9b5296b7e7a7be00a56994c543d4ee0cf900430249309cbffc2b4f9724fae4ad",
     138_009, (245, 310, 3686, 7886)),
]


def _jittered_kvstore_config():
    return MachineConfig(nodes=8, topology="fat-tree",
                         faults=FaultConfig(loss=0.02, dup=0.02,
                                            reorder=0.02, jitter_us=2.0,
                                            seed=5))


def _check_pinned_trace(monkeypatch, config, protocol, sha, events,
                        counters):
    from repro.apps import APP_REGISTRY
    from repro.runtime import run_svm
    from repro.sim import Simulator
    from repro.svm import BASE, GENIMA
    dispatched = []
    orig_run = Simulator.run

    def counting_run(self, until=None):
        result = orig_run(self, until)
        dispatched.append(self.events_dispatched)
        return result

    monkeypatch.setattr(Simulator, "run", counting_run)
    tracer = Tracer()
    result = run_svm(APP_REGISTRY["KVStore"](),
                     {"Base": BASE, "GeNIMA": GENIMA}[protocol],
                     config=config, tracer=tracer, spans=True)
    assert hashlib.sha256(tracer.to_jsonl().encode()).hexdigest() == sha
    assert dispatched[-1] == events
    names = ("retransmits", "dup_discards", "acks_sent",
             "packets_jittered")[:len(counters)]
    assert tuple(result.stats[name] for name in names) == counters


@pytest.mark.parametrize("protocol,sha,events,counters", LOSSY_PINS,
                         ids=["base", "genima"])
def test_lossy_fat_tree_trace_pinned(monkeypatch, protocol, sha, events,
                                     counters):
    _check_pinned_trace(monkeypatch, _lossy_kvstore_config(), protocol,
                        sha, events, counters)


@pytest.mark.parametrize("protocol,sha,events,counters", JITTER_PINS,
                         ids=["base", "genima"])
def test_jittered_fat_tree_trace_pinned(monkeypatch, protocol, sha,
                                        events, counters):
    _check_pinned_trace(monkeypatch, _jittered_kvstore_config(), protocol,
                        sha, events, counters)


def test_injector_keeps_no_generator_per_link():
    """perfbench's 256-node lossy KVStore/Base cell draws a few times on
    each of ~4,200 links: every link holds a window of its stream's
    draws, and not one keeps a 2.5 KB ``random.Random``."""
    import random
    from repro.apps import APP_REGISTRY
    from repro.experiments.scale import scale_params
    from repro.runtime import SVMBackend, run_on_backend
    from repro.sim import SeededStream
    from repro.svm import BASE
    config = MachineConfig(nodes=256, procs_per_node=1,
                           topology="fat-tree",
                           faults=FaultConfig(loss=0.01, seed=0))
    params = scale_params("KVStore", config.total_procs, seed=0)
    backend = SVMBackend(config, BASE)
    run_on_backend(APP_REGISTRY["KVStore"](**params), backend,
                   system="Base")
    streams = backend.machine.fault_injector._streams
    assert len(streams) > 4000
    assert {type(stream) for stream in streams.values()} == {SeededStream}
    assert not [r for stream in streams.values()
                for r in gc.get_referents(stream)
                if isinstance(r, random.Random)]


# ---------------------------------------------------------- retained state

def _cyclic_garbage_of_runs(monkeypatch, run):
    """Call ``run()``; for each ``Simulator.run`` inside it, the number
    of unreachable objects the cyclic collector finds just before that
    run returns, with the collector off for the run itself."""
    from repro.sim import Simulator
    found = []
    orig_run = Simulator.run

    def collecting_run(self, until=None):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            result = orig_run(self, until)
            found.append(gc.collect())
        finally:
            if was_enabled:
                gc.enable()
        return result

    monkeypatch.setattr(Simulator, "run", collecting_run)
    run()
    return found


@pytest.mark.parametrize("app,faults", [("KVStore", True),
                                        ("Ocean-rowwise", False)],
                         ids=["kvstore-lossy", "ocean-barriers"])
def test_run_leaves_no_cyclic_garbage(monkeypatch, app, faults):
    """Watchdog waits (any_of) on the lossy cell and barrier episodes
    (all_of) on the faults-off one build no reference cycles."""
    from repro.apps import APP_REGISTRY
    from repro.runtime import run_svm
    from repro.svm import BASE
    config = _lossy_kvstore_config() if faults else MachineConfig()
    found = _cyclic_garbage_of_runs(
        monkeypatch,
        lambda: run_svm(APP_REGISTRY[app](), BASE, config=config))
    assert found and all(n == 0 for n in found), found


def test_finished_sends_keep_no_message():
    from repro.apps import APP_REGISTRY
    from repro.runtime import SVMBackend, run_on_backend
    from repro.svm import BASE
    backend = SVMBackend(_lossy_kvstore_config(), BASE)
    run_on_backend(APP_REGISTRY["KVStore"](), backend, system="Base")
    rel = backend.machine.reliability
    assert rel.retransmits > 0
    assert rel.outstanding_by_node() == [0] * backend.machine.config.nodes
    assert rel._sends == {}


@pytest.mark.parametrize("protocol", ["Base", "GeNIMA"])
def test_drained_transport_holds_no_per_message_state(protocol):
    """Dedup state lives on the messages, so once a run with loss,
    duplication and reordering drains, the only table the transport
    still holds is the per-channel ordinal: its size is bounded by the
    channels, not by how many messages the run sent."""
    from repro.apps import APP_REGISTRY
    from repro.runtime import SVMBackend, run_on_backend
    from repro.svm import BASE, GENIMA
    features = {"Base": BASE, "GeNIMA": GENIMA}[protocol]
    backend = SVMBackend(_lossy_kvstore_config(), features)
    run_on_backend(APP_REGISTRY["KVStore"](), backend, system=protocol)
    machine = backend.machine
    rel = machine.reliability
    injector = machine.fault_injector
    assert rel.retransmits > 0 and rel.dup_discards > 0
    assert injector.packets_duplicated > 0
    assert injector.packets_reordered > 0
    assert rel._sends == {}
    assert rel.outstanding_by_node() == [0] * machine.config.nodes
    tables = [name for name, value in vars(rel).items()
              if isinstance(value, dict) and value]
    assert tables == ["_channel_seq"]


@pytest.mark.parametrize("faults,counter", [
    (dict(loss=0.02), "packets_dropped"),
    (dict(dup=0.05), "packets_duplicated"),
], ids=["loss", "dup"])
def test_no_packet_in_flight_after_a_faulted_run(faults, counter):
    """A dropped packet leaves the wire and an injected duplicate is
    one more packet on it: once the run is over nothing is in flight."""
    from repro.apps import WaterSpatial
    from repro.runtime import SVMBackend, run_on_backend
    from repro.svm import BASE
    backend = SVMBackend(MachineConfig(faults=FaultConfig(**faults)), BASE)
    run_on_backend(WaterSpatial(), backend, system="Base")
    machine = backend.machine
    assert getattr(machine.fault_injector, counter) > 0
    assert machine.packets_in_flight() == 0


def test_untraced_lossy_run_names_no_message():
    """Without a tracer the fault layers build no trace fields and
    assign no dense message ids."""
    from repro.apps import APP_REGISTRY
    from repro.runtime import SVMBackend, run_on_backend
    from repro.svm import BASE
    backend = SVMBackend(_lossy_kvstore_config(), BASE)
    run_on_backend(APP_REGISTRY["KVStore"](), backend, system="Base")
    machine = backend.machine
    assert machine.fault_injector.packets_dropped > 0
    assert machine.reliability.retransmits > 0
    assert machine.reliability.msg_ids._map == {}


def test_duplicate_after_completion_is_discarded_and_reacked():
    from repro.hw.packet import Packet
    machine, vmmc = make_stack(faults=FaultConfig(**LOSSY))
    rel = machine.reliability
    tracer = Tracer()
    rel.tracer = tracer
    delivered = []

    def sender():
        yield from vmmc.send(0, 1, size=64, kind="wn",
                             await_delivery=True,
                             on_delivered=delivered.append)

    _run_senders(machine, sender())
    assert rel.acks_sent == rel.acks_received == 1
    assert rel.dup_discards == 0

    def late_copy():
        # A spurious retransmission of the already-acked message.
        copy = Packet(message=delivered[0], size=64, index=0,
                      is_last=True, fw_origin=True, dst_node=1)
        copy.t_enqueue = copy.t_src_done = machine.sim.now
        yield machine.nics[0].out_queue.put(copy)

    _run_senders(machine, late_copy())
    assert len(delivered) == 1
    assert rel.dup_discards == 1
    # The receiver re-acks; the sender counts the ack and ignores it.
    assert rel.acks_sent == rel.acks_received == 2
    assert rel.retransmits == rel.retx_timeouts == 0
    assert rel.outstanding_by_node() == [0] * machine.config.nodes
    assert tracer.counts().get("retx.dup_discard") == 1

# -------------------------------------------------------------- sanitizer

def test_fault_recovery_check_flags_unacked_drop():
    from repro.analysis import Sanitizer
    tracer = Tracer()
    tracer.record(1.0, "fault.drop", src=0, dst=1, kind="wn", msg=5,
                  idx=0, size=64)
    findings = Sanitizer(checks=["fault-recovery"]).run(tracer.events)
    assert len(findings) == 1
    assert "never acked" in str(findings[0])


def test_fault_recovery_check_accepts_repaired_drop():
    from repro.analysis import Sanitizer
    tracer = Tracer()
    tracer.record(1.0, "fault.drop", src=0, dst=1, kind="wn", msg=5,
                  idx=0, size=64)
    tracer.record(2.0, "retx.resend", node=0, msg=5, dst=1, idx=0,
                  seq=0, attempt=1)
    tracer.record(3.0, "retx.ack", node=0, msg=5, dst=1)
    findings = Sanitizer(checks=["fault-recovery"]).run(tracer.events)
    assert findings == []


def test_lossy_run_is_sanitizer_clean():
    from repro.analysis import sanitize_run
    from repro.apps import APP_REGISTRY
    from repro.svm import GENIMA
    cfg = MachineConfig(faults=FaultConfig(loss=0.05, seed=1))
    result, findings = sanitize_run(APP_REGISTRY["Water-spatial"](),
                                    GENIMA, config=cfg)
    assert findings == []
    assert result.stats["packets_dropped"] > 0
    assert result.stats["retransmits"] > 0


# -------------------------------------------------------- fetch retry cap

def test_fetch_retry_exhaustion_raises():
    from repro.svm import DW_RF, HLRCProtocol
    cfg = MachineConfig(fetch_retry_max=3)
    machine = Machine(cfg)
    tracer = Tracer()
    proto = HLRCProtocol(machine, DW_RF, tracer=tracer)
    region = proto.allocate("a", 1, home_policy="node:0")
    gid = region.gid(0)

    def fetcher():
        # Demand a version the home copy can never reach: the loop
        # must give up after fetch_retry_max re-fetches, not livelock.
        yield from proto._fetch_rf(1, gid, 0, {99: 1})

    machine.sim.process(fetcher(), name="fetcher")
    with pytest.raises(SimulationError, match="fetch_retry_max=3"):
        machine.sim.run()
    assert tracer.counts().get("fetch.retry_exhausted") == 1
    assert proto.fetch_retries == 4  # 3 allowed retries + the last straw
