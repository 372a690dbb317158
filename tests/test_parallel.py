"""Tests for the parallel grid executor and the persistent run store.

Covers the determinism contract (jobs=1 == jobs=N == cache hit),
content-addressed keying (including the dict/list-valued-params
regression the old ``tuple(sorted(params.items()))`` keying broke on),
fingerprint invalidation, corrupted-entry recovery, and single-flight
across executors sharing one store (claim, wait, stale break).
"""

import json
import os
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.experiments import ExperimentCache
from repro.hw import FaultConfig, MachineConfig
from repro.runtime import parallel
from repro.runtime.parallel import (CellSpec, GridExecutor, ResultStore,
                                    STORE_SCHEMA, canonical, canonical_json,
                                    decode_payload, decode_result,
                                    encode_result, evaluate_cell,
                                    make_envelope)
from repro.svm import BASE, GENIMA

APP = "Water-spatial"


def svm_spec(features=GENIMA, **params) -> CellSpec:
    return CellSpec(kind="svm", app=APP, params=params, features=features,
                    config=MachineConfig())


# --------------------------------------------------------------- canonical

def test_canonical_sorts_dict_keys():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2,
                                                               "b": 1})


def test_canonical_normalizes_sequences_and_sets():
    assert canonical((1, 2, 3)) == canonical([1, 2, 3])
    assert canonical({3, 1, 2}) == [1, 2, 3]


def test_canonical_tags_dataclasses():
    out = canonical(FaultConfig(loss=0.01))
    assert out["__dataclass__"] == "FaultConfig"
    assert out["loss"] == 0.01


def test_canonical_rejects_unserializable():
    with pytest.raises(TypeError):
        canonical(object())


# ------------------------------------------------------------------ digests

def test_digest_stable_across_param_dict_order():
    a = svm_spec(tiles={"x": 4, "y": 8}, order=[1, 2])
    b = svm_spec(order=[1, 2], tiles={"y": 8, "x": 4})
    assert a.digest("f" * 16) == b.digest("f" * 16)


def test_digest_dict_valued_params_regression():
    # The old cache keyed on tuple(sorted(params.items())), which
    # raises on dict-valued params; digests must just work.
    spec = svm_spec(weights={"b": 2.0, "a": 1.0})
    assert len(spec.digest("f" * 16)) == 64


def test_digest_distinguishes_inputs():
    fp = "f" * 16
    base = svm_spec()
    assert base.digest(fp) != svm_spec(features=BASE).digest(fp)
    assert base.digest(fp) != svm_spec(extra=1).digest(fp)
    assert base.digest(fp) != base.digest("0" * 16)
    faulty = CellSpec(kind="svm", app=APP, features=GENIMA,
                      config=MachineConfig(faults=FaultConfig(loss=0.01)))
    assert base.digest(fp) != faulty.digest(fp)


# ------------------------------------------------------------------- codecs

@pytest.fixture(scope="module")
def svm_payload():
    return evaluate_cell(svm_spec())


def test_result_roundtrips_through_json(svm_payload):
    wire = json.loads(json.dumps(svm_payload))
    result = decode_result(wire["result"])
    assert encode_result(result) == svm_payload["result"]
    assert result.app == APP
    assert result.time_us > 0
    assert len(result.buckets) == result.nprocs


def test_profile_payload_roundtrips():
    spec = CellSpec(kind="profile", app=APP, features=GENIMA,
                    config=MachineConfig(), slice_us=2000.0)
    payload = json.loads(json.dumps(evaluate_cell(spec)))
    profile = decode_payload(payload)
    assert profile.to_dict() == payload["profile"]
    assert profile.accounting_ok


def test_critpath_payload_roundtrips():
    spec = CellSpec(kind="critpath", app=APP, features=GENIMA,
                    config=MachineConfig())
    payload = json.loads(json.dumps(evaluate_cell(spec)))
    run = decode_payload(payload)
    assert run.tracer is None
    assert run.variant == "GeNIMA"
    assert run.path.to_dict() == payload["path"]


# -------------------------------------------------------------------- store

def test_store_roundtrip_and_len(tmp_path):
    store = ResultStore(tmp_path)
    envelope = {"schema": STORE_SCHEMA, "payload": {"kind": "x"}}
    store.store("ab" * 32, envelope)
    assert store.load("ab" * 32) == envelope
    assert len(store) == 1
    assert [d for d, _ in store.entries()] == ["ab" * 32]
    store.wipe()
    assert store.load("ab" * 32) is None
    assert len(store) == 0


def test_store_env_var_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert ResultStore().root == tmp_path / "env"
    assert ResultStore(tmp_path / "arg").root == tmp_path / "arg"


@pytest.mark.parametrize("text", [
    "", "not json", "[1,2]", '{"schema": 999, "payload": {}}',
    '{"schema": 1, "payload": "nope"}'])
def test_store_treats_corruption_as_miss(tmp_path, text):
    store = ResultStore(tmp_path)
    digest = "cd" * 32
    path = store.path_for(digest)
    path.parent.mkdir(parents=True)
    path.write_text(text)
    assert store.load(digest) is None


# ----------------------------------------------------------------- executor

def test_executor_persists_and_reloads(tmp_path, monkeypatch, svm_payload):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    first = GridExecutor(jobs=1, store=store).map([spec])
    assert len(store) == 1
    # A second executor must serve the hit without evaluating anything.
    def boom(_spec):
        raise AssertionError("cache hit must not recompute")
    monkeypatch.setattr(parallel, "evaluate_cell", boom)
    reloaded = GridExecutor(jobs=1, store=store).map([spec])
    assert encode_result(reloaded[digest]) == encode_result(first[digest])
    assert encode_result(first[digest]) == svm_payload["result"]


def test_executor_fingerprint_invalidates(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    GridExecutor(jobs=1, store=store).map([spec])
    assert len(store) == 1
    monkeypatch.setattr(parallel, "code_fingerprint", lambda: "0" * 16)
    GridExecutor(jobs=1, store=store).map([spec])
    assert len(store) == 2  # new digest, old entry untouched


def test_executor_recovers_from_corrupted_entry(tmp_path, svm_payload):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    GridExecutor(jobs=1, store=store).map([spec])
    store.path_for(digest).write_text('{"schema": 1, "payload": {}}')
    result = GridExecutor(jobs=1, store=store).map([spec])[digest]
    assert encode_result(result) == svm_payload["result"]
    # and the recomputed entry was re-persisted, healed
    assert store.load(digest)["payload"]["result"] == svm_payload["result"]


def test_executor_dedupes_equal_specs(tmp_path):
    store = ResultStore(tmp_path)
    out = GridExecutor(jobs=1, store=store).map([svm_spec(), svm_spec()])
    assert len(out) == 1
    assert len(store) == 1


def test_pool_matches_serial(tmp_path, svm_payload):
    """jobs=2 through a real spawn pool == jobs=1 in-process, bytewise."""
    specs = [svm_spec(), svm_spec(features=BASE)]
    serial = GridExecutor(jobs=1).map(specs)
    store = ResultStore(tmp_path)
    pooled = GridExecutor(jobs=2, jobs_force=True, store=store).map(specs)
    assert serial.keys() == pooled.keys()
    # the parent claimed and wrote both cells, and released every claim
    assert len(store) == 2
    assert not list(store.version_dir.glob("*/*.lock"))
    for digest in serial:
        assert (encode_result(serial[digest])
                == encode_result(pooled[digest]))
    assert encode_result(serial[specs[0].digest()]) == svm_payload["result"]


# ------------------------------------------------------------ jobs clamping

def test_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    ex = GridExecutor(jobs=8)
    assert ex.jobs == 2
    assert ex.requested_jobs == 8  # original ask kept for reporting


def test_jobs_force_overrides_clamp(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    ex = GridExecutor(jobs=8, jobs_force=True)
    assert ex.jobs == 8
    assert ex.requested_jobs == 8


def test_jobs_within_cpu_count_untouched(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    assert GridExecutor(jobs=2).jobs == 2
    assert GridExecutor(jobs=1).jobs == 1


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs, capsys):
    with pytest.raises(ValueError, match="at least 1"):
        GridExecutor(jobs=jobs)
    with pytest.raises(SystemExit) as exc:
        main(["figure", "2", "--jobs", str(jobs)])
    assert exc.value.code == 2  # an argparse usage error, before any work
    assert "--jobs: must be at least 1" in capsys.readouterr().err


# ------------------------------------------------------------ single-flight

def counting_evaluator(monkeypatch, payload_for, delay_s=0.0):
    """Patch evaluate_cell with a fast fake; returns the list of
    evaluated digests (shared by every thread of this process)."""
    evaluated = []
    lock = threading.Lock()

    def fake(spec):
        with lock:
            evaluated.append(spec.digest())
        time.sleep(delay_s)
        return payload_for(spec)
    monkeypatch.setattr(parallel, "evaluate_cell", fake)
    return evaluated


def tagged_payload(svm_payload):
    """A payload that differs per spec, so a digest paired with another
    cell's payload shows up as a wrong result."""
    def payload_for(spec):
        payload = json.loads(json.dumps(svm_payload))
        payload["result"]["time_us"] = float(spec.params.get("extra", 0))
        return payload
    return payload_for


def test_store_write_releases_claim(tmp_path, monkeypatch, svm_payload):
    store = ResultStore(tmp_path)
    counting_evaluator(monkeypatch, tagged_payload(svm_payload))
    spec = svm_spec()
    GridExecutor(jobs=1, store=store).map([spec])
    assert store.load(spec.digest()) is not None
    assert not store.lock_path(spec.digest()).exists()
    # and the claim is immediately re-takeable (nothing leaked)
    fd = store.claim(spec.digest())
    assert fd is not None
    store.release(spec.digest(), fd)


def test_store_breaks_stale_claim(tmp_path):
    """A claim older than lock_stale_s is an orphan (killed holder):
    the next claim() breaks it, and release() removes the new one."""
    store = ResultStore(tmp_path)
    digest = "ef" * 32
    lock = store.lock_path(digest)
    lock.parent.mkdir(parents=True)
    lock.touch()
    assert store.claim(digest) is None  # fresh: held by someone else
    past = 10.0  # epoch-ish: way older than any staleness bound
    os.utime(lock, (past, past))
    fd = store.claim(digest)
    assert fd is not None
    store.release(digest, fd)
    assert not lock.exists()


def test_release_spares_a_reclaimed_lock(tmp_path):
    """A holder whose claim was broken as stale and re-taken must not
    remove the new holder's lockfile when it finally releases."""
    store = ResultStore(tmp_path)
    digest = "ab" * 32
    old = store.claim(digest)
    store.lock_path(digest).unlink()  # broken as stale
    new = store.claim(digest)
    assert new is not None
    store.release(digest, old)
    assert store.lock_path(digest).exists()  # still the new holder's
    store.release(digest, new)
    assert not store.lock_path(digest).exists()


def test_concurrent_executors_compute_each_digest_once(
        tmp_path, monkeypatch, svm_payload):
    specs = [svm_spec(extra=i) for i in range(6)]
    evaluated = counting_evaluator(monkeypatch, tagged_payload(svm_payload),
                                   delay_s=0.05)
    store = ResultStore(tmp_path)
    outs, errors = {}, []
    barrier = threading.Barrier(4)

    def client(idx):
        try:
            barrier.wait(timeout=10)
            out = GridExecutor(jobs=1, store=store).map(specs)
            outs[idx] = {d: encode_result(r) for d, r in out.items()}
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the claim/read steps finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(outs) == 4
    assert sorted(evaluated) == sorted(s.digest() for s in specs)
    for out in outs.values():
        assert json.dumps(out, sort_keys=True) == json.dumps(
            outs[0], sort_keys=True)
    assert [out[s.digest()]["time_us"] for s in specs] == list(range(6))
    assert len(store) == 6
    assert not list(store.version_dir.glob("*/*.lock"))


def test_executor_waits_for_held_claim(tmp_path, monkeypatch, svm_payload):
    """A fresh claim means another process is computing the cell: the
    executor waits for that holder's entry instead of computing."""
    store = ResultStore(tmp_path)
    evaluated = counting_evaluator(monkeypatch, tagged_payload(svm_payload))
    spec = svm_spec(extra=7)
    digest = spec.digest()
    fd = store.claim(digest)

    def holder():
        time.sleep(0.3)
        store.store(digest, make_envelope(spec, tagged_payload(
            svm_payload)(spec)))
        store.release(digest, fd)

    thread = threading.Thread(target=holder, daemon=True)
    thread.start()
    result = GridExecutor(jobs=1, store=store).map([spec])[digest]
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert evaluated == []
    assert result.time_us == 7.0


def test_executor_computes_when_claim_vanishes(tmp_path, monkeypatch,
                                               svm_payload):
    """A claim released with no entry written (the holder raised):
    the waiter claims the cell and computes it itself."""
    store = ResultStore(tmp_path)
    evaluated = counting_evaluator(monkeypatch, tagged_payload(svm_payload))
    spec = svm_spec(extra=3)
    digest = spec.digest()
    fd = store.claim(digest)
    thread = threading.Timer(0.3, store.release, args=(digest, fd))
    thread.start()
    result = GridExecutor(jobs=1, store=store).map([spec])[digest]
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert evaluated == [digest]
    assert result.time_us == 3.0
    assert store.load(digest) is not None
    assert not store.lock_path(digest).exists()


def test_executor_breaks_stale_claim(tmp_path, monkeypatch, svm_payload):
    store = ResultStore(tmp_path)
    evaluated = counting_evaluator(monkeypatch, tagged_payload(svm_payload))
    spec = svm_spec()
    digest = spec.digest()
    lock = store.lock_path(digest)
    lock.parent.mkdir(parents=True)
    lock.touch()
    monkeypatch.setattr(ResultStore, "lock_stale_s", 0.3)
    GridExecutor(jobs=1, store=store).map([spec])
    assert evaluated == [digest]
    assert store.load(digest) is not None
    assert not lock.exists()


def test_raising_holder_does_not_hang_waiter(tmp_path, monkeypatch,
                                             svm_payload):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    entered = threading.Event()
    calls = []

    def flaky(cell):
        calls.append(threading.current_thread().name)
        if len(calls) == 1:
            entered.set()
            time.sleep(0.2)
            raise RuntimeError("holder crashed")
        return svm_payload
    monkeypatch.setattr(parallel, "evaluate_cell", flaky)
    errors, outs = [], []

    def run(sink):
        try:
            sink.append(GridExecutor(jobs=1, store=store).map([spec]))
        except RuntimeError as exc:
            errors.append(exc)

    holder = threading.Thread(target=run, args=([],), name="holder",
                              daemon=True)
    holder.start()
    assert entered.wait(timeout=10)
    waiter = threading.Thread(target=run, args=(outs,), name="waiter",
                              daemon=True)
    waiter.start()
    holder.join(timeout=10)
    waiter.join(timeout=10)
    assert not holder.is_alive() and not waiter.is_alive()
    assert calls == ["holder", "waiter"]
    assert len(errors) == 1
    assert encode_result(outs[0][digest]) == svm_payload["result"]
    assert not store.lock_path(digest).exists()


def test_entry_written_before_claim_is_reused(tmp_path, monkeypatch,
                                             svm_payload):
    """A holder that finishes between this executor's lookup and its
    claim: the re-read after winning the claim finds the entry."""
    store = ResultStore(tmp_path)
    evaluated = counting_evaluator(monkeypatch, tagged_payload(svm_payload))
    spec = svm_spec(extra=5)
    digest = spec.digest()
    claim = store.claim

    def claim_after_holder_finished(d):
        store.store(d, make_envelope(spec, tagged_payload(svm_payload)(spec)))
        return claim(d)
    monkeypatch.setattr(store, "claim", claim_after_holder_finished)
    result = GridExecutor(jobs=1, store=store).map([spec])[digest]
    assert evaluated == []
    assert result.time_us == 5.0
    assert not store.lock_path(digest).exists()


def test_corrupt_entry_under_claim_is_recomputed(tmp_path, monkeypatch,
                                                 svm_payload):
    """An entry that appears between lookup and claim is re-read once
    the claim is won; a corrupt one is recomputed and healed."""
    store = ResultStore(tmp_path)
    evaluated = counting_evaluator(monkeypatch, lambda _spec: svm_payload)
    spec = svm_spec()
    digest = spec.digest()
    claim = store.claim

    def claim_after_corrupt_write(d):
        fd = claim(d)
        store.path_for(d).write_text('{"schema": 1, "payload": {}}')
        return fd
    monkeypatch.setattr(store, "claim", claim_after_corrupt_write)
    GridExecutor(jobs=1, store=store).map([spec])
    assert evaluated == [digest]
    assert store.load(digest)["payload"]["result"] == svm_payload["result"]


def test_map_treats_corrupt_entry_as_miss(tmp_path, monkeypatch,
                                          svm_payload):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    store.store(digest, {"schema": STORE_SCHEMA, "payload": {}})
    evaluated = counting_evaluator(monkeypatch, tagged_payload(svm_payload))
    GridExecutor(jobs=1, store=store).map([spec])
    assert evaluated == [digest]


# ----------------------------------------------------- ExperimentCache glue

def test_cache_warm_is_idempotent(tmp_path):
    cache = ExperimentCache(store=ResultStore(tmp_path))
    specs = [cache.spec_svm(APP, GENIMA), cache.spec_seq(APP)]
    cache.warm(specs)
    first = cache.cell(specs[0])
    cache.warm(specs)
    assert cache.cell(specs[0]) is first  # in-memory identity preserved


def test_warm_cell_read_digests_once(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    spec = ExperimentCache(store=store).spec_svm(APP, GENIMA)
    ExperimentCache(store=store).cell(spec)
    calls = []
    digest = CellSpec.digest

    def counting_digest(self, fingerprint=None):
        calls.append(self)
        return digest(self, fingerprint)
    monkeypatch.setattr(CellSpec, "digest", counting_digest)
    ExperimentCache(store=store).cell(spec)
    assert len(calls) == 1


def test_cache_spec_params_allow_dicts():
    cache = ExperimentCache()
    a = cache.spec_svm(APP, GENIMA, grid={"ny": 2, "nx": 1})
    b = cache.spec_svm(APP, GENIMA, grid={"nx": 1, "ny": 2})
    assert a.digest() == b.digest()


def test_caches_share_store_across_instances(tmp_path):
    store = ResultStore(tmp_path)
    first = ExperimentCache(store=store).svm(APP, GENIMA)
    second = ExperimentCache(store=store).svm(APP, GENIMA)
    assert first is not second
    assert encode_result(first) == encode_result(second)
