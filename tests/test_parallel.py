"""Tests for the parallel grid executor and the persistent run store.

Covers the determinism contract (jobs=1 == jobs=N == cache hit),
content-addressed keying (including the dict/list-valued-params
regression the old ``tuple(sorted(params.items()))`` keying broke on),
fingerprint invalidation, corrupted-entry recovery, and single-flight
across executors sharing one store (claim, wait, stale break).
"""

import hashlib
import json
import multiprocessing
import os
import subprocess
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


def resolve(executor: GridExecutor, specs) -> dict:
    """``executor``'s values for ``specs``, keyed by digest."""
    return executor.resolve({spec.digest(): spec for spec in specs})


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


#: Cell keys pinned byte for byte under a fixed fingerprint: every
#: store entry ever written is addressed by one of these derivations,
#: so a change to how keys are computed must leave them all alone.
PINNED_DIGESTS = {
    "seq": "52fe0fa56848c12da7ce7462476f6dc6c1ec89b84b7103c8c5ea3128334f6482",
    "svm": "b9aa567b577b4ef679c0b87b247b0a7884b524a840d06534a3f8da65d43bcbc4",
    "svm_fat_tree_faults":
        "3a6c8431c3a017cb5cae1294cc62098590930796d5cab3f768ab55f1f70b59bd",
    "params":
        "a6e5de50b6e1016de09f5d67ed094f0613f7beeee2d68242b915d143789f22b2",
    "profile":
        "38a2807ec0a38bb097bf6226d99a591846f8d924e0e60ca35ffcd314cdce7054",
    "origin":
        "3a78148272e54c56398d9129bddf078b8f095a4cd21c1f16a268460d6425001f",
    "interrupt_int":
        "6f53500eae5bcae1b64774d3af4006c514e4110b1156066d2a1bc58eaaa37867",
    "interrupt_float":
        "5c4a271ea690be5776cdc4b66f1d9b6578f221913a4f1ca7b93274550dec31dc",
    "flag_true":
        "b2dee13bd177634209c55ee5a9a60ceaafcdd6195ac2bdb88e2350ec3ae91445",
    "flag_one":
        "af64bf835fe0e2873cf3a58326387968f5832dadf4d7ae9c605e271b6da30b43",
}


def pinned_cells():
    fat_tree = MachineConfig(nodes=8, topology="fat-tree",
                             faults=FaultConfig(loss=0.01, dup=0.005, seed=7))
    return {
        "seq": CellSpec(kind="seq", app=APP, config=MachineConfig()),
        "svm": svm_spec(),
        "svm_fat_tree_faults": CellSpec(kind="svm", app=APP, features=BASE,
                                        config=fat_tree, telemetry_us=500.0),
        "params": svm_spec(grid={"ny": 2, "nx": 1}, order=(3, 1),
                           sizes=[4, 2.5], tags={"b", "a"}),
        "profile": CellSpec(kind="profile", app=APP, features=GENIMA,
                            config=MachineConfig(), slice_us=1000.0,
                            check=True),
        "origin": CellSpec(kind="origin", app=APP, nprocs=16),
        "interrupt_int": CellSpec(kind="svm", app=APP, features=GENIMA,
                                  config=MachineConfig(interrupt_us=1)),
        "interrupt_float": CellSpec(kind="svm", app=APP, features=GENIMA,
                                    config=MachineConfig(interrupt_us=1.0)),
        "flag_true": svm_spec(flag=True),
        "flag_one": svm_spec(flag=1),
    }


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_digest_pinned(name):
    assert pinned_cells()[name].digest("f" * 16) == PINNED_DIGESTS[name]


def test_equal_but_differently_typed_values_keep_distinct_keys():
    fp = "f" * 16
    cells = pinned_cells()
    assert cells["interrupt_int"].config == cells["interrupt_float"].config
    assert (cells["interrupt_int"].digest(fp)
            != cells["interrupt_float"].digest(fp))
    assert cells["flag_true"] == cells["flag_one"]
    assert cells["flag_true"].digest(fp) != cells["flag_one"].digest(fp)


def test_envelope_cell_pinned():
    spec = pinned_cells()["svm_fat_tree_faults"]
    cell = make_envelope(spec, {"kind": "svm"}, "f" * 16)["cell"]
    assert hashlib.sha256(canonical_json(cell).encode()).hexdigest() == (
        "a65cee495b6097bbb5c7af7dbda16c96b64e4cca6779d9c8c0be2715acbaa32e")


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
    first = resolve(GridExecutor(jobs=1, store=store), [spec])
    assert len(store) == 1
    # A second executor must serve the hit without evaluating anything.
    def boom(_spec):
        raise AssertionError("cache hit must not recompute")
    monkeypatch.setattr(parallel, "evaluate_cell", boom)
    reloaded = resolve(GridExecutor(jobs=1, store=store), [spec])
    assert encode_result(reloaded[digest]) == encode_result(first[digest])
    assert encode_result(first[digest]) == svm_payload["result"]


def test_executor_fingerprint_invalidates(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    resolve(GridExecutor(jobs=1, store=store), [spec])
    assert len(store) == 1
    monkeypatch.setattr(parallel, "code_fingerprint", lambda: "0" * 16)
    resolve(GridExecutor(jobs=1, store=store), [spec])
    assert len(store) == 2  # new digest, old entry untouched


def test_fingerprint_ignores_driver_only_modules(tmp_path, monkeypatch):
    """Editing a module no cell runs (the experiment cache, dashboards,
    linters, the unused datastore) keeps every stored cell reachable;
    editing a module a cell runs does not."""
    import shutil
    import repro
    src = os.path.dirname(repro.__file__)
    copy = tmp_path / "repro"
    shutil.copytree(src, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))

    def fingerprint_after(edit):
        with open(copy / edit, "a") as fh:
            fh.write("\n# an edit\n")
        parallel.code_fingerprint.cache_clear()
        return parallel.code_fingerprint()

    try:
        parallel.code_fingerprint.cache_clear()
        before = parallel.code_fingerprint()
        for edit in ("experiments/cache.py", "obs/dash.py",
                     "obs/openmetrics.py", "analysis/static/driver.py",
                     "analysis/lint.py", "analysis/sanitizer.py",
                     "svm/datastore.py"):
            assert fingerprint_after(edit) == before, edit
        for edit in ("experiments/critpath.py", "experiments/__init__.py",
                     "faults/reliable.py"):
            after = fingerprint_after(edit)
            assert after != before, edit
            before = after
    finally:
        monkeypatch.undo()
        parallel.code_fingerprint.cache_clear()


#: evaluates one cell of every kind, plus a lossy svm cell (which arms
#: the fault layer), then prints the package-relative path of every
#: ``repro`` module the interpreter loaded.
_LOADED_MODULES_SCRIPT = """
import sys
from pathlib import Path
import repro
from repro.hw import FaultConfig, MachineConfig
from repro.runtime.parallel import CellSpec, evaluate_cell
from repro.svm import GENIMA
app, config = "Water-spatial", MachineConfig()
for spec in (
        CellSpec(kind="svm", app=app, features=GENIMA, config=config,
                 telemetry_us=500.0),
        CellSpec(kind="seq", app=app, config=config),
        CellSpec(kind="origin", app=app, nprocs=4),
        CellSpec(kind="profile", app=app, features=GENIMA, config=config,
                 slice_us=500.0, check=True),
        CellSpec(kind="critpath", app=app, features=GENIMA, config=config,
                 check=True),
        CellSpec(kind="svm", app="KVStore", features=GENIMA,
                 config=MachineConfig(faults=FaultConfig(loss=0.01)))):
    evaluate_cell(spec)
root = Path(repro.__file__).resolve().parent
for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] == "repro":
        print(Path(module.__file__).resolve().relative_to(root).as_posix())
"""


def test_fingerprint_covers_every_module_a_cell_loads():
    """The dynamic side of the FPR lint: whatever a fresh interpreter
    imports to evaluate cells is hashed by the fingerprint."""
    import repro
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES_SCRIPT], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert "faults/reliable.py" in out and "experiments/__init__.py" in out
    assert sorted(set(out) - set(parallel.FINGERPRINT_MODULES)) == []


def test_executor_recovers_from_corrupted_entry(tmp_path, svm_payload):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    resolve(GridExecutor(jobs=1, store=store), [spec])
    store.path_for(digest).write_text('{"schema": 1, "payload": {}}')
    result = resolve(GridExecutor(jobs=1, store=store), [spec])[digest]
    assert encode_result(result) == svm_payload["result"]
    # and the recomputed entry was re-persisted, healed
    assert store.load(digest)["payload"]["result"] == svm_payload["result"]


def test_executor_recomputes_entry_missing_a_bucket(tmp_path, svm_payload):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    resolve(GridExecutor(jobs=1, store=store), [spec])
    envelope = store.load(digest)
    del envelope["payload"]["result"]["buckets"][0]["data"]
    store.store(digest, envelope)
    result = resolve(GridExecutor(jobs=1, store=store), [spec])[digest]
    assert encode_result(result) == svm_payload["result"]
    # and the recomputed entry was re-persisted, healed
    assert store.load(digest)["payload"]["result"] == svm_payload["result"]


def test_executor_dedupes_equal_specs(tmp_path):
    """Equal specs under two keys share one evaluation and value."""
    store = ResultStore(tmp_path)
    out = ExperimentCache(store=store).run({"a": svm_spec(),
                                            "b": svm_spec()})
    assert len({id(value) for value in out.values()}) == 1
    assert len(store) == 1


def test_pool_matches_serial(tmp_path, svm_payload, monkeypatch):
    """jobs=2 through a real spawn pool == jobs=1 in-process, bytewise."""
    specs = [svm_spec(), svm_spec(features=BASE)]
    serial = resolve(GridExecutor(jobs=1), specs)
    store = ResultStore(tmp_path)
    # two workers even on a one-CPU host, so the pool path runs
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    pooled = resolve(GridExecutor(jobs=2, store=store), specs)
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


@pytest.mark.parametrize("jobs", [1.5, True, "2"])
def test_non_integer_jobs_rejected(jobs):
    # Construct only: 1.5 used to pass the ``< 1`` check and reach the
    # worker pool.
    with pytest.raises(ValueError, match="jobs"):
        GridExecutor(jobs=jobs)


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
    resolve(GridExecutor(jobs=1, store=store), [spec])
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
            out = resolve(GridExecutor(jobs=1, store=store), specs)
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


def _shared_store_client(root, specs, fingerprint, barrier, queue):
    """One spawned process: resolve ``specs`` through the store at
    ``root`` and report the digests it computed and its encoded results.

    Digests are taken under the parent's ``fingerprint``: a fresh
    interpreter hashes the sources as they are now, and a source edit
    since the parent first hashed them would give every cell a digest
    the parent never computed."""
    computed = []
    evaluate = parallel.evaluate_cell
    parallel.code_fingerprint = lambda: fingerprint

    def counting(spec):
        computed.append(spec.digest())
        return evaluate(spec)
    parallel.evaluate_cell = counting
    barrier.wait(timeout=60)
    out = resolve(GridExecutor(jobs=1, store=ResultStore(root)), specs)
    queue.put((computed, {d: encode_result(r) for d, r in out.items()}))


def test_processes_sharing_a_store_match_serial(tmp_path):
    """Real cells, two processes, one fresh store: each digest is
    computed once in total, both see exactly the in-process jobs=1
    results, and no claim is left behind."""
    specs = [svm_spec(), svm_spec(features=BASE)]
    serial = {d: encode_result(r)
              for d, r in resolve(GridExecutor(jobs=1), specs).items()}
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(2)
    queue = context.Queue()
    fingerprint = parallel.code_fingerprint()
    procs = [context.Process(target=_shared_store_client,
                             args=(str(tmp_path), specs, fingerprint,
                                   barrier, queue))
             for _ in range(2)]
    for proc in procs:
        proc.start()
    try:
        reports = [queue.get(timeout=300) for _ in procs]
    finally:
        for proc in procs:
            proc.join(timeout=60)
    assert not any(proc.is_alive() for proc in procs)
    assert sorted(d for computed, _ in reports for d in computed) \
        == sorted(serial)
    for _, encoded in reports:
        assert encoded == serial
    store = ResultStore(tmp_path)
    assert len(store) == 2
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
    result = resolve(GridExecutor(jobs=1, store=store), [spec])[digest]
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
    result = resolve(GridExecutor(jobs=1, store=store), [spec])[digest]
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
    resolve(GridExecutor(jobs=1, store=store), [spec])
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
            sink.append(resolve(GridExecutor(jobs=1, store=store), [spec]))
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
    result = resolve(GridExecutor(jobs=1, store=store), [spec])[digest]
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
    resolve(GridExecutor(jobs=1, store=store), [spec])
    assert evaluated == [digest]
    assert store.load(digest)["payload"]["result"] == svm_payload["result"]


def test_map_treats_corrupt_entry_as_miss(tmp_path, monkeypatch,
                                          svm_payload):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    store.store(digest, {"schema": STORE_SCHEMA, "payload": {}})
    evaluated = counting_evaluator(monkeypatch, tagged_payload(svm_payload))
    resolve(GridExecutor(jobs=1, store=store), [spec])
    assert evaluated == [digest]


# ----------------------------------------------------- ExperimentCache glue

def test_cache_warm_is_idempotent(tmp_path):
    cache = ExperimentCache(store=ResultStore(tmp_path))
    cells = dict(enumerate([cache.spec_svm(APP, GENIMA), cache.spec_seq(APP)]))
    first = cache.run(cells)[0]
    assert cache.run(cells)[0] is first  # in-memory identity preserved
    assert cache.cell(cells[0]) is first


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


def test_warm_hit_builds_no_machine_and_walks_the_spec_once(tmp_path,
                                                           monkeypatch):
    store = ResultStore(tmp_path)
    ExperimentCache(store=store).cell(svm_spec())
    cache = ExperimentCache(store=store)
    built, digests, walked, rewalked = [], [], [], []
    post_init = MachineConfig.__post_init__
    digest = CellSpec.digest
    canonical = parallel.canonical

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_digest(self, fingerprint=None):
        digests.append(self)
        return digest(self, fingerprint)

    def counting_canonical(obj):
        if isinstance(obj, CellSpec):
            walked.append(obj)
        elif isinstance(obj, dict) and "__dataclass__" in obj:
            rewalked.append(obj)  # a second walk over canonical output
        return canonical(obj)

    def boom(_spec):
        raise AssertionError("cache hit must not recompute")
    monkeypatch.setattr(MachineConfig, "__post_init__", counting_post_init)
    monkeypatch.setattr(CellSpec, "digest", counting_digest)
    monkeypatch.setattr(parallel, "canonical", counting_canonical)
    monkeypatch.setattr(parallel, "evaluate_cell", boom)
    cache.cell(cache.spec_svm(APP, GENIMA))
    assert built == []
    assert len(digests) == 1
    assert len(walked) == len(digests)
    assert rewalked == []


@pytest.mark.parametrize("nodes", [0, -1, True, 4.0])
def test_spec_svm_rejects_bad_node_count(nodes):
    # None means the cache's machine; 0 used to mean it too.
    with pytest.raises(ValueError, match="nodes"):
        ExperimentCache().spec_svm(APP, GENIMA, nodes=nodes)


@pytest.mark.parametrize("nprocs", [0, -1, True, 16.0, "16"])
def test_spec_origin_rejects_bad_nprocs(nprocs):
    with pytest.raises(ValueError, match="nprocs"):
        ExperimentCache().spec_origin(APP, nprocs=nprocs)


def test_spec_sizes_default_only_on_none():
    cache = ExperimentCache()
    assert cache.spec_svm(APP, GENIMA).config is cache.config
    assert cache.spec_svm(APP, GENIMA, nodes=4).config is cache.config
    assert cache.spec_svm(APP, GENIMA, nodes=8).config == MachineConfig(
        nodes=8)
    assert cache.spec_origin(APP).nprocs == cache.config.total_procs
    assert cache.spec_origin(APP, nprocs=32).nprocs == 32


def test_cache_spec_params_allow_dicts():
    cache = ExperimentCache()
    a = cache.spec_svm(APP, GENIMA, grid={"ny": 2, "nx": 1})
    b = cache.spec_svm(APP, GENIMA, grid={"nx": 1, "ny": 2})
    assert a.digest() == b.digest()


def test_caches_share_store_across_instances(tmp_path):
    store = ResultStore(tmp_path)
    first = ExperimentCache(store=store).cell(svm_spec())
    second = ExperimentCache(store=store).cell(svm_spec())
    assert first is not second
    assert encode_result(first) == encode_result(second)
