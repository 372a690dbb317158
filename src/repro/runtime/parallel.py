"""Parallel grid execution over a persistent content-addressed run cache.

The paper's evaluation is a grid — applications x the ``Base -> DW ->
DW+RF -> DW+RF+DD -> GeNIMA`` ladder (x node counts x fault configs) —
and every cell is an independent, deterministic simulation.  This
module moves the repeated work off the critical path twice over:

* :class:`GridExecutor` fans cells out across a ``multiprocessing``
  worker pool (spawn context, so workers share nothing with the parent
  but the pickled :class:`CellSpec`), and
* :class:`ResultStore` persists every evaluated cell under a
  content-addressed key, so a cell whose inputs have not changed is
  never recomputed — not in this process, not in the next one, and
  not twice by processes sharing the store at once.

**Keying.**  A cell's digest is the SHA-256 of the canonical JSON of
its full description: kind, application name, canonicalized
constructor params (dicts sorted, tuples/lists normalized),
:class:`~repro.svm.features.ProtocolFeatures`,
:class:`~repro.hw.config.MachineConfig` (which embeds the
:class:`~repro.hw.config.FaultConfig`, seeds included), plus a *code
fingerprint* — the package version hashed together with the sources
listed in :data:`FINGERPRINT_MODULES`, every module a cell can import.
Editing one of them invalidates the whole store automatically; editing
anything else (docs, the CLI, the figure and table renderers, the
experiment cache, the dashboards, the linters) keeps it warm.

**Determinism.**  The simulator guarantees byte-identical results per
cell; the executor adds two rules so the *grid* inherits that
guarantee: results are merged by digest, never by completion order,
and every evaluation path (in-process, worker pool, cache hit) yields
the result through the same JSON encode/decode round trip, so
``--jobs 1``, ``--jobs N`` and warm-cache reruns are bit-identical.

Store layout (see docs/performance.md)::

    <root>/v<schema>/<digest[:2]>/<digest>.json

with ``<root>`` from the constructor, ``$REPRO_CACHE_DIR``, or
``~/.cache/repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..hw import MachineConfig
from ..svm import ProtocolFeatures
from .results import RunResult

__all__ = [
    "STORE_SCHEMA",
    "canonical",
    "canonical_json",
    "code_fingerprint",
    "CellSpec",
    "evaluate_cell",
    "encode_result",
    "decode_result",
    "decode_payload",
    "make_envelope",
    "ResultStore",
    "GridExecutor",
]

#: store schema version: bump on any breaking change to the payload
#: encoding (participates in every digest, so old entries become
#: unreachable rather than misread).
STORE_SCHEMA = 1

#: every module a cell can import, relative to the package root: the
#: sources :func:`code_fingerprint` hashes.  Editing a module not listed
#: here (a renderer, a driver, a linter) keeps every stored cell warm.
#: The FPR lint (``repro lint``) holds this tuple equal to the import
#: closure of this module: after adding an import it names the missing
#: entry (FPR001), after removing one the stale entry (FPR002).  Kept
#: sorted, the order the fingerprint hashes them in.
FINGERPRINT_MODULES = (
    "__init__.py",
    "analysis/__init__.py", "analysis/critpath.py", "analysis/invariants.py",
    "apps/__init__.py", "apps/barnes.py", "apps/base.py", "apps/datacenter.py",
    "apps/fft.py", "apps/lu.py", "apps/ocean.py", "apps/radix.py",
    "apps/tasks.py", "apps/water.py",
    "experiments/__init__.py", "experiments/critpath.py",
    "experiments/profile.py",
    "faults/__init__.py", "faults/injector.py", "faults/reliable.py",
    "hw/__init__.py", "hw/config.py", "hw/machine.py", "hw/network.py",
    "hw/nic.py", "hw/node.py", "hw/packet.py", "hw/topology.py",
    "hwdsm/__init__.py", "hwdsm/origin.py",
    "obs/__init__.py", "obs/metrics.py", "obs/profiler.py",
    "obs/timeseries.py",
    "runtime/__init__.py", "runtime/backends.py", "runtime/context.py",
    "runtime/parallel.py", "runtime/results.py", "runtime/runner.py",
    "sim/__init__.py", "sim/engine.py", "sim/resources.py", "sim/spans.py",
    "sim/stats.py", "sim/trace.py", "sim/trace_schema.py",
    "svm/__init__.py", "svm/barriers.py", "svm/diffs.py", "svm/features.py",
    "svm/locks.py", "svm/mprotect.py", "svm/pages.py", "svm/protocol.py",
    "svm/timestamps.py",
    "vmmc/__init__.py", "vmmc/api.py", "vmmc/lockqueue.py", "vmmc/locks.py",
    "vmmc/monitor.py",
)


# --------------------------------------------------------------- canonical


#: exact types that canonicalize to themselves (the common case, so it
#: is tested first; subclasses of them take the ``isinstance`` path).
_PLAIN = frozenset((str, int, float, bool, type(None)))


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """``cls``'s dataclass field names, or None for a non-dataclass.
    Cached by the class itself, never by a value."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls))


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-serializable structure.

    Dataclasses become tagged dicts, dict keys are stringified and
    sorted, tuples/lists become lists, sets become sorted lists —
    so two values that compare equal canonicalize identically,
    regardless of dict insertion order or tuple-vs-list spelling.
    This is the one true keying path: every cache key in the project
    must go through here (plain ``tuple(sorted(params.items()))``
    keying breaks on dict/list-valued params).
    """
    cls = type(obj)
    if cls in _PLAIN:
        return obj
    names = _field_names(cls)
    if names is not None:
        out = {"__dataclass__": cls.__name__}
        for name in names:
            out[name] = canonical(getattr(obj, name))
        return out
    if isinstance(obj, dict):
        items = sorted(((str(k), canonical(v)) for k, v in obj.items()),
                       key=lambda kv: kv[0])
        return dict(items)
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical(x) for x in obj),
                      key=lambda x: json.dumps(x, sort_keys=True))
    if isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} value {obj!r} "
        f"for cache keying")


def canonical_json(obj: Any) -> str:
    """Canonical JSON text for ``obj`` (stable across processes)."""
    return json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":"))


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the package version plus the :data:`FINGERPRINT_MODULES`
    sources.

    Cached per process: the sources cannot change under a running
    simulation, and hashing them on every digest would dominate cache
    lookups.
    """
    import repro
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    digest.update(repro.__version__.encode())
    for rel in FINGERPRINT_MODULES:
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update((root / rel).read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------- cells


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: everything needed to (re)produce one result.

    ``kind`` selects the evaluation recipe:

    * ``"svm"``      — :func:`repro.runtime.run_svm` under ``features``
    * ``"seq"``      — the uniprocessor baseline
    * ``"origin"``   — the hardware-DSM yardstick (``nprocs``)
    * ``"profile"``  — a profiled run (``slice_us``), yields a
      :class:`~repro.obs.Profile`
    * ``"critpath"`` — a spanned run, yields a
      :class:`~repro.experiments.CritpathRun` (without its tracer:
      Perfetto export needs a live run)

    Instances must stay picklable (spawn workers receive them) and
    fully canonicalizable (digests are derived from them).
    """

    kind: str
    app: str
    params: Dict[str, Any] = field(default_factory=dict)
    features: Optional[ProtocolFeatures] = None
    config: Optional[MachineConfig] = None
    nprocs: Optional[int] = None      # origin cells
    slice_us: Optional[float] = None  # profile cells
    check: bool = False               # profile/critpath cells
    #: svm cells: attach a TimeSeriesSampler at this cadence and store
    #: its summary in the result (None == unsampled, the default).
    telemetry_us: Optional[float] = None

    def digest(self, fingerprint: Optional[str] = None) -> str:
        """Content address of this cell under the current sources."""
        return hashlib.sha256(canonical_json(
            _keyed(self, fingerprint)).encode()).hexdigest()


def _keyed(spec: CellSpec, fingerprint: Optional[str]) -> dict:
    """What a cell's digest covers, with the spec itself as ``cell``:
    one :func:`canonical` walk reduces the whole of it."""
    return {"schema": STORE_SCHEMA,
            "fingerprint": fingerprint or code_fingerprint(),
            "cell": spec}


def _make_app(spec: CellSpec):
    from ..apps import APP_REGISTRY
    cls = APP_REGISTRY[spec.app]
    return cls(**spec.params) if spec.params else cls()


def evaluate_cell(spec: CellSpec) -> dict:
    """Evaluate one cell and return its JSON-safe store payload.

    Runs in worker processes (spawn) as well as in-process; everything
    it returns must survive ``json.dumps``/``loads`` losslessly, and it
    must not touch the persistent store (the parent is the only
    writer).
    """
    # Imported lazily: this module is part of repro.runtime, and the
    # app/experiment layers import the runtime at module load.
    from .runner import run_hwdsm, run_sequential, run_svm
    app = _make_app(spec)
    if spec.kind == "svm":
        telemetry = None
        if spec.telemetry_us is not None:
            from ..obs import TimeSeriesSampler
            telemetry = TimeSeriesSampler(cadence_us=spec.telemetry_us)
        result = run_svm(app, spec.features, config=spec.config,
                         telemetry=telemetry)
        return {"kind": "svm", "result": encode_result(result)}
    if spec.kind == "seq":
        result = run_sequential(app, config=spec.config)
        return {"kind": "seq", "result": encode_result(result)}
    if spec.kind == "origin":
        from ..hwdsm import HWDSMConfig
        result = run_hwdsm(app, config=HWDSMConfig(nprocs=spec.nprocs))
        return {"kind": "origin", "result": encode_result(result)}
    if spec.kind == "profile":
        from ..experiments.profile import collect_profile
        profile = collect_profile(app, spec.features, config=spec.config,
                                  slice_us=spec.slice_us, check=spec.check)
        return {"kind": "profile", "profile": profile.to_dict()}
    if spec.kind == "critpath":
        from ..experiments.critpath import collect_critpath
        run = collect_critpath(app, spec.features, config=spec.config,
                               check=spec.check)
        return {"kind": "critpath", "variant": run.variant,
                "path": run.path.to_dict(),
                "result": encode_result(run.result)}
    raise ValueError(f"unknown cell kind {spec.kind!r}")


# ----------------------------------------------------------- (de)coding


def encode_result(result: RunResult) -> dict:
    """JSON-safe encoding of a :class:`RunResult` (lossless: floats
    round-trip exactly through JSON's shortest-repr encoding)."""
    return {
        "app": result.app,
        "system": result.system,
        "nprocs": result.nprocs,
        "time_us": result.time_us,
        "wall_us": list(result.wall_us),
        "buckets": [b.as_dict() for b in result.buckets],
        "barrier_protocol_us": list(result.barrier_protocol_us),
        "mprotect_us": result.mprotect_us,
        "stats": dict(result.stats),
        "monitor_small": result.monitor_small,
        "monitor_large": result.monitor_large,
        "telemetry": result.telemetry,
    }


def decode_result(data: dict) -> RunResult:
    """Inverse of :func:`encode_result`."""
    from ..sim import TimeBuckets
    return RunResult(
        app=data["app"],
        system=data["system"],
        nprocs=data["nprocs"],
        time_us=data["time_us"],
        wall_us=list(data["wall_us"]),
        buckets=[TimeBuckets.from_dict(b) for b in data["buckets"]],
        barrier_protocol_us=list(data["barrier_protocol_us"]),
        mprotect_us=data["mprotect_us"],
        stats=dict(data["stats"]),
        monitor_small=data["monitor_small"],
        monitor_large=data["monitor_large"],
        telemetry=data.get("telemetry"),
    )


def decode_payload(payload: dict):
    """Store payload -> live object (RunResult / Profile / CritpathRun).

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
    payloads; :meth:`GridExecutor.resolve` treats any of those as a cache
    miss and recomputes.
    """
    kind = payload["kind"]
    if kind in ("svm", "seq", "origin"):
        return decode_result(payload["result"])
    if kind == "profile":
        from ..obs import Profile
        return Profile.from_payload(payload["profile"])
    if kind == "critpath":
        from ..analysis.critpath import CriticalPath
        from ..experiments.critpath import CritpathRun
        return CritpathRun(variant=payload["variant"],
                           result=decode_result(payload["result"]),
                           path=CriticalPath.from_dict(payload["path"]),
                           tracer=None)
    raise ValueError(f"unknown payload kind {kind!r}")


def make_envelope(spec: CellSpec, payload: dict,
                  fingerprint: Optional[str] = None) -> dict:
    """The store envelope for one evaluated cell.

    One shape for every writer, so any process sharing a store can
    read any other's entries.
    """
    envelope = canonical(_keyed(spec, fingerprint))
    envelope["payload"] = payload
    return envelope


# ------------------------------------------------------------------ store


class ResultStore:
    """Persistent content-addressed store of evaluated cells.

    One JSON file per cell under ``<root>/v<schema>/``; writes are
    atomic (temp file + ``os.replace``), reads tolerate arbitrary
    corruption by reporting a miss.  The root resolves, in order:
    explicit ``root`` argument, ``$REPRO_CACHE_DIR``, then
    ``~/.cache/repro``.

    **Concurrent writers.**  Processes sharing one root single-flight
    through per-digest ``O_CREAT|O_EXCL`` lockfile claims
    (:meth:`claim`/:meth:`release`): :class:`GridExecutor` claims a
    miss before evaluating it, and waits for the holder's entry when
    another process holds the claim.  A claim older than
    ``lock_stale_s`` is presumed orphaned (killed holder) and broken.
    Content addressing over a deterministic simulator makes every
    writer's bytes identical, so a broken claim whose holder was still
    alive costs a duplicate computation, never a wrong entry.
    """

    #: a lockfile older than this is an orphan and may be broken.
    lock_stale_s: float = 300.0

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro")
        self.root = Path(root)
        self.version_dir = self.root / f"v{STORE_SCHEMA}"

    def path_for(self, digest: str) -> Path:
        return self.version_dir.joinpath(digest[:2], f"{digest}.json")

    def load(self, digest: str) -> Optional[dict]:
        """The stored payload envelope for ``digest``, or None.

        Any way an entry can be bad — unreadable, truncated, not JSON,
        wrong schema, not written by this store — reads as a miss,
        never an exception: a corrupted cache must only ever cost a
        recompute.
        """
        try:
            text = self.path_for(digest).read_text()
        except OSError:
            return None
        try:
            envelope = json.loads(text)
        except ValueError:
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("schema") != STORE_SCHEMA
                or not isinstance(envelope.get("payload"), dict)):
            return None
        return envelope

    def lock_path(self, digest: str) -> Path:
        return self.version_dir.joinpath(digest[:2], f"{digest}.lock")

    def claim(self, digest: str) -> Optional[int]:
        """Take the per-digest claim and return its file descriptor, or
        None while another writer holds it.  A claim older than
        ``lock_stale_s`` is presumed orphaned (killed holder) and is
        broken once and re-tried."""
        lock = self.lock_path(digest)
        lock.parent.mkdir(parents=True, exist_ok=True)
        for attempt in (0, 1):
            try:
                return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt:
                    return None
                try:
                    # Wall time here ages an OS lockfile, not simulated
                    # state; mtimes are wall-clock by nature.
                    age = time.time() - os.stat(lock).st_mtime  # repro: noqa[wall-clock] — lockfile staleness is wall-clock by nature
                except OSError:
                    continue  # holder just released it: retry the claim
                if age < self.lock_stale_s:
                    return None
                try:
                    os.unlink(lock)  # break the orphaned claim
                except OSError:
                    pass
        return None

    def release(self, digest: str, fd: int) -> None:
        """Drop a claim taken by :meth:`claim`.  The lockfile is removed
        only while it is still this holder's (same inode): a claim that
        was broken as stale and re-taken belongs to its new holder."""
        lock = self.lock_path(digest)
        try:
            if os.path.samestat(os.fstat(fd), os.stat(lock)):
                os.unlink(lock)
        except OSError:
            pass  # already broken and gone: nothing of ours to remove
        finally:
            os.close(fd)

    def store(self, digest: str, envelope: dict) -> None:
        """Atomically persist ``envelope`` under ``digest`` (temp file
        + ``os.replace``: readers see the old entry or the new one,
        never a torn write).  The writer holds the digest's claim."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(envelope, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def entries(self) -> Iterator[Tuple[str, dict]]:
        """Iterate ``(digest, envelope)`` over all readable entries,
        in sorted digest order (for ``wipe``-safe inspection)."""
        if not self.version_dir.is_dir():
            return
        for path in sorted(self.version_dir.glob("*/*.json")):
            envelope = self.load(path.stem)
            if envelope is not None:
                yield path.stem, envelope

    def __len__(self) -> int:
        if not self.version_dir.is_dir():
            return 0
        return sum(1 for _ in self.version_dir.glob("*/*.json"))

    def wipe(self) -> None:
        """Delete every entry of this schema version."""
        shutil.rmtree(self.version_dir, ignore_errors=True)




# --------------------------------------------------------------- executor

#: seconds between polls for a cell another process is computing.
POLL_S = 0.05


class GridExecutor:
    """Evaluate grid cells concurrently, through the store when given.

    :meth:`resolve` is the API: ``{digest: spec}`` in,
    ``{digest: live object}`` out (``ExperimentCache.run`` digests the
    specs).  It is order-independent: the result is keyed by content
    digest, and every value passes through the same JSON round trip
    wherever it was computed.

    **Single-flight.**  With a store, executors in any number of
    processes sharing it compute each digest once between them.  A
    miss is claimed (:meth:`ResultStore.claim`) before it is
    evaluated, and re-read once the claim is won, since a writer may
    have finished between lookup and claim.  A miss whose claim
    another process holds is deferred; once its own cells are done the
    executor polls for the holder's entry.  If that claim disappears
    with no entry written (the holder raised) or goes stale (a killed
    holder),
    the waiter claims the cell and computes it itself, so the wait is
    bounded by ``ResultStore.lock_stale_s``.  At ``jobs > 1`` the
    parent takes the claims and writes the entries; pool workers only
    evaluate.

    ``jobs`` must be at least 1.  It is clamped to the host's CPU
    count: on an oversubscribed box the extra spawn workers only add
    scheduling overhead, on top of the fresh interpreter each one
    starts (perfbench's ``setup_s``, about 0.1 s).
    """

    def __init__(self, jobs: int = 1,
                 store: Optional[ResultStore] = None):
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError(f"jobs must be an integer at least 1, "
                             f"got {jobs!r}")
        self.jobs = min(jobs, os.cpu_count() or 1)
        self.store = store

    def resolve(self, cells: Dict[str, CellSpec]) -> Dict[str, object]:
        """The value of every cell: ``cells`` maps each digest to its
        spec, the result maps each digest to its live object."""
        out: Dict[str, object] = {}
        todo = [digest for digest in cells if not self._read(digest, out)]
        while True:
            todo = self._compute(todo, cells, out)
            if not todo:
                return {digest: out[digest] for digest in cells}
            time.sleep(POLL_S)
            todo = [digest for digest in todo
                    if not self._read(digest, out)]

    def _read(self, digest: str, out: Dict[str, object]) -> bool:
        """Decode ``digest``'s store entry into ``out``.  False on a
        miss; a corrupt entry is a miss, recomputed and healed."""
        envelope = (self.store.load(digest)
                    if self.store is not None else None)
        if envelope is None:
            return False
        try:
            out[digest] = decode_payload(envelope["payload"])
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def _compute(self, todo: List[str], cells: Dict[str, CellSpec],
                 out: Dict[str, object]) -> List[str]:
        """Evaluate and persist every digest of ``todo`` whose claim
        this executor wins; return the ones another writer holds."""
        held: List[str] = []
        claims: Dict[str, int] = {}
        payloads = self._evaluate(todo, cells, claims, held, out)
        try:
            for digest, payload in payloads:
                if self.store is not None:
                    self.store.store(digest, make_envelope(
                        cells[digest], payload))
                    self.store.release(digest, claims.pop(digest))
                out[digest] = decode_payload(payload)
        finally:
            payloads.close()
            if self.store is not None:
                # A raising evaluation must not leave its claims to go
                # stale: waiters take them over at once.
                for digest, fd in claims.items():
                    self.store.release(digest, fd)
        return held

    def _evaluate(self, todo: List[str], cells: Dict[str, CellSpec],
                  claims: Dict[str, int], held: List[str],
                  out: Dict[str, object]) -> Iterator[Tuple[str, dict]]:
        """``(digest, payload)`` for each digest of ``todo`` that this
        executor claims, in ``todo`` order.  In-process, a cell is
        claimed just before it is evaluated, so processes sharing a
        store interleave over one grid; a pool's cells are all claimed
        up front by the parent."""
        if self.jobs <= 1 or len(todo) <= 1:
            for digest in todo:
                if self._claim(digest, claims, held, out):
                    yield digest, evaluate_cell(cells[digest])
            return
        mine = [digest for digest in todo
                if self._claim(digest, claims, held, out)]
        if len(mine) <= 1:
            yield from ((d, evaluate_cell(cells[d])) for d in mine)
            return
        import multiprocessing
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=min(self.jobs, len(mine))) as pool:
            # imap yields in input order, so digests pair with their
            # own payloads no matter which worker finished first.
            yield from zip(mine, pool.imap(
                evaluate_cell, [cells[d] for d in mine], chunksize=1))

    def _claim(self, digest: str, claims: Dict[str, int],
               held: List[str], out: Dict[str, object]) -> bool:
        """Whether this executor must evaluate ``digest``: True once it
        holds the claim (recorded in ``claims``).  A digest another
        writer holds goes to ``held``; one whose entry was written
        between lookup and claim goes to ``out``."""
        if self.store is None:
            return True
        fd = self.store.claim(digest)
        if fd is None:
            held.append(digest)
            return False
        if self._read(digest, out):
            self.store.release(digest, fd)
            return False
        claims[digest] = fd
        return True
