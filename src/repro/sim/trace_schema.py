"""The declared trace-record schema: one registry for every category.

Every ``tracer.record``/``tracer.append`` call in the simulator must use
a category family declared here with exactly the declared fields; the
static analyzer (:mod:`repro.analysis.static.trc`) checks every call
site against this registry, and the offline tooling (sanitizer,
critical-path extractor, Perfetto exporter) can rely on the field
names without defensive ``get`` chains.

Declarations are *literal on purpose*: the analyzer reads this module
by AST (``family("name", [...])`` calls with constant arguments), so
the registry stays checkable without importing the package under
analysis.  Keep every ``family(...)`` call fully literal.

``variadic`` families carry caller-defined extra fields beyond the
declared ones (the span records forward ``**fields``); for those the
analyzer only checks that literal keywords it can see are not
misspellings of declared fields' names, and that required fields are
present when the call spells its keywords out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

__all__ = ["TraceFamily", "TRACE_SCHEMA", "family"]


@dataclass(frozen=True)
class TraceFamily:
    """Declared shape of one trace category.

    ``fields`` is every field name a record of this family may carry;
    ``required`` is the subset every record must carry.  ``variadic``
    families may carry extra, caller-defined fields on top.
    """

    name: str
    fields: frozenset
    required: frozenset
    variadic: bool = False
    doc: str = ""


def family(name: str, fields: Iterable[str] = (),
           required: Optional[Iterable[str]] = None,
           variadic: bool = False, doc: str = "") -> TraceFamily:
    """Declare one trace family (``required`` defaults to ``fields``)."""
    fset = frozenset(fields)
    req = fset if required is None else frozenset(required)
    if not req <= fset:
        raise ValueError(f"{name}: required fields {sorted(req - fset)} "
                         f"not in declared fields")
    return TraceFamily(name=name, fields=fset, required=req,
                       variadic=variadic, doc=doc)


def _build(*families: TraceFamily) -> Dict[str, TraceFamily]:
    out: Dict[str, TraceFamily] = {}
    for fam in families:
        if fam.name in out:
            raise ValueError(f"duplicate trace family {fam.name!r}")
        out[fam.name] = fam
    return out


#: category -> declared shape.  Grouped by emitting subsystem.
TRACE_SCHEMA: Dict[str, TraceFamily] = _build(
    # ---- SVM protocol core (repro.svm.protocol) ----
    family("fault.read", ["rank", "gid"],
           doc="read page fault taken by a rank"),
    family("fault.fetch", ["node", "gid", "needed", "clock"],
           doc="page fault escalated to a remote fetch"),
    family("fault.done", ["node", "gid"],
           doc="page fault fully serviced"),
    family("fetch.ok", ["node", "gid", "snapshot", "needed"],
           doc="page fetch validated against the home's timestamp"),
    family("fetch.retry", ["node", "gid"],
           doc="stale home copy: the fetch re-issues"),
    family("fetch.retry_exhausted",
           ["node", "gid", "home", "retries", "needed", "snapshot"],
           doc="fetch retry budget exhausted (escalates to interrupt)"),
    family("interval.close",
           ["node", "index", "pages", "written", "clock"],
           doc="logical interval closed at a node"),
    family("diff.flush", ["node", "gid", "home", "runs", "bytes"],
           doc="diff computed and flushed toward a page home"),
    family("home.apply", ["gid", "writer", "index"],
           doc="diff applied at the home copy"),
    family("clock.advance", ["node", "clock", "want"],
           doc="node vector-clock component advanced"),
    family("lock.acquire", ["rank", "lock"],
           doc="application-level lock acquired"),
    family("lock.release", ["rank", "lock"],
           doc="application-level lock released"),
    family("barrier.enter", ["rank", "epoch"],
           doc="rank arrived at a barrier"),
    family("barrier.exit", ["rank", "epoch"],
           doc="rank released from a barrier"),
    family("barrier.epoch", ["epoch", "clock"],
           doc="barrier episode committed at the master"),

    # ---- SVM host-level locks (repro.svm.locks) ----
    family("svmlock.acquire", ["node", "lock", "rank"],
           doc="host lock protocol: acquire issued"),
    family("svmlock.granted", ["node", "lock", "rank"],
           doc="host lock protocol: grant arrived"),
    family("svmlock.release", ["node", "lock", "rank", "queue"],
           doc="host lock protocol: release"),
    family("svmlock.wait", ["node", "lock", "requester", "queue"],
           doc="host lock protocol: request queued at owner"),
    family("svmlock.grant",
           ["node", "lock", "requester", "queue", "present", "held"],
           doc="host lock protocol: owner hands the lock over"),

    # ---- NI firmware locks (repro.vmmc.locks) ----
    family("nilock.acquire", ["node", "lock"],
           doc="NI lock: acquire posted to the firmware"),
    family("nilock.chain", ["home", "lock", "requester", "prev"],
           doc="NI lock: home chained the requester after the tail"),
    family("nilock.wait", ["node", "lock", "requester", "queue"],
           doc="NI lock: forward queued behind the current owner"),
    family("nilock.release", ["node", "lock", "queue"],
           doc="NI lock: host released; token back in the NI"),
    family("nilock.grant",
           ["node", "lock", "requester", "queue", "present", "held"],
           doc="NI lock: token granted to a remote waiter"),
    family("nilock.granted", ["node", "lock"],
           doc="NI lock: token arrived at the requester"),

    # ---- network fabric (repro.hw.network) ----
    family("net.route",
           ["src", "dst", "kind", "size", "hops", "latency_us"],
           doc="packet routed on a non-crossbar topology"),

    # ---- fault injection (repro.faults.injector) ----
    family("fault.drop",
           ["src", "dst", "kind", "msg", "idx", "size",
            "acks_msg", "acker"],
           required=["src", "dst", "kind", "msg", "idx", "size"],
           doc="injected packet loss (ack drops name the acked msg)"),
    family("fault.reorder", ["src", "dst", "kind", "msg", "idx"],
           doc="injected packet reorder (extra latency)"),
    family("fault.dup", ["src", "dst", "kind", "msg", "idx"],
           doc="injected packet duplication"),

    # ---- drop-tolerant transport (repro.faults.reliable) ----
    family("retx.ack", ["node", "msg", "dst"],
           doc="receiver NI acked a completed message"),
    family("retx.timeout",
           ["node", "msg", "dst", "seq", "attempt", "rto"],
           doc="sender watchdog fired for an unacked message"),
    family("retx.resend",
           ["node", "msg", "dst", "idx", "seq", "attempt"],
           doc="packet retransmitted from NI memory"),
    family("retx.exhausted",
           ["node", "msg", "dst", "kind", "seq", "attempts"],
           doc="retransmit budget exhausted (simulation error)"),
    family("retx.dup_discard", ["node", "src", "msg", "idx", "kind"],
           doc="receiver NI discarded an already-processed copy"),

    # ---- causal spans (repro.sim.spans) ----
    family("span.begin", ["sid", "name", "track", "bucket",
                          "parent", "link"],
           required=["sid", "name", "track", "bucket"], variadic=True,
           doc="span opened on a track (carries free-form context)"),
    family("span.end", ["sid", "track"], variadic=True,
           doc="span closed by sid"),
    family("span.flow", ["fid", "kind", "bucket", "track", "src"],
           required=["fid", "kind", "bucket", "track"], variadic=True,
           doc="causal flow source point"),
    family("span.wake", ["fid", "track"], variadic=True,
           doc="causal flow sink point (track unblocked)"),

    # ---- runtime time accounting (repro.runtime.runner) ----
    family("prof.rank", ["rank", "wall_us", "bucket_us", "residual_us"],
           doc="per-rank wall vs bucket-sum residual of a profiled run"),

    # ---- sampled telemetry (repro.obs.timeseries) ----
    family("ts.sample", ["metric", "node", "value"],
           doc="telemetry slice sample: per-metric max over nodes "
               "(node is the argmax; -1 for machine-wide probes)"),
    family("ts.rollup",
           ["metric", "nodes", "count", "mean", "peak", "peak_node"],
           doc="end-of-run telemetry rollup for one sampled metric"),
)

