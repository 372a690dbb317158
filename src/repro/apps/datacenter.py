"""Datacenter workloads for the scaled (256–1024 node) machine model.

The SPLASH-2 programs exercise the protocol the way 1999's scientific
codes did: tight barriers, all-to-all phases, every rank equally busy.
Datacenter services stress the same mechanisms differently — shallow
request/response chains, skewed key popularity, open-loop arrivals
whose rate does not slow down when the service does.  Three models:

* :class:`ShardedKVStore` — a get/put key-value cell.  Keys live in
  page-granularity shards homed round the cluster (blocked homes = the
  shard map); a get fetches the shard page, a put locks the shard and
  writes it.  Skewed popularity concentrates traffic on hot shards,
  the datacenter analogue of Barnes's hot locks.
* :class:`ParameterServer` — synchronous data-parallel training.
  Parameter shards are homed across the cluster (the "servers");
  each step every worker fetches a bounded fan-out of parameter
  pages, computes, pushes its gradient slice as diffs to the shard
  homes, and barriers.  Fetch = remote page fetch, push = diff flush:
  the two halves of the paper's data-wait story at datacenter scale.
* :class:`OpenLoop` — a pure open-loop request generator.  Arrival
  times are **pre-drawn** from the arrival process, independent of
  service progress, so offered load is fixed even when the cell slows
  down — the property closed-loop SPLASH-style driving cannot model.

Millions of users are modelled in aggregate: the superposition of many
independent, individually-sparse user streams converges to a Poisson
process (Palm–Khintchine), so one exponential-gap arrival stream per
rank with the aggregate rate stands in for the user population.
Every random draw comes from ``random.Random(seed * 1000003 + rank)``
(the per-node seeding idiom of :mod:`repro.hw.node`), keeping runs
byte-deterministic.
"""

from __future__ import annotations

import math
import random
from typing import List

from .base import Application, pages_for_bytes, register

__all__ = ["ArrivalProcess", "ShardedKVStore", "ParameterServer",
           "OpenLoop"]

#: per-rank RNG stride, matching repro.hw.node's per-node seeding.
_SEED_STRIDE = 1000003


def _check_rate(rate_per_us: float) -> None:
    # Written so that NaN fails too: ``nan <= 0`` is false.
    if not (math.isfinite(rate_per_us) and rate_per_us > 0):
        raise ValueError(
            f"rate_per_us must be finite and > 0, got {rate_per_us!r}")


class ArrivalProcess:
    """Pre-drawn open-loop arrival times for one request stream.

    ``poisson`` draws exponential inter-arrival gaps (the aggregate of
    a large user population); ``deterministic`` paces arrivals on an
    exact period (load testers, cron fleets).  All times are drawn at
    construction, so the schedule is fixed before service begins —
    that independence is what makes the load *open*-loop.
    """

    KINDS = ("poisson", "deterministic")

    def __init__(self, kind: str, rate_per_us: float, count: int,
                 seed: int = 0):
        if kind not in self.KINDS:
            raise ValueError(f"unknown arrival kind {kind!r} "
                             f"(one of {self.KINDS})")
        _check_rate(rate_per_us)
        if count < 0:
            raise ValueError("count must be >= 0")
        self.kind = kind
        self.rate_per_us = rate_per_us
        rng = random.Random(seed)
        gap = 1.0 / rate_per_us
        times: List[float] = []
        t = 0.0
        for _ in range(count):
            t += rng.expovariate(rate_per_us) if kind == "poisson" else gap
            times.append(t)
        self.times = times


class _DatacenterApp(Application):
    """Shared plumbing: per-rank RNGs and open-loop idling."""

    bus_intensity = 0.1  # request handling is branchy, not bandwidth-bound
    seed: int = 0

    def _rng(self, rank: int) -> random.Random:
        return random.Random(self.seed * _SEED_STRIDE + rank)

    @staticmethod
    def _idle_until(ctx, t: float):
        """Generator: advance to simulated time ``t`` doing nothing.

        Idle time is plain waiting (no bus traffic); a rank that is
        already late starts the request immediately — open-loop
        arrivals never stretch.
        """
        gap = t - ctx.backend.sim.now
        if gap > 0:
            yield from ctx.compute(gap, 0.0)


@register
class ShardedKVStore(_DatacenterApp):
    """A sharded get/put key-value cell under skewed load."""

    name = "KVStore"
    paper_params = {}  # post-paper workload: no Table 1 row

    def __init__(self, shards: int = 16, pages_per_shard: int = 4,
                 requests_per_rank: int = 64, put_fraction: float = 0.1,
                 hot_fraction: float = 0.8, hot_shards: int = 2,
                 rate_per_us: float = 0.002, arrivals: str = "poisson",
                 service_us: float = 12.0, seed: int = 0):
        if shards < 1 or pages_per_shard < 1:
            raise ValueError("shards and pages_per_shard must be >= 1")
        if not 0.0 <= put_fraction <= 1.0:
            raise ValueError("put_fraction must be within [0, 1]")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be within [0, 1]")
        if (not isinstance(hot_shards, int) or isinstance(hot_shards, bool)
                or not 0 <= hot_shards <= shards):
            raise ValueError(f"hot_shards must be an integer within "
                             f"[0, shards={shards}], got {hot_shards!r}")
        _check_rate(rate_per_us)
        self.shards = shards
        self.pages_per_shard = pages_per_shard
        self.requests_per_rank = requests_per_rank
        self.put_fraction = put_fraction
        self.hot_fraction = hot_fraction
        self.hot_shards = hot_shards
        self.rate_per_us = rate_per_us
        self.arrivals = arrivals
        self.service_us = service_us
        self.seed = seed

    def setup(self, backend):
        pages = self.shards * self.pages_per_shard
        return {"data": backend.allocate("kv.data", pages,
                                         home_policy="blocked")}

    def _pick_shard(self, rng: random.Random) -> int:
        if self.hot_shards and rng.random() < self.hot_fraction:
            return rng.randrange(self.hot_shards)
        return rng.randrange(self.shards)

    def _shard_page(self, shard: int, rng: random.Random) -> int:
        return shard * self.pages_per_shard \
            + rng.randrange(self.pages_per_shard)

    def init_process(self, ctx, regions):
        # Cold-start: each rank touches one page of every shard it
        # will serve requests against (excluded from timing).
        start, stop = ctx.my_slice(self.shards)
        for shard in range(start, stop):
            yield from ctx.read(regions["data"],
                                [shard * self.pages_per_shard])

    def process(self, ctx, regions):
        rng = self._rng(ctx.rank)
        plan = ArrivalProcess(self.arrivals, self.rate_per_us,
                              self.requests_per_rank,
                              seed=self.seed * _SEED_STRIDE + ctx.rank)
        data = regions["data"]
        for due in plan.times:
            yield from self._idle_until(ctx, due)
            shard = self._pick_shard(rng)
            page = self._shard_page(shard, rng)
            if rng.random() < self.put_fraction:
                # Put: shard lock serializes writers, the dirty page
                # diffs back to the shard's home.
                yield from ctx.lock(shard)
                yield from ctx.read(data, [page])
                yield from ctx.compute(self.service_us)
                yield from ctx.write(data, [page], runs_per_page=2,
                                     bytes_per_page=256)
                yield from ctx.unlock(shard)
            else:
                yield from ctx.read(data, [page])
                yield from ctx.compute(self.service_us)
        yield from ctx.barrier()


@register
class ParameterServer(_DatacenterApp):
    """Synchronous data-parallel training against sharded parameters."""

    name = "ParamServer"
    bus_intensity = 0.6  # gradient math is bandwidth-hungry
    paper_params = {}

    def __init__(self, param_pages: int = 64, steps: int = 8,
                 fetch_fanout: int = 8, compute_us: float = 400.0,
                 seed: int = 0):
        for field, value in (("param_pages", param_pages),
                             ("steps", steps),
                             ("fetch_fanout", fetch_fanout)):
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 1):
                raise ValueError(
                    f"{field} must be an integer >= 1, got {value!r}")
        if fetch_fanout > param_pages:
            raise ValueError(
                f"fetch_fanout must be <= param_pages={param_pages} (a "
                f"step fetches distinct pages), got {fetch_fanout!r}")
        # Written so that NaN fails too.
        if not (math.isfinite(compute_us) and compute_us >= 0):
            raise ValueError(
                f"compute_us must be finite and >= 0, got {compute_us!r}")
        self.param_pages = param_pages
        self.steps = steps
        self.fetch_fanout = fetch_fanout
        self.compute_us = compute_us
        self.seed = seed

    def setup(self, backend):
        return {
            # Blocked homes = the parameter-server shard map.
            "params": backend.allocate("ps.params", self.param_pages,
                                       home_policy="blocked"),
        }

    def init_process(self, ctx, regions):
        start, stop = ctx.my_slice(self.param_pages)
        yield from ctx.read(regions["params"], range(start, stop))

    def process(self, ctx, regions):
        rng = self._rng(ctx.rank)
        params = regions["params"]
        for _ in range(self.steps):
            # Pull: fetch this step's working set from the shard homes.
            fetch = rng.sample(range(self.param_pages), self.fetch_fanout)
            yield from ctx.read(params, sorted(fetch))
            # Compute the gradient.
            yield from ctx.compute(self.compute_us)
            # Push: write this worker's slice; the diffs flush to the
            # shard homes (the "servers") at the barrier release.
            start, stop = ctx.my_slice(self.param_pages)
            if stop > start:
                yield from ctx.write(params, range(start, stop),
                                     runs_per_page=4, bytes_per_page=512)
            yield from ctx.barrier()


@register
class OpenLoop(_DatacenterApp):
    """Open-loop request generator: offered load fixed in advance."""

    name = "OpenLoop"
    paper_params = {}

    def __init__(self, pages: int = 64, requests_per_rank: int = 64,
                 rate_per_us: float = 0.002, arrivals: str = "poisson",
                 service_us: float = 10.0, seed: int = 0):
        if pages < 1:
            raise ValueError("pages must be >= 1")
        _check_rate(rate_per_us)
        self.pages = pages
        self.requests_per_rank = requests_per_rank
        self.rate_per_us = rate_per_us
        self.arrivals = arrivals
        self.service_us = service_us
        self.seed = seed
        #: rank -> (completed, sum of sojourn times) — filled as the
        #: run executes, for latency-vs-load experiments and tests.
        self.sojourn_us = {}

    def setup(self, backend):
        return {"data": backend.allocate("rg.data", self.pages,
                                         home_policy="blocked")}

    def init_process(self, ctx, regions):
        start, stop = ctx.my_slice(self.pages)
        yield from ctx.read(regions["data"], range(start, stop))

    def process(self, ctx, regions):
        rng = self._rng(ctx.rank)
        plan = ArrivalProcess(self.arrivals, self.rate_per_us,
                              self.requests_per_rank,
                              seed=self.seed * _SEED_STRIDE + ctx.rank)
        data = regions["data"]
        done, sojourn = 0, 0.0
        for due in plan.times:
            yield from self._idle_until(ctx, due)
            yield from ctx.read(data, [rng.randrange(self.pages)])
            yield from ctx.compute(self.service_us)
            done += 1
            sojourn += ctx.backend.sim.now - due
        self.sojourn_us[ctx.rank] = (done, sojourn)
        yield from ctx.barrier()
