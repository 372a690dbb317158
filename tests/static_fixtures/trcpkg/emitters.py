"""Trace emit sites: clean ones plus seeded TRC violations."""


class GuardedEmitter:
    def __init__(self, sim, tracer=None):
        self.sim = sim
        self.tracer = tracer

    def _trace(self, category, **fields):
        if self.tracer is not None:
            self.tracer.record(self.sim.now, category, **fields)

    def ok(self, rank, gid):
        self._trace("fault.read", rank=rank, gid=gid)

    def unknown_category(self):
        # TRC001: "fault.raed" is not a declared family
        self._trace("fault.raed", rank=0, gid=1)

    def missing_field(self):
        # TRC002: required field gid absent
        self._trace("fault.read", rank=0)

    def extra_field(self):
        # TRC002: clock.advance is not variadic, "want" undeclared
        self._trace("clock.advance", node=0, clock=1.0, want=2.0)

    def misspelled_field(self):
        # TRC002: "dts" for required "dst" is both missing and undeclared
        if self.tracer is not None:
            self.tracer.append(self.sim.now, "retx.ack",
                               {"node": 0, "msg": 1, "dts": 2})

    def variadic_ok(self):
        self._trace("span.begin", sid=1, name="x", custom="fine")

    def unguarded(self, sim):
        # TRC003: self.tracer may be None, no guard
        self.tracer.record(sim.now, "fault.read", rank=0, gid=1)

    def guarded_direct(self, sim):
        if self.tracer is not None:
            self.tracer.record(sim.now, "fault.read", rank=0, gid=2)


class MandatoryEmitter:
    """tracer is never None here: direct calls need no guard."""

    def __init__(self, tracer):
        self.tracer = tracer

    def emit(self, sim):
        self.tracer.record(sim.now, "clock.advance", node=0, clock=1.0)
