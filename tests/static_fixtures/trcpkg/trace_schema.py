"""Declared trace schema for the fixture package."""


def family(name, fields=(), required=None, variadic=False, doc=""):
    return (name, tuple(fields),
            tuple(required if required is not None else fields),
            variadic, doc)


FAMILIES = (
    family("fault.read", fields=("rank", "gid")),
    family("span.begin", fields=("sid", "name", "extra"),
           required=("sid", "name"), variadic=True),
    family("clock.advance", fields=("node", "clock")),
    family("retx.ack", fields=("node", "msg", "dst")),
)
