"""A PEP 562 lazy hub: each export loads only its own module."""


def __getattr__(name):
    if name == "fast":
        from .fast import fast
    elif name == "slow":
        from .slow import slow
    else:
        raise AttributeError(name)
    loaded = {key: value for key, value in locals().items() if key != "name"}
    globals().update(loaded)
    return loaded[name]
