"""FPR001: reachable from the cache entry point, not listed."""


def render(result):
    return {"value": result}
