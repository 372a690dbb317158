"""Observability layer: metrics registry, one sim-time sampler
(telemetry and the Figure-3 phase set), the profiles built from it, and
report rendering."""

from typing import Any, List

__all__ = [
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "Profile",
    "PROFILE_SCHEMA",
    "STATIONS",
    "TS_SCHEMA",
    "TimeSeriesSampler",
    "build_profile",
    "probe_phases",
    "render_dash",
    "render_dash_html",
    "render_openmetrics",
    "render_profiles",
    "render_profiles_html",
    "render_timeline",
    "render_utilization",
    "sparkline",
    "telemetry_brief",
]


def __getattr__(name: str) -> Any:
    # PEP 562: an export loads its module on first use; each branch is
    # a literal import so the static import graph keeps the edge.
    if name in ("render_dash", "render_dash_html", "sparkline"):
        from .dash import render_dash, render_dash_html, sparkline
    elif name in ("Gauge", "MetricsRegistry"):
        from .metrics import Gauge, MetricsRegistry
    elif name == "render_openmetrics":
        from .openmetrics import render_openmetrics
    elif name in ("PROFILE_SCHEMA", "STATIONS", "Profile", "build_profile",
                  "probe_phases"):
        from .profiler import (PROFILE_SCHEMA, STATIONS, Profile,
                               build_profile, probe_phases)
    elif name in ("render_profiles", "render_profiles_html",
                  "render_timeline", "render_utilization"):
        from .report import (render_profiles, render_profiles_html,
                             render_timeline, render_utilization)
    elif name in ("TS_SCHEMA", "LogHistogram", "TimeSeriesSampler",
                  "telemetry_brief"):
        from .timeseries import (TS_SCHEMA, LogHistogram, TimeSeriesSampler,
                                 telemetry_brief)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = {key: value for key, value in locals().items() if key != "name"}
    globals().update(loaded)
    return loaded[name]


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
