"""The ``repro dash`` dashboard: sparklines, hot nodes, phase overlay.

One screen answers the telemetry pipeline's motivating question —
*which node, when* — for a finished sampled run:

* per metric, an ASCII **sparkline** of the per-slice maximum over
  nodes (downsampled to the terminal width by
  :func:`~repro.obs.report.columns`, like the phase strips);
* a **top-k hot-node table** ranked by total (counters) or mean level
  (gauges), plus the max/median skew line that makes one hot KV shard
  among 1023 idle nodes readable at a glance;
* optionally, a **phase overlay** strip from the profile of the same
  sampled run (the phase set, :func:`~repro.obs.probe_phases`), so a
  queue-depth spike lines up with the barrier (or lock) phase that
  caused it.

:func:`render_dash_html` emits the same content as a dependency-free
HTML page (inline styles, no scripts) for the CI artifact.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .report import bucket_strip, columns
from .timeseries import TimeSeriesSampler

__all__ = ["sparkline", "render_dash", "render_dash_html"]

#: eight levels, empty to full.
SPARK_CHARS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 64) -> str:
    """Max-pooled downsampling of ``values`` into ``width`` glyphs,
    scaled against the global maximum (all-zero input renders flat)."""
    if not values:
        return ""
    peak = max(values)
    out = []
    for lo, hi in columns(len(values), width):
        v = max(values[lo:hi])
        if peak <= 0:
            out.append(SPARK_CHARS[0])
        else:
            level = int(round(v / peak * (len(SPARK_CHARS) - 2)))
            out.append(SPARK_CHARS[1 + max(level, 0)]
                       if v > 0 else SPARK_CHARS[0])
    return "".join(out)


def _phase_strip(profile, width: int) -> Optional[str]:
    """Dominant bucket letter per column, summed over ranks."""
    if profile is None or not profile.slices:
        return None
    return bucket_strip([s["ranks"] for s in profile.slices], width)


def _fmt_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e12:
        return str(int(v))
    return f"{v:.2f}"


def _skew_line(skew: dict) -> str:
    ratio = skew.get("ratio")
    label = "inf" if ratio is None else f"{ratio:.1f}x"
    return (f"skew max/median: {label} "
            f"(max {_fmt_value(skew.get('max', 0.0))}, "
            f"median {_fmt_value(skew.get('median', 0.0))})")


def _metric_blocks(sampler: TimeSeriesSampler, top_k: int,
                   width: int) -> List[dict]:
    """Per-metric render model shared by the ASCII and HTML views."""
    blocks = []
    for metric in sampler.metrics():
        times, _sums, maxima, _argmax = sampler.series(metric)
        series = sampler._series[metric]
        per_node = any(n is not None for n in series.tracks)
        block = {
            "metric": metric,
            "kind": series.kind,
            "what": "total" if series.kind == "counter" else "mean level",
            "spark": sparkline(maxima, width),
            "samples": len(times),
            "peak": max(maxima) if maxima else 0.0,
            "top": sampler.top_nodes(metric, top_k) if per_node else [],
            "skew": sampler.skew(metric) if per_node else None,
        }
        blocks.append(block)
    return blocks


def render_dash(sampler: TimeSeriesSampler, profile=None,
                title: str = "telemetry", top_k: int = 8,
                width: int = 64) -> str:
    """The ASCII dashboard for one sampled run."""
    if not sampler.metrics():
        return "(no telemetry: no probes registered)"
    t0 = sampler.times[0] if sampler.times else 0.0
    t1 = sampler.times[-1] if sampler.times else 0.0
    lines = [f"{title} — {len(sampler.times)} samples @ "
             f"{sampler.cadence_us * sampler._stride:g} us, "
             f"window {t0 / 1000:.1f}..{t1 / 1000:.1f} ms"]
    overlay = _phase_strip(profile, width)
    if overlay:
        lines.append("")
        lines.append(f"  {'phase':16s} {overlay}")
        lines.append(f"  {'':16s} (C=compute D=data L=lock A=acqrel "
                     "B=barrier)")
    for block in _metric_blocks(sampler, top_k, width):
        lines.append("")
        lines.append(f"  {block['metric']:16s} {block['spark']}")
        detail = (f"per-slice max, peak "
                  f"{_fmt_value(block['peak'])}")
        if block["skew"] is not None:
            detail += "; " + _skew_line(block["skew"])
        lines.append(f"  {'':16s} {detail}")
        if block["top"]:
            ranked = "  ".join(
                f"n{node}={_fmt_value(value)}"
                for node, value in block["top"])
            lines.append(f"  {'':16s} hot nodes ({block['what']}): "
                         f"{ranked}")
    return "\n".join(lines)


def render_dash_html(sampler: TimeSeriesSampler, profile=None,
                     title: str = "telemetry", top_k: int = 8,
                     width: int = 96) -> str:
    """Dependency-free HTML dashboard (inline styles, no scripts)."""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{title}</title>",
        "<style>body{font-family:sans-serif;margin:2em}"
        "pre.spark{font-size:18px;line-height:1;margin:2px 0}"
        "table{border-collapse:collapse;margin:4px 0 1em}"
        "td,th{border:1px solid #999;padding:2px 8px;text-align:right}"
        "h3{margin-bottom:2px}.meta{color:#555}</style></head><body>",
        f"<h1>{title}</h1>",
    ]
    t0 = sampler.times[0] if sampler.times else 0.0
    t1 = sampler.times[-1] if sampler.times else 0.0
    parts.append(
        f"<p class='meta'>{len(sampler.times)} samples @ "
        f"{sampler.cadence_us * sampler._stride:g} us sim time, window "
        f"{t0 / 1000:.1f}&ndash;{t1 / 1000:.1f} ms</p>")
    overlay = _phase_strip(profile, width)
    if overlay:
        parts.append("<h3>phase</h3>")
        parts.append(f"<pre class='spark'>{overlay}</pre>")
        parts.append("<p class='meta'>C=compute D=data L=lock "
                     "A=acqrel B=barrier</p>")
    for block in _metric_blocks(sampler, top_k, width):
        parts.append(f"<h3>{block['metric']}</h3>")
        parts.append(f"<pre class='spark'>{block['spark']}</pre>")
        detail = (f"per-slice max, peak {_fmt_value(block['peak'])} "
                  f"({block['kind']})")
        if block["skew"] is not None:
            detail += "; " + _skew_line(block["skew"])
        parts.append(f"<p class='meta'>{detail}</p>")
        if block["top"]:
            parts.append("<table><tr><th>hot node</th>"
                         f"<th>{block['what']}</th></tr>")
            for node, value in block["top"]:
                parts.append(f"<tr><td>{node}</td>"
                             f"<td>{_fmt_value(value)}</td></tr>")
            parts.append("</table>")
    parts.append("</body></html>")
    return "".join(parts)
