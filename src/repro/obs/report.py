"""Rendering for profiles: ASCII (terminal) and self-contained HTML.

The ASCII report mirrors the paper's Figure 3: one stacked breakdown
per protocol variant, normalized to the first variant's total (pass the
Base profile first to get the paper's normalization), followed by a
per-rank phase timeline and a per-node station-utilization table.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from ..sim import BUCKETS
from .profiler import STATIONS, Profile

__all__ = ["render_profiles", "render_utilization", "render_timeline",
           "render_profiles_html"]

BAR_WIDTH = 50
#: one letter per Figure-3 bucket, for the timeline strips.
BUCKET_LETTERS = {"compute": "C", "data": "D", "lock": "L",
                  "acqrel": "A", "barrier": "B"}
#: bucket colors for the HTML report (colorblind-safe-ish).
BUCKET_COLORS = {"compute": "#4477aa", "data": "#ee6677",
                 "lock": "#228833", "acqrel": "#ccbb44",
                 "barrier": "#aa3377"}


def columns(n: int, width: int) -> Iterator[Tuple[int, int]]:
    """``[lo, hi)`` index ranges pooling ``n`` slices into at most
    ``width`` columns (every column covers at least one slice)."""
    count = min(width, n)
    per_col = n / count
    for col in range(count):
        lo = int(col * per_col)
        yield lo, max(int((col + 1) * per_col), lo + 1)


def bucket_strip(slices: Sequence[Sequence[Dict[str, float]]],
                 width: int) -> str:
    """The dominant Figure-3 bucket letter per column of ``slices``,
    each a list of bucket dicts (one rank's, or every rank's); ``.``
    where no time accrued (not yet started, or finished)."""
    strip = []
    for lo, hi in columns(len(slices), width):
        agg: Dict[str, float] = dict.fromkeys(BUCKETS, 0.0)
        for group in slices[lo:hi]:
            for buckets in group:
                for name, value in buckets.items():
                    agg[name] += value
        top = max(agg, key=lambda n: agg[n])
        strip.append(BUCKET_LETTERS[top] if agg[top] > 0.0 else ".")
    return "".join(strip)


def _mean_total(profile: Profile) -> float:
    return sum(profile.mean_buckets().values())


def render_profiles(profiles: Sequence[Profile]) -> str:
    """Figure-3-style stacked breakdowns, one block per variant."""
    if not profiles:
        return "(no profiles)"
    norm = _mean_total(profiles[0]) or 1.0
    first = profiles[0]
    lines = [f"{first.app}: execution-time breakdown per variant "
             f"(normalized to {first.system} total, "
             f"{first.nprocs} processors)"]
    for profile in profiles:
        mean = profile.mean_buckets()
        total = sum(mean.values())
        lines.append("")
        lines.append(f"{profile.system:10s} total {total / 1000:10.1f} ms"
                     f"  ({total / norm * 100:5.1f}% of {first.system})"
                     f"   wall {profile.time_us / 1000:.1f} ms")
        for name in BUCKETS:
            value = mean[name]
            frac = value / norm
            bar = "#" * int(round(frac * BAR_WIDTH))
            lines.append(f"  {name:8s} |{bar:<{BAR_WIDTH}s}| "
                         f"{frac * 100:5.1f}%  {value / 1000:10.1f} ms")
        resid = profile.max_residual_us
        status = "ok" if profile.accounting_ok else "VIOLATED"
        lines.append(f"  accounting: sum(buckets) == wall per rank "
                     f"{status} (max residual {resid:.2e} us)")
    return "\n".join(lines)


def render_timeline(profile: Profile, width: int = 64) -> str:
    """Per-rank phase strips (:func:`bucket_strip` of each rank's
    slices, downsampled to ``width`` columns)."""
    slices = profile.slices
    if not slices:
        return "(no timeline: run shorter than one slice)"
    lines = [f"phase timeline (slice {profile.slice_us:g} us, "
             f"{len(slices)} slices, C=compute D=data L=lock "
             f"A=acqrel B=barrier)"]
    for rank in range(profile.nprocs):
        strip = bucket_strip([[s["ranks"][rank]] for s in slices], width)
        lines.append(f"  rank {rank:3d} {strip}")
    return "\n".join(lines)


def render_utilization(profile: Profile) -> str:
    """Per-node busy fractions of the contended stations."""
    # Local import: repro.experiments pulls the experiment cache; only
    # the tiny table formatter is needed here.
    from ..experiments.reporting import format_table
    rows: List[Sequence] = []
    for node_id, util in enumerate(profile.utilization):
        rows.append((str(node_id),)
                    + tuple(util[name] for name in STATIONS))
    return format_table(
        ["node", "host-proto", "lanai", "pci", "link"], rows,
        title=("utilization (busy fraction over the profiled window; "
               "host-proto is the floating protocol processor)"))


def render_profiles_html(profiles: Sequence[Profile]) -> str:
    """A dependency-free HTML page with stacked bars per variant."""
    if not profiles:
        return "<html><body>(no profiles)</body></html>"
    norm = _mean_total(profiles[0]) or 1.0
    first = profiles[0]
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{first.app} profile</title>",
        "<style>body{font-family:sans-serif;margin:2em}"
        ".bar{display:flex;height:26px;margin:2px 0;width:640px;"
        "background:#f2f2f2}"
        ".seg{height:100%}"
        "table{border-collapse:collapse;margin:1em 0}"
        "td,th{border:1px solid #999;padding:3px 8px;text-align:right}"
        ".legend span{display:inline-block;margin-right:1em}"
        ".swatch{display:inline-block;width:12px;height:12px;"
        "margin-right:4px}</style></head><body>",
        f"<h1>{first.app}: execution-time breakdown per variant</h1>",
        f"<p>Normalized to {first.system} total "
        f"({first.nprocs} processors). Reproduces Figure 3.</p>",
        "<div class='legend'>",
    ]
    for name in BUCKETS:
        parts.append(f"<span><span class='swatch' style='background:"
                     f"{BUCKET_COLORS[name]}'></span>{name}</span>")
    parts.append("</div>")
    for profile in profiles:
        mean = profile.mean_buckets()
        total = sum(mean.values())
        parts.append(f"<h3>{profile.system} &mdash; "
                     f"{total / 1000:.1f} ms "
                     f"({total / norm * 100:.1f}% of {first.system})</h3>")
        parts.append("<div class='bar'>")
        for name in BUCKETS:
            pct = mean[name] / norm * 100
            parts.append(
                f"<div class='seg' title='{name}: {pct:.1f}%' "
                f"style='width:{pct:.2f}%;background:"
                f"{BUCKET_COLORS[name]}'></div>")
        parts.append("</div>")
        parts.append("<table><tr><th>node</th>"
                     + "".join(f"<th>{s}</th>" for s in STATIONS)
                     + "</tr>")
        for node_id, util in enumerate(profile.utilization):
            parts.append(f"<tr><td>{node_id}</td>"
                         + "".join(f"<td>{util[s]:.3f}</td>"
                                   for s in STATIONS)
                         + "</tr>")
        parts.append("</table>")
        status = "ok" if profile.accounting_ok else "VIOLATED"
        parts.append(f"<p>time accounting {status} "
                     f"(max residual {profile.max_residual_us:.2e} us)</p>")
    parts.append("</body></html>")
    return "".join(parts)
