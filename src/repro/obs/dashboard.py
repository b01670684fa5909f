"""`repro top`: render live telemetry as an ANSI terminal dashboard.

Pure string rendering over the timeline/health/journal layers — no
input handling, no terminal ownership.  The CLI drives it in two modes:

* **live** — clear-screen ANSI repaint every poll interval;
* **plain / single-frame** — each frame printed sequentially (headless
  CI, logs, piping).

Sparklines use the eight-level block characters; widths degrade
gracefully on narrow terminals.  Everything here is stdlib-only and
deterministic given the store/journal contents, so the frame renderer is
directly unit-testable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .health import SLO_STAGE, HealthScorer
from .journal import EventJournal
from .timeline import TimelineStore

__all__ = ["sparkline", "render_dashboard", "CLEAR_SCREEN"]

#: ANSI sequence a live renderer prefixes each repaint with.
CLEAR_SCREEN = "\x1b[2J\x1b[H"

_BLOCKS = "▁▂▃▄▅▆▇█"

_STATE_BADGES = {
    "healthy": "OK ",
    "degraded": "DEG",
    "unreachable": "DWN",
}


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Render the last ``width`` values as a block-character sparkline.

    Scaled to the rendered slice's own min/max (a flat series renders as
    a low bar, not a blank); empty input renders as spaces so columns
    stay aligned.
    """
    if width <= 0:
        return ""
    tail = list(values)[-width:]
    if not tail:
        return " " * width
    lo = min(tail)
    hi = max(tail)
    span = hi - lo
    chars: List[str] = []
    for v in tail:
        if span <= 0:
            chars.append(_BLOCKS[0] if hi <= 0 else _BLOCKS[1])
        else:
            idx = int((v - lo) / span * (len(_BLOCKS) - 1))
            chars.append(_BLOCKS[idx])
    return "".join(chars).rjust(width)


def _fmt_rate(value: Optional[float]) -> str:
    if value is None:
        return "    -"
    if value >= 1000:
        return f"{value / 1000:4.1f}k"
    return f"{value:5.1f}"


def _fmt_ms(value: Optional[float]) -> str:
    if value is None:
        return "     -"
    return f"{value * 1e3:5.1f}ms" if value < 10 else f"{value:6.1f}s"


def _fmt_pct(value: Optional[float]) -> str:
    return "   -" if value is None else f"{value * 100:3.0f}%"


def render_dashboard(
    store: TimelineStore,
    scorer: HealthScorer,
    journal: EventJournal,
    sources: Optional[Sequence[str]] = None,
    width: int = 100,
    events: int = 8,
    title: str = "repro top",
) -> str:
    """One dashboard frame: health table, per-source sparklines, event tail."""
    health = scorer.score_all(sources)
    spark_w = max(8, min(24, width - 76))
    lines: List[str] = []
    lines.append(
        f"{title} — SLO p{scorer.policy.objective_quantile * 100:.0f} "
        f"{SLO_STAGE} < {scorer.policy.latency_slo_s * 1e3:.0f}ms"
        f" — {len(health)} sources"
    )
    lines.append("-" * min(width, 100))
    lines.append(
        f"{'source':<10} {'state':<4} {'qps':>5} {'p95':>7} {'burn':>5} "
        f"{'err':>4} {'hit':>4} {'ep':>3}  {'qps history':<{spark_w}}  "
        f"{'p95 history':<{spark_w}}"
    )
    for source in sorted(health):
        verdict = health[source]
        badge = _STATE_BADGES.get(str(verdict["state"]), "?? ")
        hit = _best_hit_rate(store, source)
        qps_hist = sparkline(store.values(f"{source}.qps"), spark_w)
        p95_hist = sparkline(store.values(f"{source}.stage.{SLO_STAGE}.p95"), spark_w)
        epoch = store.last(f"{source}.epoch")
        lines.append(
            f"{source:<10} {badge:<4} {_fmt_rate(verdict.get('qps')):>5} "
            f"{_fmt_ms(verdict.get('p95')):>7} {float(verdict.get('burn_rate') or 0):>5.2f} "
            f"{_fmt_pct(verdict.get('error_rate')):>4} {_fmt_pct(hit):>4} "
            f"{'-' if epoch is None else f'{epoch:.0f}':>3}  "
            f"{qps_hist}  {p95_hist}"
        )
        reasons = verdict.get("reasons") or []
        if reasons and verdict["state"] != "healthy":
            lines.append(f"{'':<10}  ↳ {'; '.join(str(r) for r in reasons)}")
    net_rx = store.last("cluster.rate.net_bytes_rx")
    net_tx = store.last("cluster.rate.net_bytes_tx")
    fanout = store.last("cluster.fanout.mean")
    extras: List[str] = []
    if net_rx is not None or net_tx is not None:
        extras.append(
            f"net rx {_bytes_rate(net_rx)} tx {_bytes_rate(net_tx)}"
        )
    if fanout is not None:
        extras.append(f"fan-out {fanout:.2f}")
    open_breakers = store.last("cluster.breakers.open")
    if open_breakers is not None:
        extras.append(
            "breakers ok"
            if open_breakers == 0
            else f"breakers {open_breakers:.0f} OPEN"
        )
    epoch = store.last("cluster.epoch")
    if epoch is not None:
        skew = store.last("cluster.epoch.skew") or 0.0
        extras.append(
            f"epoch {epoch:.0f}"
            + ("" if skew == 0 else f" (SKEW {skew:.0f})")
        )
    if extras:
        lines.append("  " + "   ".join(extras))

    tail = journal.events(events)
    lines.append("-" * min(width, 100))
    if tail:
        lines.append(f"events (last {len(tail)}, {journal.dropped} dropped):")
        for event in tail:
            detail = ", ".join(
                f"{k}={v}"
                for k, v in sorted(event.items())
                if k not in ("kind", "ts", "seq", "service")
            )
            lines.append(
                f"  [{event.get('service', '?'):>7}] {event.get('kind'):<14}"
                f" {detail}"[:width]
            )
    else:
        lines.append("events: (none)")
    return "\n".join(lines) + "\n"


def _best_hit_rate(store: TimelineStore, source: str) -> Optional[float]:
    """The busiest cache tier's latest hit rate for a source, if any."""
    best: Optional[float] = None
    for name in store.names(f"{source}.cache."):
        if not name.endswith(".hit_rate"):
            continue
        value = store.last(name)
        if value is not None and (best is None or value > best):
            best = value
    return best


def _bytes_rate(value: Optional[float]) -> str:
    if value is None:
        return "-"
    for unit in ("B/s", "KiB/s", "MiB/s", "GiB/s"):
        if value < 1024 or unit == "GiB/s":
            return f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB/s"  # pragma: no cover
