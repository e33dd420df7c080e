"""Table and series formatting for benchmark output.

Renders results in the same row/column layout as the paper's Tables 1-3
and prints figure series as aligned columns, so a bench run can be
compared against the paper side by side.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "format_engine_stats",
    "format_fault_matrix",
    "format_series",
    "format_table",
    "ratio",
    "scenario_catalog",
]


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[tuple[str, Mapping[str, float]]],
    unit_by_row: Optional[Mapping[str, str]] = None,
    precision: int = 1,
) -> str:
    """Render rows of {column: value} as an aligned ASCII table."""
    unit_by_row = unit_by_row or {}
    header = ["metric"] + list(columns)
    body: list[list[str]] = []
    for label, values in rows:
        unit = unit_by_row.get(label, "")
        shown = f"{label} ({unit})" if unit else label
        row = [shown]
        for col in columns:
            value = values.get(col)
            row.append("-" if value is None else f"{value:,.{precision}f}")
        body.append(row)
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in body:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def format_series(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Mapping[str, Sequence[float]],
    precision: int = 1,
) -> str:
    """Render one figure: x column plus one column per scenario."""
    names = list(series)
    header = [x_label] + names
    body = []
    for i, x in enumerate(xs):
        row = [str(x)]
        for name in names:
            ys = series[name]
            row.append(f"{ys[i]:,.{precision}f}" if i < len(ys) else "-")
        body.append(row)
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.rjust(widths[i]) for i, h in enumerate(header)))
    for row in body:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _flatten(counters: Mapping, prefix: str = "") -> Iterable[tuple[str, object]]:
    for key, value in counters.items():
        if isinstance(value, Mapping):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def format_engine_stats(stats: Mapping[str, object]) -> str:
    """Render :func:`repro.trace.engine_stats` output: one engine line,
    then one ``group: key=value ...`` line per counter group, with
    nested dicts flattened to dotted keys.

    Used by the throughput bench (and handy after any run) to report
    engine-level throughput alongside the simulated results.
    """
    parts = [f"events={int(stats['events']):,}"]
    if "sim_time" in stats:
        parts.append(f"sim_time={stats['sim_time']:.6f}s")
    if "wall_s" in stats:
        parts.append(f"wall={stats['wall_s']:.3f}s")
    if "events_per_sec" in stats:
        parts.append(f"rate={stats['events_per_sec']:,.0f} events/s")
    lines = ["engine: " + "  ".join(parts)]
    for group, counters in stats.items():
        if isinstance(counters, Mapping):
            items = "  ".join(f"{key}={value:,}" for key, value in _flatten(counters))
            lines.append(f"{group}: {items}")
    return "\n".join(lines)


def format_fault_matrix(results: Sequence[Mapping[str, object]]) -> str:
    """Render a fault_matrix sweep as an aligned cell table.

    Each result mapping needs ``cell`` (the swept {frame type x phase x
    fault kind} point), ``ok``, and the plan's ``injected`` /
    ``recovered`` / ``degraded`` counter dicts; failures carry a
    ``detail`` string with the violated invariant.
    """
    header = ["cell", "ok", "injected", "recovered", "degraded", "detail"]

    def _counts(d: Mapping[str, int]) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(d.items())) or "-"

    body = []
    for res in results:
        body.append(
            [
                str(res["cell"]),
                "PASS" if res["ok"] else "FAIL",
                _counts(res.get("injected", {})),
                _counts(res.get("recovered", {})),
                _counts(res.get("degraded", {})),
                str(res.get("detail", "") or ""),
            ]
        )
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    title = "Fault matrix (frame type x handshake phase x fault kind)"
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    npass = sum(1 for r in results if r["ok"])
    lines.append(f"{npass}/{len(results)} cells converged")
    return "\n".join(lines)


def scenario_catalog() -> str:
    """Render the scenario registry as an aligned name/description list.

    Reads :data:`repro.scenarios.SCENARIO_BUILDERS` and each builder's
    first docstring line, so a newly registered builder shows up here
    (and in ``python -m repro list``) with no other change.
    """
    from repro.scenarios import SCENARIO_BUILDERS

    width = max(len(name) for name in SCENARIO_BUILDERS)
    lines = []
    for name, fn in SCENARIO_BUILDERS.items():
        # ``python -OO`` strips docstrings; list the bare name then.
        summary = (fn.__doc__ or "").strip().partition("\n")[0]
        lines.append(f"  {name.ljust(width)}  {summary}")
    return "\n".join(lines)


def ratio(a: float, b: float) -> float:
    """Safe ratio a/b used for paper-vs-measured factor comparisons."""
    if b == 0:
        raise ValueError("ratio denominator is zero")
    return a / b
