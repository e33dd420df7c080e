"""Shared benchmark helpers (scenario builders, output emission)."""

from __future__ import annotations

import pathlib

from repro.experiments import BENCH_COSTS, SCENARIO_ORDER, build_warm  # noqa: F401

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a rendered table/series and persist it under results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
