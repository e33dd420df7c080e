"""Congestion-cell benchmark: incast + fairness, FIFO vs netfront,
lossless vs bridge loss.

Runs the :mod:`repro.scenarios.congestion` cells and prints the
goodput/fairness/retransmit summary and events/s of each cell.

``--smoke`` shrinks the transfer sizes for CI (``make
congestion-smoke``); the full run records the comparison quoted in
EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

#: (scenario, data_path, loss) cells measured per run.
CELLS = (
    ("incast", "fifo", 0.0),
    ("incast", "netfront", 0.0),
    ("incast", "netfront", 0.01),
    ("fairness", "fifo", 0.0),
    ("fairness", "netfront", 0.0),
    ("fairness", "netfront", 0.01),
)


def _cell_label(scenario: str, data_path: str, loss: float) -> str:
    return f"{scenario}/{data_path}/loss{loss:g}"


def run_cell(scenario: str, data_path: str, loss: float, smoke: bool) -> dict:
    from repro.scenarios import run_fairness_cell, run_incast_cell

    t0 = time.perf_counter()
    if scenario == "incast":
        summary = run_incast_cell(
            data_path=data_path,
            loss=loss,
            bytes_per_flow=(1 << 18) if smoke else (1 << 21),
        )
    else:
        summary = run_fairness_cell(
            data_path=data_path, loss=loss, duration=0.05 if smoke else 0.2
        )
    wall = time.perf_counter() - t0
    summary["wall_s"] = round(wall, 6)
    summary["events_per_sec"] = summary["events"] / wall if wall > 0 else 0.0
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized cells")
    args = parser.parse_args()

    for scenario, data_path, loss in CELLS:
        label = _cell_label(scenario, data_path, loss)
        summary = run_cell(scenario, data_path, loss, smoke=args.smoke)
        parts = [
            f"{label:<28}",
            f"{summary['aggregate_mbps']:>9.1f} Mbit/s" if summary.get("aggregate_mbps") else f"{summary.get('elephant_mbps', 0):>7.1f}+{summary.get('mice_mbps', 0):.1f} Mbit/s",
            f"fair={summary['fairness']:.3f}",
            f"retx={summary['retransmissions']}",
            f"(fast={summary['fast_retransmits']}, rto={summary['rto_retransmits']})",
            f"drops={summary.get('frames_dropped', 0)}",
            f"{summary['events_per_sec']:,.0f} events/s",
        ]
        print("  ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
