"""Tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import dataclasses
import enum
import json

import pytest

import layers
import run

SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny(name: str, **changes) -> run.Workload:
    wl = run.WORKLOADS[name]
    size = 0.002 if wl.kind == "stream" else 200
    return dataclasses.replace(wl, size=size, **changes)


def invoke(monkeypatch, capsys, wl: run.Workload, seed: int, traced: bool):
    """Run the command line on ``wl``; returns (exit code, result, the
    lines printed before the result)."""
    monkeypatch.setitem(run.WORKLOADS, wl.name, wl)
    monkeypatch.setattr(run, "SUBSEEDS", 2)
    argv = ["--workload", wl.name, "--seed", str(seed), "--seconds", "0", "--trace", str(int(traced))]
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(monkeypatch, capsys, name, traced):
    code, result, lines = invoke(monkeypatch, capsys, tiny(name), run.DEFAULT_SEED, traced)
    assert code == 0 and result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    printed = {tuple(line.split()[::2]) for line in lines}
    assert printed == set(declared.items())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_checks_pass_on_the_held_out_seed(monkeypatch, capsys, name):
    code, result, lines = invoke(monkeypatch, capsys, tiny(name), run.HELD_OUT_SEED, False)
    assert code == 0 and result["correct"], lines


def test_predicted_zeros_hold(monkeypatch, capsys):
    metrics = {}
    for name in run.WORKLOADS:
        _, result, _ = invoke(monkeypatch, capsys, tiny(name), run.DEFAULT_SEED, True)
        metrics[name] = {k: m["value"] for k, m in result["metrics"].items()}
    for name in ("stream_fifo", "serving_fifo"):
        assert metrics[name]["xennet.self_us_per_op"] == 0
        assert metrics[name]["core.fifo_bytes_per_op"] > 0
    assert metrics["serving_netfront"]["core.self_us_per_op"] == 0
    assert metrics["serving_netfront"]["core.fifo_bytes_per_op"] == 0
    assert metrics["serving_netfront"]["xennet.ring_notifies_per_op"] > 0


@pytest.mark.parametrize("name", ["stream_fifo", "serving_fifo"])
def test_fifo_workload_on_the_netfront_path_trips_the_path_check(monkeypatch, capsys, name):
    build = run.scenarios.build

    def build_on_netfront(scenario, **kwargs):
        if "data_path" in kwargs:
            kwargs["data_path"] = "netfront"
        return build(run.STREAM_SCENARIO["netfront"] if scenario == "xenloop" else scenario, **kwargs)

    monkeypatch.setattr(run.scenarios, "build", build_on_netfront)
    code, result, lines = invoke(monkeypatch, capsys, tiny(name), run.DEFAULT_SEED, False)
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("CHECK FAILED: path:") for line in lines)


def test_builtin_and_stdlib_time_is_charged_to_the_calling_layer():
    src = run.SRC
    engine = (str(src / "repro/sim/engine.py"), 10, "run")
    tcp = (str(src / "repro/net/tcp.py"), 20, "send")
    helper = (enum.__file__, 30, "__get__")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    join = ("~", 0, "<method 'join' of 'bytes' objects>")
    stats = {
        engine: (1, 1, 0.5, 1.6, {}),
        tcp: (2, 2, 0.2, 0.8, {engine: (2, 2, 0.2, 0.8)}),
        heappush: (3, 3, 0.3, 0.3, {engine: (2, 2, 0.1, 0.1), tcp: (1, 1, 0.2, 0.2)}),
        helper: (1, 1, 0.25, 0.4, {tcp: (1, 1, 0.25, 0.4)}),
        join: (1, 1, 0.15, 0.15, {helper: (1, 1, 0.15, 0.15)}),
    }
    out = layers.attribute(stats, layers.ModuleMap(src, run.BENCH_DIR))
    assert out["layer_s"] == pytest.approx({"sim": 0.6, "net": 0.8})
    assert out["module_s"] == pytest.approx({"sim.engine": 0.6, "net.tcp": 0.8})
    assert out["layer_calls"] == {"sim": 1, "net": 2}
