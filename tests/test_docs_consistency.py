"""Guard the documentation against rot: every artifact the docs promise
must exist, and every bench target in DESIGN.md must be a real file."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignIndex:
    def test_bench_targets_exist(self):
        design = read("DESIGN.md")
        targets = set(re.findall(r"`(benchmarks/bench_[a-z0-9_]+\.py)`", design))
        assert targets, "DESIGN.md lists no bench targets?"
        for target in targets:
            assert (ROOT / target).is_file(), f"DESIGN.md references missing {target}"

    def test_every_bench_file_is_indexed(self):
        design = read("DESIGN.md")
        on_disk = {
            f"benchmarks/{p.name}" for p in (ROOT / "benchmarks").glob("bench_*.py")
        }
        indexed = set(re.findall(r"`(benchmarks/bench_[a-z0-9_]+\.py)`", design))
        assert on_disk == indexed, (
            f"unindexed benches: {on_disk - indexed}; stale index: {indexed - on_disk}"
        )

    def test_inventory_modules_exist(self):
        design = read("DESIGN.md")
        # every "name.py" mentioned in the inventory block must exist
        block = design.split("```")[1]
        missing = []
        current_pkg = "src/repro"
        for line in block.splitlines():
            stripped = line.strip()
            if stripped.endswith("/") and not stripped.startswith("#"):
                continue
            match = re.match(r"(\w+)/\s", line.strip() + " ")
            m_file = re.match(r"\s*(\w+\.py)\s", line)
            if m_file:
                name = m_file.group(1)
                hits = list((ROOT / "src" / "repro").rglob(name))
                assert hits, f"DESIGN.md inventory lists missing module {name}"


class TestReadmePromises:
    def test_examples_exist(self):
        readme = read("README.md")
        for path in re.findall(r"python (examples/\w+\.py)", readme):
            assert (ROOT / path).is_file(), f"README references missing {path}"

    def test_cli_commands_exist(self):
        readme = read("README.md")
        from repro import cli

        commands = set(re.findall(r"python -m repro (\w+)", readme))
        parser_src = (ROOT / "src/repro/cli.py").read_text()
        for command in commands:
            assert f'"{command}"' in parser_src, f"README promises unknown CLI {command}"

    def test_docs_files_exist(self):
        readme = read("README.md")
        for path in re.findall(r"`(docs/[\w-]+\.md)`", readme):
            assert (ROOT / path).is_file()


class TestExperimentsCoverage:
    def test_every_figure_and_table_mentioned(self):
        experiments = read("EXPERIMENTS.md")
        for artifact in ["Table", "Figure 4", "Figure 5", "Figures 6–7",
                         "Figures 8–10", "Figure 11", "Ablations"]:
            assert artifact in experiments, f"EXPERIMENTS.md lost section {artifact}"

    def test_bench_references_resolve(self):
        experiments = read("EXPERIMENTS.md")
        for target in re.findall(r"`(bench_[a-z0-9_*]+\.py)`", experiments):
            if "*" in target:
                assert list((ROOT / "benchmarks").glob(target)), target
            else:
                assert (ROOT / "benchmarks" / target).is_file(), target


def _results_cells() -> dict[str, tuple[list[str], list[str]]]:
    """Row label -> (measured cells, paper cells), as printed in the
    Tables 1-3 results files."""
    cells: dict[str, tuple[list[str], list[str]]] = {}
    for name in ("table2_bandwidth", "table3_latency"):
        text = (ROOT / "benchmarks" / "results" / f"{name}.txt").read_text()
        blocks = [block.splitlines()[4:] for block in text.strip().split("\n\n")]
        for measured, paper in zip(*blocks):
            label, ours = re.match(r"(.+?)\s{2,}(\S.*)$", measured).groups()
            cells[label] = (ours.split(), paper.split()[-4:])
    return cells


def _num(cell: str) -> float:
    return float(cell.replace(",", ""))


class TestExperimentsTables:
    """EXPERIMENTS.md's Tables 1-3 snapshot is the two results files."""

    #: headline name -> (row label, lower is better)
    FACTORS = {
        "ping": ("flood ping RTT (us)", True),
        "TCP_RR": ("netperf TCP_RR (trans/s)", False),
        "UDP_RR": ("netperf UDP_RR (trans/s)", False),
        "TCP_STREAM": ("netperf TCP_STREAM", False),
        "UDP_STREAM": ("netperf UDP_STREAM", False),
    }

    def _section(self) -> str:
        experiments = read("EXPERIMENTS.md")
        return experiments.split("## Tables 1–3")[1].split("\n## ")[0]

    def test_every_cell_matches_the_results_files(self):
        rows = {}
        for line in self._section().splitlines():
            parts = [p.strip() for p in line.strip().strip("|").split("|")]
            if len(parts) == 5 and parts[0] != "metric" and " / " in parts[1]:
                rows[parts[0]] = [tuple(cell.split(" / ")) for cell in parts[1:]]
        expected = {
            label: list(zip(paper, ours)) for label, (ours, paper) in _results_cells().items()
        }
        assert rows == expected

    def test_headline_factors_match_the_results_files(self):
        stated = dict(
            (name, (ours, paper))
            for name, ours, paper in re.findall(
                r"(\w+) \*\*([\d.]+)×\*\*\s+\(paper\s+([\d.]+)×\)", self._section()
            )
        )
        cells = _results_cells()

        def factor(values: list[str], lower_is_better: bool) -> str:
            nf, xl = _num(values[1]), _num(values[2])
            return f"{(nf / xl if lower_is_better else xl / nf):.1f}"

        expected = {
            name: (factor(cells[label][0], lower), factor(cells[label][1], lower))
            for name, (label, lower) in self.FACTORS.items()
        }
        assert stated == expected
