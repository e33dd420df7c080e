"""CLI entry points."""

import pathlib

import pytest

from repro import experiments
from repro.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "xenloop" in out and "native_loopback" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_ping_single_scenario(self, capsys):
        assert main(["ping", "native_loopback", "--count", "20"]) == 0
        out = capsys.readouterr().out
        assert "native_loopback" in out and "us RTT" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["ping", "nonexistent"])

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_ping_count_below_one_rejected(self, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(["ping", "native_loopback", "--count", count])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err

    @pytest.mark.slow
    def test_tables_print_the_bench_results(self, capsys):
        assert main(["tables"]) == 0
        expected = "".join((RESULTS / f"{t.name}.txt").read_text() for t in experiments.TABLES)
        assert capsys.readouterr().out == expected

    @pytest.mark.slow
    def test_bypass_comparison(self, capsys):
        assert main(["bypass"]) == 0
        out = capsys.readouterr().out
        assert "future work" in out
        assert out == (RESULTS / "future_socket_bypass.txt").read_text()


class TestSnapshotCli:
    @pytest.fixture
    def pair_manifest(self, tmp_path):
        """A saved ``notify_drop`` pair: one machine, unpinned MAC."""
        path = str(tmp_path / "pair.json")
        assert main(["snapshot", "save", "--cell", "notify_drop", "--out", path]) == 0
        return path

    def test_replay_rejects_cell_needing_a_second_machine(self, pair_manifest):
        with pytest.raises(SystemExit) as exc:
            main(["snapshot", "replay", pair_manifest, "--cell", "migrate:connected"])
        assert "machines" in str(exc.value.code)
        assert "pin_mac" not in str(exc.value.code)

    def test_replay_rejects_cell_needing_a_pinned_mac(self, pair_manifest):
        with pytest.raises(SystemExit) as exc:
            main(["snapshot", "replay", pair_manifest,
                  "--cell", "crash_restart_same_mac:connected"])
        assert "pin_mac" in str(exc.value.code)
        assert "machines" not in str(exc.value.code)

    def test_scenario_saved_pair_holds_the_builder_defaults(self, tmp_path):
        path = str(tmp_path / "pair.json")
        assert main(["snapshot", "save", "--scenario", "fault_matrix", "--out", path]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["snapshot", "replay", path, "--cell", "migrate:connected"])
        assert "{'machines': 1}" in str(exc.value.code)

    def test_warm_scenario_save_then_restore(self, tmp_path, capsys):
        path = str(tmp_path / "xenloop.json")
        assert main(["snapshot", "save", "--scenario", "xenloop", "--warm", "--out", path]) == 0
        assert main(["snapshot", "restore", path]) == 0
        assert "restore OK" in capsys.readouterr().out
