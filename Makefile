# Developer conveniences.  `make install` prefers a real editable install
# and falls back to a .pth path link when the environment lacks `wheel`
# (e.g. offline images).

PYTHON ?= python

.PHONY: install test bench bench-all bench-ci bench-fig11 congestion-smoke serving-smoke fault-matrix snapshot-smoke examples clean

install:
	@$(PYTHON) -m pip install -e . 2>/dev/null || ( \
		echo "pip editable install unavailable; linking via .pth"; \
		echo "$(CURDIR)/src" > "$$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-dev.pth" )
	@$(PYTHON) -c "import repro; print('repro', repro.__version__, 'ready')"

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Full suite, fanned out over a process pool (one worker per bench
# file); merged summary lands in benchmarks/results/run_benches.json.
bench-all:
	PYTHONPATH=src $(PYTHON) tools/run_benches.py

# Every bench that passes and takes 13 s or less.  Fig. 8 is left out:
# its shape check fails (ROADMAP item 1).  Fig. 11 (~150 s) is
# bench-fig11.  Their simulated results are deterministic, so CI checks
# benchmarks/results/ is unchanged afterwards.
CI_BENCHES = table2_bandwidth table3_latency fig4_udp_msgsize fig5_fifo_size \
	fig6_7_netpipe fig9_osu_bibw fig10_osu_latency extra_tcp_crr \
	future_socket_bypass ablation_coalescing ablation_discovery ablation_zerocopy

bench-ci:
	PYTHONPATH=src $(PYTHON) -m pytest $(CI_BENCHES:%=benchmarks/bench_%.py) --benchmark-only -s

bench-fig11:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_fig11_migration.py --benchmark-only -s

# Congestion smoke: the incast + fairness golden tests, then the
# CI-sized congestion cells (FIFO vs netfront, lossless vs bridge
# loss), printed one line per cell.
congestion-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/integration/test_congestion.py -q
	PYTHONPATH=src $(PYTHON) benchmarks/bench_congestion.py --smoke

# Serving smoke: the open-loop tail-latency golden tests, then the
# CI-sized offered-load sweep (0.5x/0.8x/0.95x of each path's probed
# capacity), printed one line per cell.
serving-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/integration/test_serving.py -q
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serving.py --smoke

# Fault-injection matrix: every {frame type x handshake phase x fault
# kind} cell must converge (exit nonzero when any cell leaks or hangs).
fault-matrix:
	PYTHONPATH=src $(PYTHON) -m repro faults

# Checkpoint smoke: snapshot mechanics + replay-equivalence goldens,
# then a save -> digest-verified replay round trip through the CLI (the
# time-travel path for replaying a failing fault cell).
snapshot-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/sim/test_snapshot.py tests/integration/test_snapshot_fork.py -q
	PYTHONPATH=src $(PYTHON) -m repro snapshot save --cell notify_drop --out /tmp/repro-snapshot-smoke.json
	PYTHONPATH=src $(PYTHON) -m repro snapshot replay /tmp/repro-snapshot-smoke.json --cell notify_drop --runs 2
	rm -f /tmp/repro-snapshot-smoke.json

examples:
	@for ex in examples/*.py; do echo "== $$ex =="; PYTHONPATH=src $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results/run_benches.json
	find . -name __pycache__ -type d -exec rm -rf {} +
