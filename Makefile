PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint smoke bench scenarios run-scenario run-all noc phy \
	instrument serve kernel-smoke dispatch-bench perfbench frontends

# Tier-1 verification: the full unit/integration suite plus benchmarks.
test:
	$(PYTHON) -m pytest -x -q

# Lint: byte-compile everything; run pyflakes when it is available.
# Only the missing-tool case is tolerated — pyflakes findings fail the target.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	@if $(PYTHON) -c "import pyflakes" 2>/dev/null; then \
		$(PYTHON) -m pyflakes src tests benchmarks examples; \
	else \
		echo "pyflakes not installed; compileall check only"; \
	fi

# Fast benchmark smoke: one cheap figure per substrate (seconds, not minutes).
smoke:
	$(PYTHON) -m pytest -q \
		benchmarks/test_bench_fig1_pathloss.py \
		benchmarks/test_bench_table1_link_budget.py \
		benchmarks/test_bench_fig8a_noc_64.py

# Every paper figure/table benchmark.
bench:
	$(PYTHON) -m pytest -q benchmarks

# One kernel per layer: float64 bit-exactness against the historical
# digests and the retired BP kernel, the dtype knob, and the kernel
# throughput floors vs the frozen pre-seam implementations.
kernel-smoke:
	$(PYTHON) -m pytest -q tests/test_backend_module.py \
		tests/test_backend_kernels.py tests/test_coding_bp_oracle.py \
		benchmarks/test_bench_backend_kernels.py
	$(PYTHON) -m repro bench --json BENCH_kernels.json \
		--batch-sizes 64 --repeats 1
	$(PYTHON) -c "import json; r = json.load(open('BENCH_kernels.json')); \
		assert r['records'], 'empty benchmark report'"

# Warm-dispatch gate: the persistent worker pool, which spools each
# worker once and loads it once per process, must beat the frozen
# per-call-pool baseline by >=3x on repeat sweeps in one generation with
# one spooled file, and intra-point sharding must be byte-identical (the
# >=2.5x sharded floor additionally needs 4 physical cores).  Then the
# pool's unit tests.  REPRO_DISPATCH_BENCH=reduced shrinks the workload.
dispatch-bench:
	$(PYTHON) -m pytest -q -s benchmarks/test_bench_engine_dispatch.py
	$(PYTHON) -m pytest -q tests/test_core_pool.py

# The three front-ends on every registered scenario: `repro run`,
# `repro run-all --workers 2` and the campaign service must give
# byte-identical JSON, and its seed-0 points must match
# tests/data/registry_digests.json (tier-1 checks only the fast
# scenarios).
frontends:
	$(PYTHON) tests/test_frontends.py

# Scenario benchmark smoke: the noc workload traced, then untraced, then
# a short untraced served run (the daemon's batched dispatch).  Each run
# exits 0 only when every output matches the reference — served also
# fails on warm/cold byte differences and leftover pool processes; the
# traced run also fails when layer spans cover < 90% of the scenarios'
# wall time, which one noisy cold pass can miss, so its exit status is
# reported but does not stop the target.
perfbench:
	-$(PYTHON) perfbench/run.py --workload noc --seed 0 --seconds 5 --trace 1
	$(PYTHON) perfbench/run.py --workload noc --seed 0 --seconds 5 --trace 0
	$(PYTHON) perfbench/run.py --workload served --seed 0 --seconds 5 --trace 0

# The scenario registry: list everything runnable by name.
scenarios:
	$(PYTHON) -m repro list

# The cross-layer NoC engine scenarios: analytic-vs-simulated crosscheck,
# hotspot traffic, buffer-depth (backpressure) ablation and lossy links
# whose flit error rate is derived from the coding layer.
noc:
	$(PYTHON) -m repro run noc-transpose-crosscheck
	$(PYTHON) -m repro run noc-hotspot-sweep
	$(PYTHON) -m repro run noc-buffer-depth-sweep
	$(PYTHON) -m repro run noc-lossy-link-sweep

# The waveform transceiver pipeline scenarios: coded BER over the real
# 1-bit PHY vs the BPSK/AWGN baseline, BCJR-vs-symbolwise soft demod and
# the oversampling x window-size ablation (reduced Monte-Carlo size —
# raise mc.n_codewords for publication-quality curves).
phy:
	$(PYTHON) -m repro run phy-detector-comparison --seed 0 \
		--set mc.n_codewords=2
	$(PYTHON) -m repro run coded-ber-waveform-sweep --seed 0 \
		--set mc.n_codewords=2
	$(PYTHON) -m repro run phy-oversampling-coding-ablation --seed 0 \
		--set mc.n_codewords=2

# The instrument acquisition pipeline: acquire a measured-channel dataset
# through the simulated VNA (fixed seed, content-addressed file under
# .repro-datasets/), list it, and replay it through the coded-BER stack.
instrument:
	$(PYTHON) -m repro acquire --environment parallel-copper-boards \
		--distances 0.05,0.1,0.15 --seed 23
	$(PYTHON) -m repro datasets list
	$(PYTHON) -m repro run measured-channel-coded-ber-sweep --seed 0
	$(PYTHON) -m repro run measured-freespace-vs-copper --seed 0

# The campaign service: a long-running, multi-client compute daemon over
# .repro-store (submit with `python -m repro submit NAME --wait`, stop
# with Ctrl-C or `curl -X POST localhost:8765/v1/shutdown`).
serve:
	$(PYTHON) -m repro serve --store .repro-store $(ARGS)

# Run one named scenario, e.g.:
#   make run-scenario NAME=table1 ARGS="--json out.json"
run-scenario:
	@test -n "$(NAME)" || { echo "usage: make run-scenario NAME=<scenario> [ARGS=...]"; exit 2; }
	$(PYTHON) -m repro run $(NAME) $(ARGS)

# The whole registry as one campaign, persisted into .repro-store so a
# re-run (or an interrupted run) is served from disk.  Narrow or scale:
#   make run-all ARGS="--only 'fig8*' --workers 4"
run-all:
	$(PYTHON) -m repro run-all --store .repro-store $(ARGS)
