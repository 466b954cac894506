# Convenience targets mirroring the artifact's Makefile-driven workflow.

PYTHON ?= python

.PHONY: install test test-fast bench bench-smoke bench-fluid bench-fluid-contended bench-trend bench-trend-update serve-smoke verify-fw ci lint isa-doc-check examples results clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/ -q

test-fast:
	$(PYTHON) -m pytest tests/ -q -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Fast parallel-path regression check: a tiny sweep through the worker
# pool, the kernel events/sec and fluid probes, the per-package source
# line counts, and the deterministic resilience-shape benchmarks.
# Fits in the tier-1 budget.  Set REPRO_CI=1 to relax the perf floors
# for shared runners.  End-to-end speed is the e2e benchmark's job
# (BENCHMARK.json, benchmarks/e2e/).
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli sweep --sizes 512,1024 --rpu-set 8,16 \
		--jobs 2 --warmup 200 --packets 500
	PYTHONPATH=src $(PYTHON) benchmarks/kernel_probe.py
	PYTHONPATH=src $(PYTHON) benchmarks/fluid_probe.py
	PYTHONPATH=src $(PYTHON) benchmarks/fluid_contended_probe.py
	PYTHONPATH=src $(PYTHON) benchmarks/loc_probe.py
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_resilience.py \
		benchmarks/test_cluster_resilience.py -q

# Trend gate: compare the probe JSONs under benchmarks/results/ against
# the committed baselines.json with per-metric tolerance bands.  Run
# after bench-smoke; fails on any regression with a before/after table.
bench-trend:
	PYTHONPATH=src $(PYTHON) benchmarks/trend.py

# Rewrite baselines.json from the current probe results (keeps
# hand-tuned bands).  Rerun after an intentional perf change and
# commit the diff — see docs/CI.md.
bench-trend-update:
	PYTHONPATH=src $(PYTHON) benchmarks/trend.py --update

# docs/ISA.md is generated from the instruction table in
# src/repro/riscv/isa.py; fail when the committed copy is stale.
# Regenerate with: PYTHONPATH=src python -m repro.riscv.isa > docs/ISA.md
isa-doc-check:
	PYTHONPATH=src $(PYTHON) -W ignore::RuntimeWarning -m repro.riscv.isa | diff -u docs/ISA.md -

# Lint + determinism lint + generated-doc check + bytecode-compile;
# ruff is optional locally (CI always has it), the rest always runs.
lint: isa-doc-check
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro.verify.detlint
	$(PYTHON) -m compileall -q src

# Static firmware verification gate: every bundled firmware must hold
# its documented operating point (CFG/WCET budget, abstract
# interpretation with memory-safety proofs and inferred loop bounds,
# MMIO footprint, floorplan, replay lint), and the full deep pass must
# stay fast enough to run as a sweep pre-flight.
verify-fw:
	PYTHONPATH=src $(PYTHON) -m repro.cli verify --all --deep
	PYTHONPATH=src $(PYTHON) benchmarks/verify_probe.py

# Online serving-mode smoke: replay the scripted scenario (hot
# reconfig + watchdog recovery under live traffic; any error reply
# fails).
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve \
		--script examples/serve_session.jsonl --check > /dev/null

# Everything the GitHub workflow runs, in one local command.
ci: lint verify-fw
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	REPRO_CI=1 $(MAKE) bench-smoke
	$(MAKE) serve-smoke
	$(MAKE) bench-trend
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

# Fluid fast-forward probe on its own (byte parity at equal windows +
# effective-speedup floor on a long steady-state run)
bench-fluid:
	PYTHONPATH=src $(PYTHON) benchmarks/fluid_probe.py

# Contended-regime fluid probe on its own: rotating-period detection
# with backlogged FIFOs and per-period drops (byte parity incl.
# rx_drops + speedup floor), plus the 2-board cluster x fluid leg
# (fluid rack byte-identical to the event rack and across shards)
bench-fluid-contended:
	PYTHONPATH=src $(PYTHON) benchmarks/fluid_contended_probe.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/debugging_walkthrough.py
	$(PYTHON) examples/runtime_reconfiguration.py
	$(PYTHON) examples/custom_lb_and_nat.py
	$(PYTHON) examples/firewall_middlebox.py
	$(PYTHON) examples/ids_porting.py

results:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
