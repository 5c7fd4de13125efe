PYTHON ?= python
export PYTHONPATH := src:.

.PHONY: help test verify fuzz fuzz-faults fuzz-cross fuzz-summaries lint bench bench-solver bench-strategies bench-parallel bench-interp bench-memory bench-service bench-summaries bench-gate fingerprint fingerprint-check clean

help:
	@echo "Targets:"
	@echo "  test             tier-1 test suite (pytest -x -q)"
	@echo "  verify           tier-1 tests + lint + strategy/parallel smoke benches + fuzz/fault smoke"
	@echo "  fuzz             differential fuzzer long mode (slow-marked soak tests)"
	@echo "  fuzz-faults      fault-injection suites: recovery paths + fault-injecting fuzz arm"
	@echo "  fuzz-cross       cross-target corpus: one shape lowered to all four targets, cross-checked"
	@echo "  fuzz-summaries   summaries fuzz arm long mode: on/off equality on call-heavy programs"
	@echo "  lint             byte-compile src/benchmarks/tests; docstring coverage; forbid print() and bare except in src/"
	@echo "  bench            all benchmark harnesses (regenerates tables/reports)"
	@echo "  bench-solver     solver benchmark + ablation (BENCH_solver.json)"
	@echo "  bench-strategies strategy benchmark + invariance (BENCH_strategies.json)"
	@echo "  bench-parallel   parallel-exploration benchmark + determinism (BENCH_parallel.json)"
	@echo "  bench-interp     GIL stepper throughput benchmark (BENCH_interp.json)"
	@echo "  bench-memory     memory-model action dispatch benchmark (BENCH_memory.json)"
	@echo "  bench-service    analysis-service burst/replay/crash-storm benchmark (BENCH_service.json)"
	@echo "  bench-summaries  compositional-execution benchmark + identity grid (BENCH_summaries.json)"
	@echo "  bench-gate       smoke throughput gate: fail below the recorded paths/sec floor"
	@echo "  fingerprint      regenerate the fingerprints (baseline + heap + rust memory models, solver)"
	@echo "  fingerprint-check verify memory-model branch structure and solver models are byte-identical to the baselines"
	@echo "  clean            remove caches and build artefacts"

test:
	$(PYTHON) -m pytest -x -q

verify: test lint
	$(MAKE) fingerprint-check
	$(PYTHON) -m repro.obs.smoke
	$(PYTHON) benchmarks/bench_strategies.py --smoke
	$(PYTHON) benchmarks/bench_parallel.py --smoke
	$(PYTHON) benchmarks/bench_memory.py --smoke
	$(PYTHON) benchmarks/bench_service.py --smoke
	$(PYTHON) benchmarks/bench_summaries.py --smoke
	$(MAKE) bench-gate
	$(PYTHON) -m pytest -x -q tests/engine/test_fuzz_differential.py tests/engine/test_fuzz_summaries.py -m "not slow"
	$(MAKE) fuzz-faults
	$(MAKE) fuzz-cross

fuzz:
	$(PYTHON) -m pytest -q tests/engine/test_fuzz_differential.py -m slow

fuzz-faults:
	$(PYTHON) -m pytest -x -q tests/engine/test_faults.py \
		"tests/engine/test_fuzz_differential.py::TestFaultInjectionFuzz" -m "not slow"

fuzz-cross:
	$(PYTHON) -m pytest -x -q tests/engine/test_fuzz_cross.py

fuzz-summaries:
	$(PYTHON) -m pytest -q tests/engine/test_fuzz_summaries.py -m slow

lint:
	$(PYTHON) -m compileall -q src benchmarks tests
	$(PYTHON) tools/check_excepts.py src/repro
	$(PYTHON) tools/check_docstrings.py src/repro
	@if grep -rnE '(^|[^[:alnum:]_.])print\(' src; then \
		echo "lint: print() is forbidden in src/ (use the event bus or return values)"; \
		exit 1; \
	fi
	@echo "lint: ok"

bench: bench-solver bench-strategies bench-parallel bench-interp bench-memory bench-service bench-summaries
	$(PYTHON) -m pytest benchmarks -q

bench-solver:
	$(PYTHON) benchmarks/bench_solver.py

bench-strategies:
	$(PYTHON) benchmarks/bench_strategies.py

bench-parallel:
	$(PYTHON) benchmarks/bench_parallel.py

bench-interp:
	$(PYTHON) benchmarks/bench_interp.py

bench-memory:
	$(PYTHON) benchmarks/bench_memory.py

bench-service:
	$(PYTHON) benchmarks/bench_service.py

bench-summaries:
	$(PYTHON) benchmarks/bench_summaries.py

bench-gate:
	$(PYTHON) benchmarks/bench_interp.py --smoke --gate

fingerprint:
	$(PYTHON) tools/fingerprint.py --out tests/fingerprints/baseline.json
	$(PYTHON) tools/fingerprint.py --arms heap --out tests/fingerprints/heap.json
	$(PYTHON) tools/fingerprint.py --arms rust --out tests/fingerprints/rust.json
	$(PYTHON) tools/fingerprint.py --arms solver --out tests/fingerprints/solver.json

fingerprint-check:
	$(PYTHON) tools/fingerprint.py --check tests/fingerprints/baseline.json
	$(PYTHON) tools/fingerprint.py --arms heap --check tests/fingerprints/heap.json
	$(PYTHON) tools/fingerprint.py --arms rust --check tests/fingerprints/rust.json
	$(PYTHON) tools/fingerprint.py --arms solver --check tests/fingerprints/solver.json

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache src/*.egg-info
