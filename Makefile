# Developer entry points.  The python toolchain is assumed present; every
# target runs against the in-tree sources via PYTHONPATH=src.

PY := PYTHONPATH=src python

.PHONY: test test-prop bench perfbench serve-demo obs-demo docs-check loc

## Tier-1 verification: the full test suite in benchmark smoke mode.
test:
	$(PY) -m pytest -x -q

## Property suites only (hypothesis), pinned to a fixed seed so a red
## run reproduces exactly; the serve/fleet invariants additionally set
## derandomize=True and are deterministic under plain tier-1 too.
test-prop:
	$(PY) -m pytest tests/property -q --hypothesis-seed=0

## Measure the micro-benchmarks, refresh BENCH_micro.json and append a
## dated entry to BENCH_history.jsonl (the cross-PR perf trajectory).
bench:
	$(PY) benchmarks/record_bench.py

## The repository benchmark (BENCHMARK.json): every end-to-end workload
## on seed 1, then the self-test of its per-layer tracing boundaries.
## perfbench/run.py puts src/ on the path itself.
perfbench:
	python3 perfbench/run.py --workload all --seed 1 --seconds 14
	python3 perfbench/selftest.py

## Online-serving demo: 600 s Poisson trace through the three replan
## policies, with evaluation-cache persistence between runs.
serve-demo:
	$(PY) examples/serve_trace.py

## Telemetry demo: one observed trace, recorder on/off report identity,
## JSONL export summarized through tools/trace_summary.py.
obs-demo:
	$(PY) examples/observe_serve.py

## Validate every intra-repo link in README.md, ROADMAP.md and docs/*.md
## (tests/test_docs.py runs the same check under tier-1).
docs-check:
	python tools/check_links.py

## Line counts: src/ (.py + .c, the size metric ROADMAP tracks) next to
## tests/ (.py, oracles included).  The solver build cache is skipped.
loc:
	@printf 'src/   %6d lines (.py + .c)\n' "$$(find src \( -name '*.py' -o -name '*.c' \) -not -path '*/_build/*' -exec cat {} + | wc -l)"
	@printf 'tests/ %6d lines (.py)\n' "$$(find tests -name '*.py' -exec cat {} + | wc -l)"
