PYTHON ?= python
export PYTHONPATH := src

.PHONY: test chaos bench-fast bench bench-full observatory observatory-selftest ab counts heap hop-budget rest-budget flight-oracle coverage trace check check-sweep

test:
	$(PYTHON) -m pytest -x -q

# Coverage gate (needs the `cov` extra: pip install -e '.[test,cov]').
# The floor only ratchets up: raise it when coverage rises, never lower it.
coverage:
	$(PYTHON) -m pytest --cov=repro --cov-report=term-missing:skip-covered --cov-fail-under=70

# One Perfetto-loadable trace + metrics snapshot of the Fig 3 scenario
# (open traces/fig03.json at https://ui.perfetto.dev).
trace:
	$(PYTHON) -m repro.bench fig03 --trace traces/fig03.json --metrics traces/fig03-metrics.json

# Full seeded chaos schedules (YCSB over KRCORE under fault plans).
chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -m chaos -q

# Quick perf look: the observatory, short (every workload timed then traced,
# ~2 min; `make observatory` is the same at 6 s per timed run).
bench-fast:
	$(PYTHON) benchmarks/observatory/run.py --seed 1 --seconds 2 --out observatory.json

# Regenerate every figure (fast mode).
bench:
	$(PYTHON) -m repro.bench

# Paper-scale regeneration (slow).
bench-full:
	$(PYTHON) -m repro.bench --full

# Perf observatory (benchmarks/observatory/README.md): every workload,
# timed then traced, into one result file (compare.py reads pairs of them).
observatory:
	$(PYTHON) benchmarks/observatory/run.py --seed 1 --seconds 6 --out observatory.json

# The observatory's own checks (kept out of tier-1: they time things).
observatory-selftest:
	$(PYTHON) -m pytest benchmarks/observatory/selftest.py -q

# Paired A/B of the observatory against a parent commit (benchmarks/ab.py):
#   make ab PARENT=<sha> [WORKLOAD=<w>] [PAIRS=10] [METRIC=peak_rss_mb] [AB_ARGS="--seconds 2"]
# alternates which side runs first, one fresh seed per pair, and prints the
# pair table of METRIC (default wall_s) plus compare.py's verdicts.  Leave
# the host alone meanwhile.
PAIRS ?= 10
ab:
	$(PYTHON) benchmarks/ab.py --parent $(PARENT) --pairs $(PAIRS) $(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(METRIC),--metric $(METRIC)) $(AB_ARGS)

# Exact-count gate (benchmarks/counts.py): one traced pass per workload of
# the unmodified observatory at seed 1; attempted / failed and every metric
# whose BENCHMARK.json unit is `count` must equal tests/observatory_counts.json
# to the digit (~20 s per workload).  A count that is meant to move:
#   python benchmarks/counts.py --update   and a sentence in the PR.
counts:
	$(PYTHON) benchmarks/counts.py

# Where a workload's heap goes (benchmarks/heap.py): one untimed pass of an
# observatory workload under tracemalloc; prints the top file:line sites of
# the live set at the end of the measured phase and the DRAM pages each
# simulated node materialized.
#   make heap WORKLOAD=<w> [HEAP_ARGS="--scale 0.1 --top 40"]
heap:
	$(PYTHON) benchmarks/heap.py --workload $(WORKLOAD) $(HEAP_ARGS)

# WR hop budget (DESIGN.md §17): print the exact engine-record counts per
# work request and check them against the pinned budget.
hop-budget:
	$(PYTHON) -m pytest -s -k hop_budget

# Node rest budget (DESIGN.md §17 "A node at rest", "A QP at rest"): print
# what a booted, idle node holds on the host (KB -- of a 4-node and of a
# 2 000-node boot --, Process objects, boot records, per-CPU pools and kernel
# RecvBuffers built: none), what used state holds once idle again (bytes per
# connected VQP, per drained QP + CQ, per meta client) and check the pins.
rest-budget:
	$(PYTHON) -m pytest -s -k rest_budget

# Flight oracle (DESIGN.md §17): the WR state machine against the frozen
# generator flight, whole timelines, 200 seeds per world (tier-1 runs a
# 12-seed slice of the same comparison).
flight-oracle:
	PYTHONPATH=src:. $(PYTHON) tests/test_flight_oracle.py

# Model checker (repro.check): replay the committed schedule corpus
# (tier-1 smoke), then a quick randomized sweep.
check:
	$(PYTHON) -m repro.check --replay tests/schedules/*_fifo_clean.json tests/schedules/racey_pipeline_underflow.json
	$(PYTHON) -m repro.check pool_churn --mode random --seeds 5 --quiet

# Nightly-sized budgeted sweep: random schedules over three scenarios,
# shrinking any failure to schedules-out/<scenario>.json.
check-sweep:
	mkdir -p schedules-out
	$(PYTHON) -m repro.check pool_churn --mode random --seeds 40 --shrink --out schedules-out/pool_churn.json
	$(PYTHON) -m repro.check kvs_lin --mode random --seeds 25 --shrink --out schedules-out/kvs_lin.json
	$(PYTHON) -m repro.check chaos_small --mode pct --seeds 15 --shrink --out schedules-out/chaos_small.json
