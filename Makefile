PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-compare experiments chaos abuse abuse-smoke \
	scale predictive megascale megascale-smoke megascale-ab \
	cachebench cachebench-smoke \
	partition partition-smoke perfbench-smoke perfbench-ab

JOBS ?= 0

test:
	$(PYTHON) -m pytest -x -q

## Run the opt-in fault-injection experiment (not part of the default
## suite; see docs/ROBUSTNESS.md).
chaos:
	$(PYTHON) -m repro.experiments.runner chaos

## Run the opt-in hostile-tenant isolation scorecard (countermeasures
## off vs on per attack class; see docs/ROBUSTNESS.md).  The smoke
## variant is the cheap CI configuration.
abuse:
	$(PYTHON) -m repro.experiments.runner abuse --jobs $(JOBS)

abuse-smoke:
	$(PYTHON) -m repro.experiments.runner abuse --smoke --jobs $(JOBS)

## Run the opt-in 1k-10k device scale ramp (see docs/PERFORMANCE.md).
## PREDICTIVE=1 runs the reactive-vs-predictive warm-pool comparison
## instead of the device ramp; JOBS=N fans the ramp cells over N
## processes (identical output either way).
scale:
	$(PYTHON) -m repro.experiments.runner scale --jobs $(JOBS) $(if $(PREDICTIVE),--predictive)

## Run the opt-in LiveLab-trace predictive-scheduling comparison
## (see docs/PERFORMANCE.md).
predictive:
	$(PYTHON) -m repro.experiments.runner predictive

## Run the opt-in 1M-device sharded + mesoscale experiment
## (see docs/PERFORMANCE.md "Megascale").  JOBS=N runs one
## scatter-gather worker process per shard; the smoke variant is the
## cheap CI configuration (50k devices over 2 shards).
megascale:
	$(PYTHON) -m repro.experiments.runner megascale --jobs $(JOBS)

megascale-smoke:
	$(PYTHON) -m repro.experiments.runner megascale --smoke --jobs $(JOBS)

## A/B the sharded kernel's parallel path: the full megascale run
## serially, then again with JOBS worker processes (default: one per
## mega-cell shard).  Summaries are byte-identical by construction;
## compare the two mega-cell wall clocks (needs >= JOBS cores to show
## the scatter-gather speedup).
megascale-ab:
	$(PYTHON) -m repro.experiments.runner megascale --jobs 0
	$(PYTHON) -m repro.experiments.runner megascale --jobs $(if $(filter 0,$(JOBS)),8,$(JOBS))

## Run the opt-in compute-result cache benchmark: repeat-heavy and
## LiveLab-trace shapes, arms cache-off / node tier / cluster tier
## (see docs/PERFORMANCE.md "Computation reuse").  The smoke variant
## is the cheap CI configuration.
cachebench:
	$(PYTHON) -m repro.experiments.runner cachebench --jobs $(JOBS)

cachebench-smoke:
	$(PYTHON) -m repro.experiments.runner cachebench --smoke --jobs $(JOBS)

## Run the opt-in dynamic-partitioning benchmark: offload / local /
## adaptive decision arms across the four network scenarios (see
## docs/PERFORMANCE.md "Dynamic partitioning").  The smoke variant is
## the cheap CI configuration.
partition:
	$(PYTHON) -m repro.experiments.runner partition --jobs $(JOBS)

partition-smoke:
	$(PYTHON) -m repro.experiments.runner partition --smoke --jobs $(JOBS)

## Run the repository benchmark's own smoke tests: every perfbench
## workload at reduced scale, with the run's output checks (see
## perfbench/NOTES.md).
perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench

## A/B the repository benchmark: REF (a git ref, checked out into a
## temporary worktree) against the working tree, PAIRS alternating
## pairs per workload and seed (see tools/perfbench_ab.py).  Exits 1
## if the two sides simulate differently.
PAIRS ?= 10
SEEDS ?= 1
perfbench-ab:
	$(if $(REF),,$(error usage: make perfbench-ab REF=<git ref>))
	$(PYTHON) tools/perfbench_ab.py --ref $(REF) --pairs $(PAIRS) --seeds $(SEEDS) \
		$(if $(WORKLOADS),--workloads $(WORKLOADS)) $(if $(SECONDS),--seconds $(SECONDS))

## Run every experiment plus the scale-family smoke configs and write
## BENCH_experiments.json with per-cell/per-experiment wall-clock and
## device throughput (JOBS=N to parallelize).
bench:
	$(PYTHON) -m repro.experiments.runner --jobs $(JOBS) --bench --smoke \
		--extra scale --extra megascale --extra cachebench --extra partition

## Re-measure the default suite and diff against the committed
## BENCH_experiments.json; exits 1 on a >25 % per-experiment regression.
bench-compare:
	$(PYTHON) benchmarks/compare.py

experiments:
	$(PYTHON) -m repro.experiments.runner --jobs $(JOBS)
