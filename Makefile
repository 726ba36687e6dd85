PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-crashsim test-faultsim lint smoke service-smoke service-smoke-workers shared-cache-smoke events-smoke docs-check bench-perf bench-perf-smoke bench-service bench-load bench-load-smoke core-oracle clean-cache

## Tier-1 test suite.
test:
	$(PYTHON) -m pytest -x -q

## Crash-injection suite alone: kills the service queue at every
## fsync/rename/append boundary and asserts the replay invariants.
test-crashsim:
	$(PYTHON) -m pytest tests/service/test_crashsim.py -q

## Fault-injection suite alone: arms deterministic kill/hang/raise
## faults inside real worker pools and asserts the containment contract
## (healthy batchmates exactly once, poison quarantined, replay clean).
test-faultsim:
	$(PYTHON) -m pytest tests/service/test_faultsim.py -q

## Ruff lint gate (config in pyproject.toml).  Skips with a notice when
## ruff is not installed; CI installs ruff and enforces it.
lint:
	$(PYTHON) scripts/lint.py

## End-to-end pipeline smoke: every figure, reduced profile, 2 workers.
smoke:
	$(PYTHON) -m repro run-all --profile quick --jobs 2 --cache-dir .repro-cache --json smoke-results.json

## Service smoke: start `repro serve`, submit a tiny sweep over HTTP,
## verify the response against the cached artifact and the warm path.
service-smoke:
	$(PYTHON) scripts/service_smoke.py

## The same smoke against a dispatcher with 4 concurrent workers.
service-smoke-workers:
	$(PYTHON) scripts/service_smoke.py --workers 4

## Shared-cache smoke: two plain `repro serve` processes over one
## --shared-cache-dir, a tiny sweep split across them byte-identical
## to serial run_sweep, and a cross-process instant-complete from the
## shared tier.
shared-cache-smoke:
	$(PYTHON) scripts/shared_cache_smoke.py

## Observability smoke: tail the SSE event stream while a job runs,
## assert the queued->done lifecycle arrives as push events, the
## ?trace=1 span timeline telescopes, and /v1/metrics parses as
## Prometheus exposition text.
events-smoke:
	$(PYTHON) scripts/events_smoke.py

## Fail if README.md / DESIGN.md drift from the CLI's --help surface.
docs-check:
	$(PYTHON) scripts/check_docs.py

## Simulation-core perf harness; writes BENCH_simcore.json at the root.
## PROFILE=tiny for CI-sized runs.
PROFILE ?= quick
bench-perf:
	$(PYTHON) benchmarks/perf/bench_simcore.py --profile $(PROFILE)

## CI perf-smoke gate: quick simcore bench (superblocks on/off) plus a
## byte-identity check — tiny-profile run-all manifests must be
## identical with fused dispatch enabled and disabled.
bench-perf-smoke:
	$(PYTHON) scripts/bench_perf_smoke.py

## Timing-core oracle, quick profile, under both cycle loops (~5 s C,
## ~25 s Python): every timing cell's PipelineStats digest must match
## tests/data/core_oracle_quick.json.  (tier-1 checks the tiny
## profile's digests under both loops.)
core-oracle:
	$(PYTHON) scripts/core_oracle.py --profile quick
	$(PYTHON) scripts/core_oracle.py --profile quick --loop python

## Service perf harness: warm-cache requests/sec + cold batch latency;
## writes BENCH_service.json at the root.
bench-service:
	$(PYTHON) benchmarks/perf/bench_service.py

## Multi-tenant load/SLO harness: 10k+ seeded mixed warm/cold jobs plus
## a sustained-overload phase; merges a `load` section (p50/p95/p99,
## saturation throughput, rejection rates, exactly-once ledger) into
## BENCH_service.json.
bench-load:
	$(PYTHON) benchmarks/perf/bench_load.py

## Seconds-bounded miniature of the same harness (the CI gate): writes
## BENCH_load_smoke.json and fails loudly if the `load` section is
## missing keys, mis-ordered, or violates the exactly-once ledger.
bench-load-smoke:
	$(PYTHON) benchmarks/perf/bench_load.py --smoke

## Remove everything .gitignore ignores: the artifact cache, bytecode
## droppings, egg-info, and smoke output.
clean-cache:
	rm -rf .repro-cache .repro-queue smoke-results.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf *.egg-info src/*.egg-info .pytest_cache
