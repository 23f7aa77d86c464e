# Convenience targets; everything assumes PYTHONPATH=src (no install).

SHELL := /bin/bash
PY := PYTHONPATH=src python

# Fault set for check-faults: all, exc, crash, hang, corrupt, lease or
# kill.
FAULT_SET ?= all

# Workload/variant for the timeline target.
WL ?= bfs-twitter
VARIANT ?= sdc_lp

.PHONY: test check check-faults check-shards check-service check-dse \
	check-ingest bench bench-engine profile-engine timeline docs-check

# Shard counts exercised by check-shards.
SHARD_COUNTS ?= 2 4

test:                 ## tier-1 test suite
	$(PY) -m pytest -q

timeline:             ## ASCII per-window cache timeline (WL=, VARIANT=)
	$(PY) -m repro timeline $(WL) $(VARIANT)

check:                ## quick workload subset with invariant checking on
	REPRO_VALIDATE=1 $(PY) -m repro fig7 --quick --length 50000 --no-cache

check-faults:         ## fault-injected grids must match the fault-free run
	set -euo pipefail; \
	work=$$(mktemp -d); trap 'rm -rf "$$work"' EXIT; \
	cmd="env $(PY) -m repro fig7 --quick --tier tiny --length 20000 --retries 3"; \
	strip() { grep -v '^  \['; }; \
	want() { [ "$(FAULT_SET)" = all ] || [ "$(FAULT_SET)" = "$$1" ]; }; \
	$$cmd --no-cache > "$$work/clean.txt"; \
	if want exc; then \
	  REPRO_FAULTS='seed=7,exc:0.3:2' $$cmd --no-cache --jobs 2 \
	    | strip > "$$work/got.txt"; \
	  diff "$$work/clean.txt" "$$work/got.txt"; fi; \
	if want crash; then \
	  REPRO_FAULTS='seed=7,crash:0.2' $$cmd --no-cache --jobs 2 \
	    | strip > "$$work/got.txt"; \
	  diff "$$work/clean.txt" "$$work/got.txt"; fi; \
	if want hang; then \
	  REPRO_FAULTS='seed=11,hang:0.1:1:60' $$cmd --no-cache --jobs 2 \
	    --timeout 15 | strip > "$$work/got.txt"; \
	  diff "$$work/clean.txt" "$$work/got.txt"; fi; \
	if want lease; then \
	  REPRO_FAULTS='seed=7,lease_loss:0.3' $$cmd --no-cache --jobs 2 \
	    | strip > "$$work/got.txt"; \
	  diff "$$work/clean.txt" "$$work/got.txt"; fi; \
	if want corrupt; then \
	  REPRO_CACHE_DIR="$$work/cache" REPRO_FAULTS='seed=7,corrupt:1.0' \
	    $$cmd --jobs 2 | strip > /dev/null; \
	  REPRO_CACHE_DIR="$$work/cache" $$cmd > "$$work/got.txt"; \
	  diff "$$work/clean.txt" "$$work/got.txt"; fi; \
	if want kill; then \
	  kcmd="env REPRO_CACHE_DIR=$$work/kill $$cmd --jobs 2 --resume killed"; \
	  REPRO_FAULTS='seed=7,slow:1.0:1:0.5' $$kcmd > "$$work/killed.txt" & \
	  pid=$$!; \
	  for _ in $$(seq 300); do \
	    [ "$$(grep -c '^  \[' "$$work/killed.txt")" -ge 4 ] && break; \
	    sleep 0.1; done; \
	  kill -9 "$$pid" || { echo "kill: run ended before SIGKILL"; exit 1; }; \
	  { wait "$$pid"; } 2> /dev/null || true; \
	  $$kcmd > "$$work/resumed.txt"; \
	  strip < "$$work/resumed.txt" > "$$work/got.txt"; \
	  diff "$$work/clean.txt" "$$work/got.txt"; \
	  ran() { grep '^  \[' "$$1" | grep -v '\[cache\]\|\[dedup\]' \
	    | awk '{print $$2}' | sort; }; \
	  again=$$(comm -12 <(ran "$$work/killed.txt") \
	    <(ran "$$work/resumed.txt")); \
	  [ -z "$$again" ] || { echo "kill: resume re-simulated" $$again; \
	    exit 1; }; fi; \
	echo "check-faults[$(FAULT_SET)]: fault-injected output identical to fault-free"

check-shards:         ## sharded sweeps must merge bit-identical to single-host
	set -euo pipefail; \
	work=$$(mktemp -d); trap 'rm -rf "$$work"' EXIT; \
	fig="fig7 --quick --tier tiny --length 20000"; \
	strip() { grep -v '^  \['; }; \
	env REPRO_CACHE_DIR="$$work/solo" $(PY) -m repro $$fig --no-cache \
	  > "$$work/clean.txt"; \
	for n in $(SHARD_COUNTS); do \
	  cache="$$work/cache$$n"; rid="shardcheck-$$n"; \
	  for i in $$(seq 0 $$((n - 1))); do \
	    env REPRO_CACHE_DIR="$$cache" $(PY) -m repro $$fig \
	      --shard $$i/$$n --resume $$rid > /dev/null; \
	  done; \
	  env REPRO_CACHE_DIR="$$cache" $(PY) -m repro merge $$rid; \
	  env REPRO_CACHE_DIR="$$cache" $(PY) -m repro $$fig \
	    | strip > "$$work/got.txt"; \
	  diff "$$work/clean.txt" "$$work/got.txt"; \
	done; \
	cache="$$work/cache-loss"; rid=shardcheck-loss; \
	if env REPRO_CACHE_DIR="$$cache" REPRO_FAULTS='seed=7,shard_loss:1.0' \
	  $(PY) -m repro $$fig --shard 0/2 --resume $$rid > /dev/null 2>&1; \
	  then echo "armed shard_loss run should have failed"; exit 1; fi; \
	env REPRO_CACHE_DIR="$$cache" $(PY) -m repro $$fig \
	  --shard 1/2 --resume $$rid > /dev/null; \
	if env REPRO_CACHE_DIR="$$cache" $(PY) -m repro merge $$rid \
	  > /dev/null 2>&1; \
	  then echo "merge should have refused the lost shard"; exit 1; fi; \
	env REPRO_CACHE_DIR="$$cache" REPRO_FAULTS='seed=7,shard_loss:1.0' \
	  $(PY) -m repro $$fig --shard 0/2 --resume $$rid > /dev/null; \
	env REPRO_CACHE_DIR="$$cache" $(PY) -m repro merge $$rid; \
	env REPRO_CACHE_DIR="$$cache" $(PY) -m repro $$fig \
	  | strip > "$$work/got.txt"; \
	diff "$$work/clean.txt" "$$work/got.txt"; \
	echo "check-shards: merged shard output identical to single-host"

check-service:        ## kill+restart the service mid-job, diff vs clean CLI
	$(PY) tools/service_smoke.py

check-dse:            ## SIGINT a DSE study mid-search; resume must be byte-identical
	$(PY) tools/dse_smoke.py

check-ingest:         ## ingest a real edge list; mapped CSR must match in-memory
	$(PY) tools/ingest_smoke.py

bench:                ## full paper-reproduction benchmark run
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-engine:         ## throughput smoke: regenerates BENCH_engine.json
	$(PY) -m pytest -q benchmarks/test_engine_throughput.py

profile-engine:       ## cProfile hotspot report + ref/batch wall-clock A/B
	$(PY) tools/profile_engine.py

docs-check:           ## markdown link check + doctests in store/trace/graph modules
	python tools/check_links.py README.md DESIGN.md EXPERIMENTS.md docs/*.md
	$(PY) -m doctest src/repro/store.py \
	  src/repro/trace/record.py src/repro/trace/kernels.py \
	  src/repro/trace/store.py src/repro/trace/synthetic.py \
	  src/repro/graphs/io.py src/repro/graphs/csr.py \
	  src/repro/graphs/ingest.py
	@echo "docs-check: links and doctests OK"
