# Convenience targets around dune.  `make repro` regenerates the
# evaluation's tables and figures through the persistsim CLI;
# FUZZ_TRACES sets the long fuzz run's trace count.
#
# Timing lives in one place: perfbench/ (python3 perfbench/run.py,
# described by BENCHMARK.json).  `make bench` times only the
# micro-benchmarks no perfbench workload covers; CI gates on perfbench
# by running the parent commit and the change side by side (python3
# .github/perf_gate.py PARENT_DIR CHANGE_DIR).

.PHONY: all build test test-times repro repro-times bench bench-quick fuzz fmt-check smoke serve explore lockfree litmus census examples ci clean

all: build

build:
	dune build

test: build
	dune runtest

# `timed NAME 'COMMAND'` runs COMMAND (through eval, so it may be a
# pipeline or redirect its output), prints NAME, its wall time and
# ok/FAILED on one line, adds the time to $total and returns
# COMMAND's exit status.  Every target that prints wall times uses it.
TIMED = timed() { \
	  s=$$(date +%s.%N); \
	  if eval "$$2"; then r=ok; else r=FAILED; fi; \
	  d=$$(echo "$$(date +%s.%N) $$s" | awk '{printf "%.1f", $$1 - $$2}'); \
	  total=$$(echo "$$total $$d" | awk '{printf "%.1f", $$1 + $$2}'); \
	  printf '%-22s %7s s  %s\n' "$$1" "$$d" "$$r"; [ $$r = ok ]; \
	}; total=0

# Wall time of each tier-1 suite, run once, one after another, from the
# directory `dune runtest` uses; the last line is their sum.  Exits 1
# if any suite failed (its time is still printed).
test-times: build
	@$(TIMED); cd _build/default/test && status=0 && \
	for t in test_*.exe; do \
	  timed "$${t%.exe}" "./$$t > /dev/null 2>&1" || status=1; \
	done; \
	printf '%-22s %7s s\n' total "$$total"; exit $$status

# The paper's evaluation (Table 1, Figures 3-5, the Section 7
# validation) and the extension tables: the persistsim command each
# EXPERIMENTS.md section cites, at the size it quotes, one per word.
# Tables go to stdout, byte-identical for any --jobs; sweep profiles go
# to stderr.
REPRO = table1 fig3 fig4 fig5 "validate --inserts 8000" machine ablation \
	cache wear consistency kv \
	"serve --requests 768 --rate 64 --keys 96 --shards 1,2 --batch 1,8,32" \
	lockfree

repro: build
	@for c in $(REPRO); do \
	  echo "dune exec bin/persistsim.exe -- $$c"; \
	  dune exec bin/persistsim.exe -- $$c || exit 1; \
	done

# Wall time of each `make repro` command, run once, one after another
# (tables discarded); the last line is their sum.  Exits 1 if any
# command failed (its time is still printed).
repro-times: build
	@$(TIMED); status=0; \
	for c in $(REPRO); do \
	  timed "$${c%% *}" \
	    "./_build/default/bin/persistsim.exe $$c > /dev/null 2>&1" || status=1; \
	done; \
	printf '%-22s %7s s\n' total "$$total"; exit $$status

# The Bechamel micro-benchmarks that perfbench does not cover.
bench: build
	dune exec bench/main.exe

# Shrunk smoke run of the same (~5 s); exits 1 when a row has no
# finite time per run.
bench-quick: build
	BENCH_QUICK=1 dune exec bench/main.exe

# Long differential fuzz of the persist engine against the oracle:
# 2000 traces per model (the test suite's default is 200).
fuzz: build
	FUZZ_TRACES=2000 dune exec test/test_fuzz.exe

# Formatting gate (dune files; ocamlformat is not a dependency).
fmt-check:
	dune build @fmt

# Quick end-to-end check of the observability outputs: metrics and
# trace dumps (a sweep's and a DPOR exploration's) must be valid JSON,
# the graph export well-formed DOT and JSON lines, and the critical-chain
# walk must print its header and be as long as the engine's critical
# path.  Single-run failure injection (queue and KV) must pass clean and
# catch its --buggy demonstration.
smoke: build
	dune exec bin/persistsim.exe -- table1 --inserts 200 --metrics-out /tmp/persistsim-metrics.json > /dev/null
	python3 -m json.tool /tmp/persistsim-metrics.json > /dev/null
	dune exec bin/persistsim.exe -- fig3 --inserts 200 --trace-out /tmp/persistsim-trace.json > /dev/null
	python3 -m json.tool /tmp/persistsim-trace.json > /dev/null
	dune exec bin/persistsim.exe -- explore --workload kv --depth 2 --trace-out /tmp/persistsim-explore-trace.json > /dev/null
	python3 -m json.tool /tmp/persistsim-explore-trace.json > /dev/null
	dune exec bin/persistsim.exe -- graph --design cwl --model epoch --out /tmp/persistsim-graph.dot
	grep -q "digraph persist_graph" /tmp/persistsim-graph.dot
	dune exec bin/persistsim.exe -- graph --design cwl --model epoch --format jsonl --out /tmp/persistsim-graph.jsonl
	python3 -c 'import json, sys; [json.loads(l) for l in open(sys.argv[1])]' /tmp/persistsim-graph.jsonl
	dune exec bin/persistsim.exe -- analyze --inserts 2000 --explain | grep -q "^critical path: [0-9]* level(s) over [0-9]* node(s)"
	dune exec bin/persistsim.exe -- analyze --design 2lc --model racing-epochs --threads 4 --inserts 200 --explain | awk '/^critical path: +[0-9]+ \(/ { e = $$3 } /^critical path: [0-9]+ level/ { c = $$3 } END { exit !(e != "" && e == c) }'
	dune exec bin/persistsim.exe -- kv --inserts 100 > /dev/null
	dune exec bin/persistsim.exe -- kv --recovery --samples 100 > /dev/null
	dune exec bin/persistsim.exe -- kv --recovery --buggy | grep -q "RECOVERY VIOLATION"
	dune exec bin/persistsim.exe -- recovery > /dev/null
	dune exec bin/persistsim.exe -- recovery --buggy | grep -q "RECOVERY VIOLATION"

# Served KV smoke: a small sweep (the amortization table), group-commit
# recovery injection under each model (only strand issues the
# pre-record barrier), and the buggy batcher must be caught.
serve: build
	dune exec bin/persistsim.exe -- serve --requests 768 --rate 64 --keys 96 --shards 1,2 --batch 1,8,32 > /dev/null
	for m in strict epoch strand; do \
	  dune exec bin/persistsim.exe -- serve --recovery --model $$m --shards 2 --batch 3 --requests 24 --keys 16 --rate 1000 > /dev/null || exit 1; \
	done
	dune exec bin/persistsim.exe -- serve --recovery --buggy --shards 1 --batch 3 --requests 24 --keys 16 --rate 1000 | grep -q "RECOVERY VIOLATION"

# DPOR exploration smoke: the queue sweep against the brute-force
# oracle under each correct queue annotation (its CSV row must read a
# complete, safe search with as many distinct graphs as brute force
# finds), complete KV and lock-free explorations must end in their
# every-interleaving verdicts, and the buggy KV discipline and
# lock-free traversal must be flagged with a replayable
# counter-example.
ORACLE_CHECK = awk -F, '{ print } NR == 1 { for (i = 1; i <= NF; i++) col[$$i] = i; next } \
	{ n++; ok = $$col["complete"] == "true" && $$col["verdict"] == "safe" \
	  && $$col["distinct_graphs"] == $$col["brute_graphs"] } END { exit !(n == 1 && ok) }'

explore: build
	for m in epoch racing-epochs strand; do \
	  dune exec bin/persistsim.exe -- explore --workload queue --model $$m --depth 2 --oracle --csv \
	    | $(ORACLE_CHECK) || exit 1; \
	done
	dune exec bin/persistsim.exe -- explore --workload kv --model strand --depth 2 | grep -q "^recovery and durable linearizability hold in all [0-9]* distinct crash states (.*) of every interleaving$$"
	dune exec bin/persistsim.exe -- explore --workload kv --buggy --depth 2 | grep -q "RECOVERY VIOLATION"
	dune exec bin/persistsim.exe -- explore --workload lockfree --depth 1 --model epoch --machine sc | grep -q "^recovery and durable linearizability hold in all [0-9]* distinct crash states (exhaustive) of every interleaving$$"
	dune exec bin/persistsim.exe -- explore --workload lockfree --buggy --depth 2 | grep -q "RECOVERY VIOLATION"

# Lock-free CAS set: the flush-all vs NVTraverse sweep, recovery
# injection of the correct discipline (a complete exploration claims
# every interleaving, a bounded one names its bound), and the buggy
# traversal (no pre-CAS destination flush) must be caught.  Each line
# prints its wall time, so a CI log shows what the DPOR loop costs.
lockfree: build
	@$(TIMED); timed "sweep" \
	  'dune exec bin/persistsim.exe -- lockfree --inserts 64 > /dev/null'
	@$(TIMED); timed "recovery sc depth 1" \
	  'dune exec bin/persistsim.exe -- lockfree --recovery --discipline nvtraverse --depth 1 --model sc | grep -q "^recovery and durable linearizability hold in all [0-9]* distinct crash states (exhaustive) of every interleaving$$"'
	@$(TIMED); timed "recovery sc depth 2" \
	  'dune exec bin/persistsim.exe -- lockfree --recovery --discipline nvtraverse --depth 2 --model sc --max-schedules 2048 | grep -q "of the 2048 schedules run before --max-schedules 2048 stopped the search$$"'
	@$(TIMED); timed "recovery tso-buffered" \
	  'dune exec bin/persistsim.exe -- lockfree --recovery --discipline nvtraverse --depth 1 --model tso-buffered | grep -q "of the 100000 schedules run before --max-schedules 100000 stopped the search$$"'
	@$(TIMED); timed "buggy sc depth 2" \
	  'dune exec bin/persistsim.exe -- lockfree --buggy --depth 2 --model sc | grep -q "RECOVERY VIOLATION"'

# Litmus suite: every program's outcome set checked exhaustively under
# the full machine matrix (sc, tso-sync, tso-buffered; brute force +
# engine/oracle cross-check), then again with DPOR; the queue sweep on
# the SC vs TSO machine.
litmus: build
	dune exec bin/persistsim.exe -- litmus --model all
	dune exec bin/persistsim.exe -- litmus --model all --dpor
	dune exec bin/persistsim.exe -- machine --inserts 2000 > /dev/null

# The depth-3 DPOR vs brute-force census (CWL, 2 threads x 3 inserts):
# the same 20 distinct graphs, all safe, from 212 DPOR schedules and
# 423,556 brute-force traces.  The largest equivalence check, so it
# runs here rather than in `dune runtest`, which keeps depth 2.
census: build
	dune exec test/census/census.exe

# Every example, run: each exits 1 when a result it prints as holding
# (recovery safety, an ordering or critical-path claim) does not hold.
examples: build
	dune exec examples/quickstart.exe > /dev/null
	dune exec examples/wal_database.exe > /dev/null
	dune exec examples/kvstore.exe > /dev/null
	dune exec examples/figure1_cycle.exe > /dev/null
	dune exec examples/queue_dependences.exe > /dev/null

# What .github/workflows/ci.yml runs.
ci: fmt-check build test smoke serve explore lockfree litmus census examples bench-quick

clean:
	dune clean
