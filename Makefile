# Tier-1 verification and CI entry points. `make ci` is the full gate.

CARGO ?= cargo

.PHONY: ci fmt fmt-check clippy build test doc stress bench-smoke bench-pairs paper-smoke paper examples examples-smoke lint-artifacts

# One lane per check: there is one build of the kernels (portable, no
# cargo feature selects another), so the binary linted and tested here is
# the binary hbench measures and a deployment serves.
ci: fmt-check clippy build test doc stress lint-artifacts bench-smoke paper-smoke examples-smoke

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy -q --workspace --all-targets -- -D warnings

build:
	$(CARGO) build --release --workspace --examples

# The test lane builds first, outside any limit, then runs under
# `timeout`: the suites drive resident worker pools (and one tenant that
# panics on purpose), where a chunk that never reaches a worker hangs its
# ticket's waiter rather than failing a test, and a hung lane must fail
# the gate, not hold it.
test:
	$(CARGO) test -q --workspace --no-run
	@timeout 1800 $(CARGO) test -q --workspace; \
	status=$$?; \
	if [ $$status -eq 124 ]; then \
		echo "test: hung (no result in 1800 s)"; exit 1; \
	elif [ $$status -ne 0 ]; then \
		echo "test: failed"; exit 1; \
	fi

# API docs for the homunculus crates (vendor stand-ins excluded), with
# rustdoc warnings denied so broken intra-doc links fail the gate.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc -q --no-deps --workspace \
		--exclude serde_json --exclude rand --exclude proptest

# Repeated release-mode runs of the suites that saturate the deployment
# ingress (`ingress_stress`: multi-producer hammer, cancellation/drain
# races, saturated-admission deadlines, windowed-floor property;
# `serving_isolation`: eight producers behind a two-ticket depth), of
# `deployment_lifecycle`, and of the `homunculus-runtime` `deploy::` unit
# tests, which pin the individual wake edges (a blocked submit admitted
# when the budget frees, shutdown releasing a blocked submit, parked
# workers woken by resume). The ingress is a mutex and two condition
# variables, so its failure mode is a wake-up that is never sent: a run
# that *hangs*, not one that fails, and only under an interleaving one
# run may not meet. Hence STRESS_RUNS consecutive passes, each under
# `timeout` so that a hung run fails the gate instead of holding it until
# the CI runner's own limit. The suites take well under a second per
# iteration; the test binaries are built first, outside the limit.
STRESS_RUNS ?= 25
STRESS_SUITES = --test ingress_stress --test serving_isolation --test deployment_lifecycle

stress:
	$(CARGO) test -q --release $(STRESS_SUITES) --no-run
	$(CARGO) test -q --release -p homunculus-runtime --lib --no-run
	@for i in $$(seq 0 $(STRESS_RUNS)); do \
		timeout 120 $(CARGO) test -q --release $(STRESS_SUITES) >/dev/null 2>&1 && \
		timeout 120 $(CARGO) test -q --release -p homunculus-runtime --lib deploy:: \
			>/dev/null 2>&1; \
		status=$$?; \
		if [ $$status -eq 124 ]; then \
			echo "stress: run $$i hung (no result in 120 s)"; exit 1; \
		elif [ $$status -ne 0 ]; then \
			echo "stress: failed on run $$i/$(STRESS_RUNS)"; exit 1; \
		fi; \
	done
	@echo "stress: $(STRESS_RUNS) consecutive runs passed"

# The benchmark's own suite, one smoke run of every workload included.
# hbench is a workspace of its own, so nothing in `cargo test --workspace`
# notices when a product API it calls disappears: this target does. Full
# runs and parent-vs-change comparisons are `hbench run --all` and
# `hbench compare` (crates/bench/src/bin/hbench/README.md).
bench-smoke:
	$(CARGO) test --release --offline --manifest-path crates/bench/src/bin/hbench/Cargo.toml

# Parent against change: `make bench-pairs A=<parent tree> B=<change tree>
# W=<workload> SEEDS="1 2 ..."`, one alternating pair of full-length runs
# per seed; `W=all` runs every workload BENCHMARK.json lists. Both trees
# must already hold a built hbench (nothing compiles while a run is
# timed); verdicts use BENCHMARK.json's bounds. Minutes per pair, so not
# part of `ci`.
bench-pairs:
	scripts/hbench-pairs.sh $(A) $(B) $(W) $(SEEDS)

# The paper's tables and figures: one `paper` binary
# (crates/bench/src/bin/paper.rs), one library function per experiment,
# each printing its table and its shape checks. `paper` exits non-zero
# when a check is false that `EXPECTED_FAILURES` (crates/bench/src/lib.rs)
# does not list, or holds when it does. `paper-smoke` is the part of
# `ci`: the five experiments that finish in under two seconds each in
# release, one by one under `timeout`, failing on a non-zero exit or on
# any byte of stdout that differs from crates/bench/golden/<exp>.txt
# (every printed number is seeded, so the output is byte-stable).
# `paper` runs `paper all` (~2 min on 2 vCPUs): every experiment in one
# process, Table 2's six models built once for `table2` and `table5`,
# failing on a non-zero exit or on any byte of stdout that differs from
# crates/bench/golden/all.txt.
# To re-pin, run the experiment with its stdout redirected to its file
# (`cargo run -q --release -p homunculus-bench --bin paper -- fig6 >
# crates/bench/golden/fig6.txt`, or `-- all > crates/bench/golden/all.txt`)
# and review the diff. A re-pin belongs to the change that moves training
# (or a cost model) or a shape check, and says why, and re-pins all.txt
# with the per-experiment file; any other change leaves the files alone.
PAPER_SMOKE = fig6 fig7 table3 table4 reaction_time

paper-smoke:
	$(CARGO) build -q --release -p homunculus-bench --bin paper
	@for exp in $(PAPER_SMOKE); do \
		out=$$(mktemp); \
		timeout 60 $(CARGO) run -q --release -p homunculus-bench --bin paper -- $$exp >$$out; \
		status=$$?; \
		if [ $$status -eq 124 ]; then \
			echo "paper-smoke: $$exp hung (no result in 60 s)"; rm -f $$out; exit 1; \
		elif [ $$status -ne 0 ]; then \
			echo "paper-smoke: $$exp failed"; rm -f $$out; exit 1; \
		fi; \
		if ! diff -u crates/bench/golden/$$exp.txt $$out; then \
			echo "paper-smoke: $$exp printed something other than crates/bench/golden/$$exp.txt"; \
			rm -f $$out; exit 1; \
		fi; \
		rm -f $$out; \
	done
	@echo "paper-smoke: $(PAPER_SMOKE) ran clean and match crates/bench/golden"

paper:
	$(CARGO) build -q --release -p homunculus-bench --bin paper
	@out=$$(mktemp); \
	$(CARGO) run -q --release -p homunculus-bench --bin paper -- all >$$out; \
	status=$$?; \
	if [ $$status -ne 0 ]; then \
		echo "paper: failed"; rm -f $$out; exit 1; \
	fi; \
	if ! diff -u crates/bench/golden/all.txt $$out; then \
		echo "paper: printed something other than crates/bench/golden/all.txt"; \
		rm -f $$out; exit 1; \
	fi; \
	rm -f $$out; \
	echo "paper: all experiments ran clean and match crates/bench/golden/all.txt"

examples:
	$(CARGO) build --release --examples

# The examples no other lane runs (lint-artifacts runs quickstart,
# multi_app_chaining and fleet_serving), one by one under `timeout`: an
# example that still compiles but errors at run time fails the gate.
# Each takes a few seconds at most in release.
examples-smoke:
	$(CARGO) build -q --release --examples
	@for ex in anomaly_detection botnet_detection model_fusion traffic_classification; do \
		timeout 60 $(CARGO) run -q --release --example $$ex >/dev/null; \
		status=$$?; \
		if [ $$status -eq 124 ]; then \
			echo "examples-smoke: $$ex hung (no result in 60 s)"; exit 1; \
		elif [ $$status -ne 0 ]; then \
			echo "examples-smoke: $$ex failed"; exit 1; \
		fi; \
	done
	@echo "examples-smoke: anomaly_detection botnet_detection model_fusion traffic_classification ran clean"

# The static verification gate over real artifacts: run the examples
# that save compile artifacts (quickstart emits JSON, the chaining
# example both JSON-loads and re-saves, fleet_serving replicates its
# artifact across a 20-switch fat-tree and asserts bit-identical fleet
# verdicts), then lint every produced file with `homunculus-analyze`.
# The seeded-defect corpus (exact HA codes, nonzero CLI exits) rides in
# the `static_analysis` integration test.
lint-artifacts:
	$(CARGO) run --release --example quickstart >/dev/null
	$(CARGO) run --release --example multi_app_chaining >/dev/null
	$(CARGO) run --release --example fleet_serving >/dev/null
	$(CARGO) run --release --bin homunculus-analyze -- \
		"$${TMPDIR:-/tmp}/homunculus_quickstart.artifact.json" \
		"$${TMPDIR:-/tmp}/homunculus_chain.artifact.json" \
		"$${TMPDIR:-/tmp}/homunculus_fleet.artifact.json"
	$(CARGO) test -q --release --test static_analysis >/dev/null
	@echo "lint-artifacts: example artifacts are error-free"
