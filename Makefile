# Tier-1 verification and CI entry points. `make ci` is the full gate.

CARGO ?= cargo

.PHONY: ci fmt fmt-check clippy clippy-simd build test test-simd doc stress bench bench-smoke bench-pairs examples lint-artifacts

# The simd lanes re-run clippy and the test suite with the SSE2
# intrinsics swapped in (the `simd` feature on the facade crate forwards
# to homunculus-ml and homunculus-runtime); verdicts must stay
# bit-identical, so the same tests gate both kernel tiers.
ci: fmt-check clippy clippy-simd build test test-simd doc stress lint-artifacts bench-smoke

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy -q --workspace --all-targets -- -D warnings

clippy-simd:
	$(CARGO) clippy -q --workspace --all-targets --features homunculus/simd -- -D warnings

build:
	$(CARGO) build --release --workspace --examples --benches

# Both test lanes build first, outside any limit, then run under
# `timeout`: the suites drive resident worker pools (and one tenant that
# panics on purpose), where a chunk that never reaches a worker hangs its
# ticket's waiter rather than failing a test, and a hung lane must fail
# the gate, not hold it.
define run_tests
	$(CARGO) test -q --workspace $(1) --no-run
	@timeout 1800 $(CARGO) test -q --workspace $(1); \
	status=$$?; \
	if [ $$status -eq 124 ]; then \
		echo "$@: hung (no result in 1800 s)"; exit 1; \
	elif [ $$status -ne 0 ]; then \
		echo "$@: failed"; exit 1; \
	fi
endef

test:
	$(call run_tests,)

test-simd:
	$(call run_tests,--features homunculus/simd)

# API docs for the homunculus crates (vendor stand-ins excluded), with
# rustdoc warnings denied so broken intra-doc links fail the gate.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc -q --no-deps --workspace \
		--exclude serde --exclude serde_derive --exclude serde_json \
		--exclude rand --exclude proptest --exclude criterion

# Repeated release-mode runs of the two suites that saturate the
# deployment ingress (`ingress_stress`: multi-producer hammer,
# cancellation/drain races, saturated-admission deadlines, windowed-floor
# property; `serving_isolation`: eight producers behind a two-ticket
# depth). The ingress is a mutex and two condition variables, so its
# failure mode is a wake-up that is never sent: a run that *hangs*, not
# one that fails, and only under an interleaving one run may not meet.
# Hence STRESS_RUNS consecutive passes, each under `timeout` so that a
# hung run fails the gate instead of holding it until the CI runner's
# own limit. The suites take well under a second per iteration; the test
# binaries are built first, outside the limit.
STRESS_RUNS ?= 25
STRESS_SUITES = --test ingress_stress --test serving_isolation

stress:
	$(CARGO) test -q --release $(STRESS_SUITES) --no-run
	@for i in $$(seq 0 $(STRESS_RUNS)); do \
		timeout 120 $(CARGO) test -q --release $(STRESS_SUITES) >/dev/null 2>&1; \
		status=$$?; \
		if [ $$status -eq 124 ]; then \
			echo "stress: run $$i hung (no result in 120 s)"; exit 1; \
		elif [ $$status -ne 0 ]; then \
			echo "stress: failed on run $$i/$(STRESS_RUNS)"; exit 1; \
		fi; \
	done
	@echo "stress: $(STRESS_RUNS) consecutive runs passed"

bench:
	$(CARGO) bench -p homunculus-bench

# The benchmark's own suite, one smoke run of every workload included.
# hbench is a workspace of its own, so nothing in `cargo test --workspace`
# notices when a product API it calls disappears: this target does. Full
# runs and parent-vs-change comparisons are `hbench run --all` and
# `hbench compare` (crates/bench/src/bin/hbench/README.md).
bench-smoke:
	$(CARGO) test --release --offline --manifest-path crates/bench/src/bin/hbench/Cargo.toml

# Parent against change: `make bench-pairs A=<parent tree> B=<change tree>
# W=<workload> SEEDS="1 2 ..."`, one alternating pair of full-length runs
# per seed. Both trees must already hold a built hbench (nothing compiles
# while a run is timed); verdicts use BENCHMARK.json's bounds. Minutes per
# pair, so not part of `ci`.
bench-pairs:
	scripts/hbench-pairs.sh $(A) $(B) $(W) $(SEEDS)

examples:
	$(CARGO) build --release --examples

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
