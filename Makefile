# Offline-only developer entry points; CI (.github/workflows/ci.yml)
# runs the same `check` sequence.

CARGO ?= cargo

.PHONY: check fmt clippy doc build test examples experiments trace-smoke tcp-smoke stress chaos overload scrape-smoke soak-smoke failover tamper poabench poabench-smoke bench-json bench-diff

check: fmt clippy doc test trace-smoke tcp-smoke chaos overload soak-smoke failover tamper poabench

fmt:
	$(CARGO) fmt --all -- --check

clippy:
	$(CARGO) clippy --workspace --all-targets --offline -- -D warnings

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --workspace --no-deps --offline

build:
	$(CARGO) build --workspace --release --offline

test:
	$(CARGO) test --workspace --release --offline -q

trace-smoke:
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_trace

# Loopback-only: submits a scenario PoA over 127.0.0.1 TCP and checks
# byte parity with the in-process transport. No external network.
tcp-smoke:
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_tcp

# The networked-auditor stress test on its own (it also runs in `test`).
stress:
	$(CARGO) test --release --offline --test wire_concurrency -q

# Seeded chaos campaign (fixed seeds, deterministic replay, offline)
# plus the on-disk crash-recovery smoke. Also runs inside `test`.
chaos:
	$(CARGO) test --release --offline --test chaos -q
	$(CARGO) run --release --offline --example crash_recovery

# Overload-protection campaign (bounded admission queue, deadline
# shedding, rate limiting, circuit breaking) plus the 4x-load TCP
# smoke. The campaign also runs inside `test`.
overload:
	$(CARGO) test --release --offline --test overload -q
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_tcp -- --overload

# Live-introspection smoke: the overload burst with the scrape endpoint
# mounted; the binary fetches its own /metrics and asserts on it.
scrape-smoke:
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_tcp -- --overload --scrape

# Fleet soak smoke (~200 drones, two seeded runs, well under a minute):
# staged load against the TCP auditor with SLO verdicts judged from
# scraped windows. Asserts the chaos phase breaches, healthy phases
# pass, verdicts are identical across both runs, and the written
# target/SOAK_report.json machine-checks after a disk round trip.
soak-smoke:
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_soak -- --smoke --out target/SOAK_report.json

# Kill-the-primary failover gate: a reduced-seed replication chaos
# campaign (FAILOVER_SEEDS trims the default 40 seeds), the replicated
# soak with its kill-and-promote phase (report lands in
# target/SOAK_failover_report.json for CI to archive), and the
# end-to-end failover example.
failover:
	FAILOVER_SEEDS=$(or $(FAILOVER_SEEDS),12) $(CARGO) test --release --offline --test failover -q
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_soak -- --smoke --failover --out target/SOAK_failover_report.json
	$(CARGO) run --release --offline --example failover

# Tamper-evidence gate: the seeded tamper-injection campaign against
# the hash-chained audit log (TAMPER_SEEDS trims the default 40 seeds;
# every arm — bit flips, reorders, drops, rewrites, checkpoint-root
# forgeries, replication splices — must be detected, never silently
# accepted), then the tamper-mode soak where every drone verifies tree
# heads and inclusion/consistency proofs offline (report lands in
# target/SOAK_tamper_report.json for CI to archive).
tamper:
	TAMPER_SEEDS=$(or $(TAMPER_SEEDS),12) $(CARGO) test --release --offline --test tamper -q
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_soak -- --smoke --tamper --out target/SOAK_tamper_report.json

# The repository benchmark (poabench/, a package with its own
# workspace; see BENCHMARK.json): its unit tests.
poabench:
	$(CARGO) test --release --offline --manifest-path poabench/Cargo.toml

# Its smoke run drives every workload untraced and traced at tiny sizes
# and fails when a metric is missing, an output check fails, or a traced
# run does not reconcile (~20 s on 2 cores). Not in `check` yet: its
# audit_mix_1024 traced run does not reconcile on 2-vCPU hosts (see
# ROADMAP.md).
poabench-smoke:
	$(CARGO) run --release --offline --quiet --manifest-path poabench/Cargo.toml -- --smoke

# Regenerate the persistent perf baseline (BENCH_poa.json at the repo
# root). BENCH_POA_SAMPLES trades precision for wall time.
bench-json:
	$(CARGO) run -p alidrone-bench --release --offline --bin bench_poa

# Compare a fresh run against the committed baseline without touching
# it. Exits non-zero when a case's median regresses past the threshold
# (default 25%); pass BENCH_GATE=prefix,prefix to narrow which cases
# can fail, as CI does for the crypto fast path.
bench-diff:
	$(CARGO) run -p alidrone-bench --release --offline --bin bench_poa -- --out target/BENCH_poa.new.json
	$(CARGO) run -p alidrone-bench --release --offline --bin bench_poa -- --diff BENCH_poa.json target/BENCH_poa.new.json $(if $(BENCH_GATE),--gate $(BENCH_GATE))

examples:
	$(CARGO) build --release --offline --examples

experiments:
	$(CARGO) run -p alidrone-sim --release --offline --bin exp_all
