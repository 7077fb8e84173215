#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, rustdoc, the benchmark's smoke pass and
# unit tests, the shipped binaries end to end, two contract gates. Run
# before every commit.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
# The root is a virtual workspace: the unfiltered run above covers every
# member's unit and integration tests. The wait-free pool's ordering of
# occupancy word against slot state only races at speed in optimised code,
# so its tests run again in release — filtered by name, so the racy
# baseline's probabilistic leak test does not run twice.
cargo test --release -q -p uintah-comm pool
cargo test --release -q --test concurrency wait_free
cargo test --doc -q
cargo clippy --workspace --all-targets -- -D warnings
# Deleting a type leaves `[`Name`]` links behind in docs that nothing else
# compiles: rustdoc with warnings denied catches them.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q
# The benchmark package lives outside the workspace and builds against
# these crates' public API: run its smoke pass here (all five workloads on
# small grids, every operation checked against reference_multilevel /
# scalar_march / a solo run_world), so an API change that would break the
# benchmark, or an engine change that would fail one of its correctness
# checks, fails tier-1 instead of failing the benchmark.
cargo run --release --offline --quiet --manifest-path perf_report/Cargo.toml -- --smoke --seconds 1
# The harness's own unit tests, its metric-catalogue-vs-BENCHMARK.json
# check among them: an API change that breaks only perf_report's test
# code fails tier-1 too.
cargo test --offline -q --manifest-path perf_report/Cargo.toml
# rmcrt_app on its own advertised defaults: what --print-default-config
# prints must parse, build, run and report divQ.
cargo run --release -q --bin rmcrt_app -- --print-default-config > target/default.cfg
cargo run --release -q --bin rmcrt_app -- target/default.cfg
# rmcrt_app through its one step loop end to end: GPU tasks on a 2-device
# fleet per rank, 2 ranks x 2 threads, 3 timesteps with an ownership
# rotation before every step after the first — the persistent executor,
# GPU staging, LRU-capable allocation and regrid migration, all through
# the shipped binary.
printf '%s\n' 'gpu = true' 'gpus_per_rank = 2' 'ranks = 2' 'threads = 2' \
    'timesteps = 3' 'regrid_interval = 1' 'regrid_policy = rotate' > target/gpu_regrid.cfg
cargo run --release -q --bin rmcrt_app -- target/gpu_regrid.cfg
# The shipped server binaries end to end: rmcrt_serve on a 2-device fleet,
# the same GPU + regrid job submitted over its Unix socket by rmcrt_submit,
# then a drain and shutdown. The server exits 0 only when its fleet meters
# read 0 B after the drain; the trap stops it if any step fails first.
rm -f target/rmcrt.sock
./target/release/rmcrt_serve target/rmcrt.sock --gpus 2 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 100); do [ -S target/rmcrt.sock ] && break; sleep 0.1; done
./target/release/rmcrt_submit target/rmcrt.sock target/gpu_regrid.cfg
./target/release/rmcrt_submit target/rmcrt.sock --shutdown
wait "$serve_pid"
trap - EXIT
# A server argument it cannot start with is a usage error (exit 2), not a panic.
status=0
./target/release/rmcrt_serve target/x.sock --workers 0 || status=$?
[ "$status" -eq 2 ]
# E12 scaling-campaign regression gate, LARGE 16³-patch curve, two halves.
# Model-limited: calibrated from the checked-in CALIBRATION.snapshot, the
# Eq.-3 efficiencies must match the checked-in BENCH_scaling.json
# (tolerance in rmcrt_bench::campaign) — deterministic, red only when
# titan-sim / campaign code changes. Host-limited: calibrated from a real
# executor run on this host, held to the paper-shape floors only (eff
# 16→2048 ≥ 0.90, knee > 8192), because a busy host moves the measured
# message cost severalfold. Measured false-failure rate: 0 of 50 runs
# (EXPERIMENTS E25). Regenerate both files from a live run after
# intentional model changes with:
#   cargo run --release -p rmcrt-bench --bin scaling_gate -- --update
cargo run --release -q -p rmcrt-bench --bin scaling_gate
# Packet ray-march regression gate: scalar-vs-packet bit-identity on two
# workloads, fixed-mode speedup floor, adaptive packet path >= 2x the
# scalar baseline at matched region-mean divQ, and neither speedup more
# than 10% below the checked-in BENCH_ray_march.json pair (model-limited:
# the frozen scalar is timed beside the packet engine, so the ratio does
# not move with the host; cells/s is host-limited and only printed).
# Measured false-failure rate: 3 of 50 runs, all on the trace >= trace_one
# lane floor, the one gated ratio without a frozen twin (EXPERIMENTS E25).
# Regenerate after intentional engine changes with:
#   cargo run --release -p rmcrt-bench --bin ray_march_gate -- --update
cargo run --release -q -p rmcrt-bench --bin ray_march_gate
