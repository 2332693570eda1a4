#!/usr/bin/env bash
# Full local check: build, tests, docs, lints, and the determinism
# guarantee of the parallel experiment runner.
#
# Usage: ./scripts/check.sh [--fast]
#   --fast  skip the release-build determinism comparison
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# Fails the check unless two outputs are byte-identical: names what
# differed, shows the head of the diff and removes the temporary paths
# given after the two files.
# Usage: same_output <what differed> <expected> <actual> [temp paths...]
same_output() {
    local what=$1 expected=$2 actual=$3
    shift 3
    cmp -s "$expected" "$actual" && return 0
    echo "error: $what" >&2
    diff "$expected" "$actual" | head -20 >&2
    rm -rf "$@"
    exit 1
}

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> sessionbench self-tests (its own workspace, built on the session types' public surface)"
cargo test --release --offline --manifest-path sessionbench/Cargo.toml

echo "==> cargo doc --no-deps (missing_docs must be clean)"
doc_log=$(cargo doc --no-deps 2>&1) || { echo "$doc_log"; exit 1; }
if grep -q "warning" <<<"$doc_log"; then
    echo "$doc_log"
    echo "error: rustdoc produced warnings" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> fixed-seed exact-tracker-vs-batch proptests"
cargo test -p anonet-linalg --test proptests --quiet

echo "==> cargo fmt --check -p anonet-linalg (formatting ratchet)"
cargo fmt --check -p anonet-linalg

echo "==> cargo bench --no-run (criterion groups must compile)"
cargo bench --workspace --no-run --quiet

if [[ $fast -eq 0 ]]; then
    echo "==> BENCH schema smoke (exp_linalg_scaling --smoke)"
    cargo build --release -p anonet-bench --quiet
    target/release/exp_linalg_scaling --smoke >/dev/null
fi

if [[ $fast -eq 0 ]]; then
    echo "==> SoA round engine: exp_scale --smoke (one n=10^5 execution) vs its golden"
    cargo build --release -p anonet-bench --quiet
    # The run re-proves in-process that the engine reproduces the
    # reference simulator on the shared cell and that the leader decides
    # the exact count at horizon + 2; the committed document pins every
    # deterministic column (horizon, decision round, rounds, deliveries,
    # interned histories).
    sbin=target/release/exp_scale
    sfresh=$(mktemp)
    "$sbin" --smoke --json --no-timings >"$sfresh"
    same_output "exp_scale --smoke differs from tests/golden/exp_scale_smoke.json" \
        tests/golden/exp_scale_smoke.json "$sfresh" "$sfresh"
    rm -f "$sfresh"

    echo "==> committed BENCH_scale.json gates (exp_scale --lint-bench: speedup floor, n >= 10^5)"
    "$sbin" --lint-bench BENCH_scale.json >/dev/null
fi

if [[ $fast -eq 0 ]]; then
    echo "==> algorithm crossover grid: exp_crossover --smoke (kernel vs history-tree vs oracle)"
    cargo build --release -p anonet-bench --quiet
    # Each run re-proves in-process that the history-tree arm decides
    # the exact count at horizon + 2 on both the clean and the faulted
    # cell while the faulted kernel arm does not; the cmp additionally
    # pins the timing-stripped document across thread counts (every
    # deterministic column is serial, so the flag must be inert).
    cbin=target/release/exp_crossover
    "$cbin" --smoke >/dev/null
    cserial=$(mktemp) cparallel=$(mktemp)
    "$cbin" --smoke --threads 1 --json --no-timings >"$cserial"
    "$cbin" --smoke --threads 4 --json --no-timings >"$cparallel"
    same_output "exp_crossover output differs between 1 and 4 threads" \
        "$cserial" "$cparallel" "$cserial" "$cparallel"
    # The committed document pins every verdict and round column, so a
    # runner change cannot move one silently.
    same_output "exp_crossover --smoke differs from tests/golden/exp_crossover_smoke.json" \
        tests/golden/exp_crossover_smoke.json "$cserial" "$cserial" "$cparallel"
    rm -f "$cserial" "$cparallel"

    echo "==> committed BENCH_crossover.json gates (exp_crossover --lint-bench: crossover cell, n >= 29524)"
    "$cbin" --lint-bench BENCH_crossover.json >/dev/null
fi

echo "==> strict missing-docs on the simulation core (anonet-multigraph, anonet-netsim)"
cargo rustc -p anonet-multigraph --lib --quiet -- -D missing-docs
cargo rustc -p anonet-netsim --lib --quiet -- -D missing-docs

if [[ $fast -eq 0 ]]; then
    echo "==> fault-injection safety gate (exp_faults --smoke: zero silent-wrong with watchdogs on)"
    cargo build --release -p anonet-bench --quiet
    # The smoke corpus asserts in-process that no guarded run reports a
    # wrong count; an escape panics the cell and exits non-zero.
    target/release/exp_faults --smoke >/dev/null

    echo "==> fault-injection determinism: exp_faults --smoke, 1 vs 4 threads"
    fbin=target/release/exp_faults
    fserial=$(mktemp) fparallel=$(mktemp)
    "$fbin" --smoke --threads 1 --json --no-timings >"$fserial"
    "$fbin" --smoke --threads 4 --json --no-timings >"$fparallel"
    same_output "exp_faults output differs between 1 and 4 threads" \
        "$fserial" "$fparallel" "$fserial" "$fparallel"
    same_output "exp_faults --smoke differs from tests/golden/exp_faults_smoke.json" \
        tests/golden/exp_faults_smoke.json "$fserial" "$fserial" "$fparallel"
    rm -f "$fserial" "$fparallel"
fi

if [[ $fast -eq 0 ]]; then
    echo "==> socketed runtime gate (exp_net --smoke: loopback TCP vs in-memory oracle)"
    cargo build --release -p anonet-bench --quiet
    # Every cell spawns a real loopback cluster (>= 8 peer threads plus
    # fault proxies) and asserts in-process that the socketed verdict
    # equals the in-memory oracle's for every fault-plan family, that
    # drop/duplicate plans really rewrite frames on the wire, that the
    # archived E22a silent-wrong schedules cannot extract a wrong count
    # over TCP, and that a hung peer surfaces as a typed RoundTimeout
    # inside its deadline budget. The hard timeout is the meta-watchdog:
    # a wedged barrier fails the check instead of hanging CI.
    nfresh=$(mktemp)
    timeout 300 target/release/exp_net --smoke --json --no-timings >"$nfresh"
    # The committed document pins every verdict, frame-rewrite and
    # budget cell; no cell prints a measured time.
    same_output "exp_net --smoke differs from tests/golden/exp_net_smoke.json" \
        tests/golden/exp_net_smoke.json "$nfresh" "$nfresh"
    rm -f "$nfresh"
fi

if [[ $fast -eq 0 ]]; then
    echo "==> adversary-search gate (exp_search --smoke: every archive replays its verdict)"
    cargo build --release -p anonet-bench --quiet
    # Bounded iteration budget (24 mutants/campaign); each run replays
    # every archived schedule through the verdict oracle in-process.
    target/release/exp_search --smoke >/dev/null

    echo "==> adversary-search determinism: exp_search --smoke, 1 vs 4 threads"
    xbin=target/release/exp_search
    xserial=$(mktemp) xparallel=$(mktemp)
    "$xbin" --smoke --threads 1 --json >"$xserial"
    "$xbin" --smoke --threads 4 --json >"$xparallel"
    same_output "exp_search output differs between 1 and 4 threads" \
        "$xserial" "$xparallel" "$xserial" "$xparallel"
    rm -f "$xserial" "$xparallel"

    echo "==> adversary-search crash safety: inject-panic -> lint -> resume -> byte-compare"
    xdir=$(mktemp -d)
    xckpt="$xdir/search.checkpoint.jsonl"
    "$xbin" --smoke --threads 4 --json >"$xdir/ref.json"
    if "$xbin" --smoke --threads 4 --json \
        --checkpoint "$xckpt" --inject-panic 2 >/dev/null 2>"$xdir/panic.log"; then
        echo "error: exp_search with --inject-panic 2 exited zero" >&2
        rm -rf "$xdir"
        exit 1
    fi
    "$xbin" --lint-checkpoint "$xckpt" >/dev/null
    "$xbin" --smoke --threads 4 --json \
        --checkpoint "$xckpt" --resume >"$xdir/resumed.json" 2>/dev/null
    same_output "resumed exp_search --json differs from an uninterrupted run" \
        "$xdir/ref.json" "$xdir/resumed.json" "$xdir"
    rm -rf "$xdir"
fi

if [[ $fast -eq 0 ]]; then
    echo "==> parallel determinism: exp_all --quick, 1 vs 4 threads"
    cargo build --release -p anonet-bench --quiet
    bin=target/release/exp_all
    serial=$(mktemp) parallel=$(mktemp)
    trap 'rm -f "$serial" "$parallel"' EXIT
    "$bin" --quick --threads 1 >"$serial"
    "$bin" --quick --threads 4 >"$parallel"
    same_output "exp_all output differs between 1 and 4 threads" "$serial" "$parallel"
fi

if [[ $fast -eq 0 ]]; then
    echo "==> crash safety: inject-panic -> lint -> resume -> byte-compare (exp_all --quick)"
    cargo build --release -p anonet-bench --quiet
    bin=target/release/exp_all
    crashdir=$(mktemp -d)
    trap 'rm -f "$serial" "$parallel"; rm -rf "$crashdir"' EXIT
    ckpt="$crashdir/grid.checkpoint.jsonl"
    "$bin" --quick --threads 4 --json --no-timings >"$crashdir/ref.json"
    # Cell 2 panics; the run must fail, journal the surviving cells, and
    # leave a journal that lints clean (fsync-per-line: no torn lines).
    if "$bin" --quick --threads 4 --json --no-timings \
        --checkpoint "$ckpt" --inject-panic 2 >/dev/null 2>"$crashdir/panic.log"; then
        echo "error: exp_all with --inject-panic 2 exited zero" >&2
        exit 1
    fi
    "$bin" --lint-checkpoint "$ckpt" >/dev/null
    "$bin" --quick --threads 4 --json --no-timings \
        --checkpoint "$ckpt" --resume >"$crashdir/resumed.json" 2>/dev/null
    same_output "resumed exp_all --json differs from an uninterrupted run" \
        "$crashdir/ref.json" "$crashdir/resumed.json"

    echo "==> crash safety: SIGKILL mid-grid leaves no truncated checkpoint line"
    killckpt="$crashdir/killed.checkpoint.jsonl"
    "$bin" --threads 1 --checkpoint "$killckpt" >/dev/null 2>&1 &
    victim=$!
    # Wait for at least one journaled cell, then kill -9 mid-grid.
    for _ in $(seq 1 200); do
        [[ -s "$killckpt" ]] && break
        sleep 0.05
    done
    if [[ ! -s "$killckpt" ]]; then
        echo "error: no checkpoint line appeared before the kill window closed" >&2
        kill -9 "$victim" 2>/dev/null || true
        exit 1
    fi
    kill -9 "$victim" 2>/dev/null || true
    wait "$victim" 2>/dev/null || true
    "$bin" --lint-checkpoint "$killckpt" >/dev/null
fi

echo "All checks passed."
