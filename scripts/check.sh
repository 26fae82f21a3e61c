#!/usr/bin/env sh
# Full local gate: formatting, clippy wall, invariant linter, tests.
# Run from the repo root. Fails fast on the first broken step.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo ldp-lint"
cargo ldp-lint

echo "==> no tokio in the workspace's dependency tree"
# The workspace runs on plain threads; vendor/tokio's Runtime::block_on is
# for perfbench, its own workspace, alone.
tree="$(cargo tree --locked --offline --workspace -e normal,dev,build --prefix none)"
if printf '%s\n' "$tree" | grep -q '^tokio '; then
    echo "a workspace crate depends on tokio" >&2
    exit 1
fi

echo "==> cargo test"
cargo test --workspace -q

echo "==> perfbench self-test (its own workspace; builds against the crates)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> chaos smoke (lossy replay must recover via retries)"
cargo run -q --release -p ldp-bench --bin chaos_smoke

echo "==> scrape smoke (--metrics-addr endpoint + ldplayer top)"
sh scripts/scrape_smoke.sh

echo "==> simulated figures smoke (§5: ext_quic, fig15_latency on a tiny trace)"
# Both run the querier core through the netsim driver and assert their
# answer rates, so a broken simulated client fails here.
SIM_RESULTS="$(mktemp -d)"
LDP_SCALE=0.05 LDP_RESULTS="$SIM_RESULTS" cargo run -q --release -p ldp-bench --bin ext_quic
LDP_SCALE=0.05 LDP_RESULTS="$SIM_RESULTS" cargo run -q --release -p ldp-bench --bin fig15_latency
rm -rf "$SIM_RESULTS"

echo "==> bench smoke (fig09 on a tiny trace) + throughput gate"
# The smoke run writes to a scratch dir so it never clobbers the committed
# baseline; bench_gate then compares the fresh record against it. Records
# taken at different LDP_SCALE are incomparable and the gate skips itself,
# so run with LDP_SCALE=0.3 to exercise the real regression check.
SMOKE_RESULTS="$(mktemp -d)"
trap 'rm -rf "$SMOKE_RESULTS"' EXIT
LDP_SCALE="${LDP_SCALE:-0.05}" LDP_RESULTS="$SMOKE_RESULTS" \
    cargo run -q --release -p ldp-bench --bin fig09_throughput
test -s "$SMOKE_RESULTS/BENCH_fig09.json" || {
    echo "bench smoke failed: BENCH_fig09.json missing or empty" >&2
    exit 1
}
test -s "$SMOKE_RESULTS/fig09_throughput.manifest.json" || {
    echo "bench smoke failed: fig09 run manifest missing or empty" >&2
    exit 1
}
cargo run -q --release -p ldp-bench --bin bench_gate -- \
    results/BENCH_fig09.json "$SMOKE_RESULTS/BENCH_fig09.json"

echo "All checks passed."
