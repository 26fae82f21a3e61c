#!/usr/bin/env sh
# Scrape smoke: a timed replay with `--metrics-addr` must serve a live
# Prometheus endpoint carrying the per-shard replay families, and
# `ldplayer top --raw` (the std-only curl substitute) must scrape it.
# The replay target is the discard port — nothing answers, which is fine:
# the smoke checks the telemetry plane, not the replay outcome.
set -eu

DIR="$(mktemp -d)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

cargo build -q --release -p ldplayer
LDPLAYER="${CARGO_TARGET_DIR:-target}/release/ldplayer"

# A ~12 s timed trace keeps the endpoint alive long past the scrape.
"$LDPLAYER" generate syn --level 2 --duration 12 -o "$DIR/t.ldps"
"$LDPLAYER" replay "$DIR/t.ldps" --server 127.0.0.1:9 \
    --metrics-addr 127.0.0.1:0 >"$DIR/replay.out" 2>&1 &
PID=$!

# The replay prints the bound endpoint; poll for it (port 0 = ephemeral).
ADDR=""
i=0
while [ "$i" -lt 50 ]; do
    ADDR="$(sed -n 's#.*metrics on http://\([0-9.:]*\)/metrics.*#\1#p' "$DIR/replay.out")"
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || {
        echo "scrape smoke: replay exited early:" >&2
        cat "$DIR/replay.out" >&2
        exit 1
    }
    sleep 0.2
    i=$((i + 1))
done
[ -n "$ADDR" ] || {
    echo "scrape smoke: metrics endpoint never came up" >&2
    exit 1
}

# Give the shards a beat to register their counters, then scrape once.
sleep 1
"$LDPLAYER" top --metrics-addr "$ADDR" --iterations 1 --raw >"$DIR/scrape.txt"
# Every family the replay registers per shard: one for each cell of the
# shard's counter block (the `shard_cells!` table in crates/metrics/src/shard.rs).
for fam in ldp_replay_sent_total ldp_replay_answered_total \
    ldp_replay_late_total ldp_replay_send_lag_us_total \
    ldp_replay_timeouts_total ldp_replay_retries_total \
    ldp_replay_reconnects_total ldp_replay_gave_up_total \
    ldp_replay_errors_total ldp_replay_id_collisions_total \
    ldp_replay_mismatched_answers_total ldp_replay_tc_fallbacks_total \
    ldp_replay_batches_total ldp_replay_postman_stalls_total \
    ldp_replay_max_queue_depth ldp_replay_queue_depth \
    ldp_replay_in_flight; do
    grep -q "^$fam{" "$DIR/scrape.txt" || {
        echo "scrape smoke: family $fam missing from exposition:" >&2
        cat "$DIR/scrape.txt" >&2
        exit 1
    }
done

echo "scrape smoke: endpoint served $(grep -c '^ldp_' "$DIR/scrape.txt") samples, required families present."
