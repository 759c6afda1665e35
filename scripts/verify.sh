#!/usr/bin/env sh
# Local verification gate: build, test, format check, lint.
#
# Runs everything the CI tier-1 gate runs, plus fmt/clippy when the
# toolchain has them (each is skipped with a notice otherwise). Exits
# non-zero iff a step that *ran* failed. Fully offline.
#
# Usage: ./scripts/verify.sh            # from the repo root
set -u

cd "$(dirname "$0")/.." || exit 1

failed=0

run() {
    name=$1
    shift
    printf '==> %s: %s\n' "$name" "$*"
    if "$@"; then
        printf '==> %s: OK\n\n' "$name"
    else
        printf '==> %s: FAILED\n\n' "$name"
        failed=1
    fi
}

skip() {
    printf '==> %s: skipped (%s)\n\n' "$1" "$2"
}

if ! command -v cargo >/dev/null 2>&1; then
    echo "cargo not found on PATH" >&2
    exit 1
fi

# Tier-1: the gate the repo must always pass. The test step includes the
# fault-injection torture sweep (one run per fallible filesystem operation
# of the workload; see tests/storage_torture.rs).
run "build (release)" cargo build --release --offline
run "test" cargo test -q --offline

# Bench crate is excluded from default-members; make sure it still compiles.
run "build (workspace incl. bench)" cargo build --workspace --offline

# Benchmark smoke: every perfbench workload on a tiny graph with all of its
# validators (dump equality after restart, view replay == fresh evaluation,
# replica convergence); full runs: `just perf`, see perfbench/README.md.
run "perfbench smoke" cargo run --offline -q --manifest-path perfbench/Cargo.toml -- run --check

# Static-analysis self-check: every shipped .cypher example must lint
# clean (warnings allowed, error-severity diagnostics fail the build).
# The examples demonstrate the paper's *legacy* hazards, so they lint
# under the Cypher 9 dialect.
run "cypher-lint (examples)" cargo run --bin cypher-lint --offline -q -- --dialect cypher9 examples/*.cypher

# Examples: the two that walk through the paper's update semantics run
# every legacy and revised update statement they show with `unwrap`, so a
# panic on either dialect's update path fails this step. Output is the
# walkthrough itself, not a check.
run_examples() {
    cargo run --offline -q --example legacy_pitfalls >/dev/null \
        && cargo run --offline -q --example merge_semantics >/dev/null
}
run "examples (update walkthroughs)" run_examples

# Fuzz smoke: a fixed-seed, time-bounded differential campaign across all
# oracle pairs (planner/naive, lint on/off, serial/parallel, WAL
# recovery, replica replay, atomicity, panics) plus the metamorphic
# rewrite pass. Zero findings expected; stderr is the Warn-engine's lint
# noise. Full campaigns: `just fuzz [seed]`.
fuzz_smoke() {
    cargo run -p cypher-fuzz --bin cypher-fuzz --release --offline -q -- \
        run --seed 42 --budget 60 2>/dev/null
}
run "fuzz smoke" fuzz_smoke

# Server round trip: start cypher-serve on an ephemeral port, drive it
# with a scripted cypher-client session (create/match/merge/delete plus a
# deliberately budget-tripped statement and a statement nested past the
# parser's depth bound, both of which must come back as typed errors),
# then shut it down over the wire and check a clean exit.
server_roundtrip() {
    data_dir=$(mktemp -d) || return 1
    log="$data_dir/serve.log"
    cargo build -q --offline -p cypher-server || return 1
    ./target/debug/cypher-serve --data "$data_dir/db" --addr 127.0.0.1:0 \
        --allow-shutdown >"$log" 2>&1 &
    serve_pid=$!
    addr=""
    tries=0
    while [ -z "$addr" ] && [ "$tries" -lt 100 ]; do
        addr=$(sed -n 's/^listening on //p' "$log" 2>/dev/null | head -n 1)
        [ -z "$addr" ] && { tries=$((tries + 1)); sleep 0.1; }
    done
    if [ -z "$addr" ]; then
        echo "cypher-serve never reported its address" >&2
        kill "$serve_pid" 2>/dev/null
        rm -rf "$data_dir"
        return 1
    fi
    # ~40 KB of nesting: far past the parser's depth bound, so it must come
    # back as a parse error from a session that goes on serving.
    hostile="RETURN $(printf '%.0s(' $(seq 20000))1$(printf '%.0s)' $(seq 20000))"
    ./target/debug/cypher-client --addr "$addr" --rows 100 \
        --run "CREATE (a:User {name: 'Ann'})-[:KNOWS]->(:User {name: 'Bob'})" \
        --run "MATCH (u:User) RETURN u.name ORDER BY u.name" \
        --run "MERGE ALL (:User {name: 'Ann'})" \
        --expect-error "UNWIND range(1, 100000) AS x RETURN x" \
        --expect-error "$hostile" \
        --run "MATCH (u:User) RETURN count(u)" \
        --run "MATCH (u:User {name: 'Bob'}) DETACH DELETE u" \
        --dump --checkpoint --shutdown
    client_status=$?
    wait "$serve_pid"
    serve_status=$?
    rm -rf "$data_dir"
    [ "$client_status" -eq 0 ] && [ "$serve_status" -eq 0 ]
}
run "server round trip" server_roundtrip

# Wait for a cypher-serve log to report its bound address; prints it.
serve_addr() {
    _log=$1
    _addr=""
    _tries=0
    while [ -z "$_addr" ] && [ "$_tries" -lt 100 ]; do
        _addr=$(sed -n 's/^listening on //p' "$_log" 2>/dev/null | head -n 1)
        [ -z "$_addr" ] && { _tries=$((_tries + 1)); sleep 0.1; }
    done
    [ -n "$_addr" ] && printf '%s\n' "$_addr"
}

# Replication round trip: primary + replica over real sockets, writes
# through the primary, byte-identical dumps after catch-up, failover by
# promotion, and a durable fence on the restarted old primary. Also
# exercises SIGTERM as a clean shutdown (both kills below expect exit 0).
replication_roundtrip() {
    work=$(mktemp -d) || return 1
    cargo build -q --offline -p cypher-server || return 1
    status=1
    a_pid=""
    b_pid=""
    while :; do # single-pass loop so failures can `break` to cleanup
        ./target/debug/cypher-serve --data "$work/a" --addr 127.0.0.1:0 \
            --allow-admin >"$work/a.log" 2>&1 &
        a_pid=$!
        a_addr=$(serve_addr "$work/a.log") || break
        ./target/debug/cypher-serve --data "$work/b" --addr 127.0.0.1:0 \
            --replica-of "$a_addr" --allow-admin >"$work/b.log" 2>&1 &
        b_pid=$!
        b_addr=$(serve_addr "$work/b.log") || break

        ./target/debug/cypher-client --addr "$a_addr" \
            --run "CREATE (a:City {name: 'Malmo'})-[:IN]->(:Country {name: 'Sweden'})" \
            --run "MERGE ALL (:City {name: 'Berlin'})" \
            --run "MATCH (c:City {name: 'Berlin'}) SET c.pop = 3700000" \
            >/dev/null || break
        target=$(./target/debug/cypher-client --addr "$a_addr" --stats \
            | sed -n 's/^commit-seq: //p') || break

        # Catch-up: poll the replica's commit sequence up to 10s.
        caught=""
        tries=0
        while [ -z "$caught" ] && [ "$tries" -lt 100 ]; do
            seq=$(./target/debug/cypher-client --addr "$b_addr" --stats 2>/dev/null \
                | sed -n 's/^commit-seq: //p')
            [ "${seq:-0}" -ge "$target" ] 2>/dev/null && caught=yes
            [ -z "$caught" ] && { tries=$((tries + 1)); sleep 0.1; }
        done
        [ -n "$caught" ] || { echo "replica never caught up" >&2; break; }

        ./target/debug/cypher-client --addr "$a_addr" --dump >"$work/a.dump" || break
        ./target/debug/cypher-client --addr "$b_addr" --dump >"$work/b.dump" || break
        cmp -s "$work/a.dump" "$work/b.dump" \
            || { echo "primary and replica dumps differ" >&2; break; }

        # Failover: kill the primary (SIGTERM must exit cleanly), promote
        # the replica, and prove it now takes writes.
        kill "$a_pid" && wait "$a_pid" || { echo "primary SIGTERM exit != 0" >&2; a_pid=""; break; }
        a_pid=""
        ./target/debug/cypher-client --addr "$b_addr" --promote >/dev/null || break
        ./target/debug/cypher-client --addr "$b_addr" \
            --run "CREATE (:AfterFailover {ok: true})" >/dev/null || break

        # The restarted old primary is fenced by the operator runbook step
        # and must refuse every write with the typed redirect, durably.
        ./target/debug/cypher-serve --data "$work/a" --addr 127.0.0.1:0 \
            --allow-admin >"$work/a2.log" 2>&1 &
        a_pid=$!
        a2_addr=$(serve_addr "$work/a2.log") || break
        ./target/debug/cypher-client --addr "$a2_addr" --fence "$b_addr" >/dev/null || break
        ./target/debug/cypher-client --addr "$a2_addr" \
            --expect-error "CREATE (:Zombie)" >/dev/null \
            || { echo "fenced old primary accepted a write" >&2; break; }
        ./target/debug/cypher-client --addr "$a2_addr" --stats \
            | grep -q '^role: fenced$' || { echo "old primary not fenced" >&2; break; }

        status=0
        break
    done
    [ -n "$a_pid" ] && { kill "$a_pid" 2>/dev/null; wait "$a_pid" || status=1; }
    [ -n "$b_pid" ] && { kill "$b_pid" 2>/dev/null; wait "$b_pid" || status=1; }
    rm -rf "$work"
    return "$status"
}
run "replication round trip" replication_roundtrip

# Quorum round trip: a primary that withholds client acks until the
# replica has durably applied each write, killed with SIGKILL mid-reign.
# Every acknowledged write must survive on the self-promoted replica
# (zero acked loss), and the restarted zombie must end up fenced
# automatically — no operator step — refusing writes in the new epoch.
quorum_roundtrip() {
    work=$(mktemp -d) || return 1
    cargo build -q --offline -p cypher-server || return 1
    status=1
    p_pid=""
    r_pid=""
    z_pid=""
    while :; do # single-pass loop so failures can `break` to cleanup
        ./target/debug/cypher-serve --data "$work/p" --addr 127.0.0.1:0 \
            --allow-admin --sync-replicas 1 --sync-timeout-ms 4000 \
            >"$work/p.log" 2>&1 &
        p_pid=$!
        p_addr=$(serve_addr "$work/p.log") || break
        ./target/debug/cypher-serve --data "$work/r" --addr 127.0.0.1:0 \
            --replica-of "$p_addr" --allow-admin --lease-ms 500 \
            >"$work/r.log" 2>&1 &
        r_pid=$!
        r_addr=$(serve_addr "$work/r.log") || break

        # Wait for the replica to subscribe; only then can quorum be met.
        sub=""
        tries=0
        while [ -z "$sub" ] && [ "$tries" -lt 100 ]; do
            ./target/debug/cypher-client --addr "$p_addr" --stats 2>/dev/null \
                | grep -q '^replica ' && sub=yes
            [ -z "$sub" ] && { tries=$((tries + 1)); sleep 0.1; }
        done
        [ -n "$sub" ] || { echo "replica never subscribed" >&2; break; }
        # Each successful exit below is a quorum ack: the write is fsynced
        # on BOTH sides before the client hears OK.
        ./target/debug/cypher-client --addr "$p_addr" \
            --run "CREATE (:Paid {id: 1})" \
            --run "CREATE (:Paid {id: 2})" >/dev/null || break

        # SIGKILL: no clean shutdown, no flush, no goodbye. The replica's
        # lease expires, it elects itself and self-promotes.
        kill -9 "$p_pid" 2>/dev/null
        wait "$p_pid" 2>/dev/null
        p_pid=""
        promoted=""
        tries=0
        while [ -z "$promoted" ] && [ "$tries" -lt 150 ]; do
            ./target/debug/cypher-client --addr "$r_addr" --stats 2>/dev/null \
                | grep -q '^role: primary$' && promoted=yes
            [ -z "$promoted" ] && { tries=$((tries + 1)); sleep 0.1; }
        done
        [ -n "$promoted" ] || { echo "replica never self-promoted" >&2; break; }

        # Zero acked loss: both quorum-acknowledged writes survived.
        ./target/debug/cypher-client --addr "$r_addr" --dump >"$work/r.dump" || break
        grep -q 'id: 1' "$work/r.dump" && grep -q 'id: 2' "$work/r.dump" \
            || { echo "acked write lost after quorum failover" >&2; break; }
        ./target/debug/cypher-client --addr "$r_addr" \
            --run "CREATE (:Paid {id: 3})" >/dev/null || break

        # The zombie restarts on its old address inside the fence-retry
        # window: the new primary's retry fence must land, durably.
        ./target/debug/cypher-serve --data "$work/p" --addr "$p_addr" \
            --allow-admin >"$work/z.log" 2>&1 &
        z_pid=$!
        fenced=""
        tries=0
        while [ -z "$fenced" ] && [ "$tries" -lt 150 ]; do
            ./target/debug/cypher-client --addr "$p_addr" --stats 2>/dev/null \
                | grep -q '^role: fenced$' && fenced=yes
            [ -z "$fenced" ] && { tries=$((tries + 1)); sleep 0.1; }
        done
        [ -n "$fenced" ] || { echo "zombie never fenced automatically" >&2; break; }
        ./target/debug/cypher-client --addr "$p_addr" \
            --expect-error "CREATE (:Zombie)" >/dev/null \
            || { echo "fenced zombie accepted a write" >&2; break; }

        status=0
        break
    done
    [ -n "$p_pid" ] && { kill "$p_pid" 2>/dev/null; wait "$p_pid" 2>/dev/null; }
    [ -n "$z_pid" ] && { kill "$z_pid" 2>/dev/null; wait "$z_pid" 2>/dev/null; }
    [ -n "$r_pid" ] && { kill "$r_pid" 2>/dev/null; wait "$r_pid" 2>/dev/null; }
    rm -rf "$work"
    return "$status"
}
run "quorum round trip" quorum_roundtrip

# Live view round trip: a subscriber registers a query over the wire, a
# writer commits statements (create / update / create), and the
# subscriber's replayed rows at exit must be byte-identical to a fresh
# evaluation of the same query — the differential contract of
# DESIGN.md §15, end to end over real sockets.
live_view_roundtrip() {
    work=$(mktemp -d) || return 1
    cargo build -q --offline -p cypher-server || return 1
    status=1
    s_pid=""
    sub_pid=""
    while :; do # single-pass loop so failures can `break` to cleanup
        ./target/debug/cypher-serve --data "$work/db" --addr 127.0.0.1:0 \
            >"$work/serve.log" 2>&1 &
        s_pid=$!
        addr=$(serve_addr "$work/serve.log") || break

        ./target/debug/cypher-client --addr "$addr" \
            --run "CREATE (:Task {name: 'seed', done: false})" >/dev/null || break

        query="MATCH (t:Task) RETURN t.name, t.done"
        ./target/debug/cypher-client --addr "$addr" \
            --subscribe-query "$query" --deltas 3 >"$work/sub.out" &
        sub_pid=$!

        # The first line is flushed on registration; write only after it.
        tries=0
        while ! grep -q '^subscribed ' "$work/sub.out" 2>/dev/null; do
            tries=$((tries + 1))
            [ "$tries" -ge 100 ] && break
            sleep 0.1
        done
        grep -q '^subscribed view=1 epoch=[0-9]* mode=incremental ' "$work/sub.out" \
            || { echo "subscriber never registered incrementally" >&2; break; }

        ./target/debug/cypher-client --addr "$addr" \
            --run "CREATE (:Task {name: 'ship', done: false})" \
            --run "MATCH (t:Task {name: 'seed'}) SET t.done = true" \
            --run "CREATE (:Task {name: 'later', done: true})" >/dev/null || break

        # --deltas 3 exits after the three data batches above.
        wait "$sub_pid" || { sub_pid=""; echo "subscriber exited nonzero" >&2; break; }
        sub_pid=""
        grep -q '^unsubscribed (bye)$' "$work/sub.out" \
            || { echo "subscriber did not close cleanly" >&2; break; }

        sed -n 's/^final: //p' "$work/sub.out" | sort >"$work/view.rows"
        ./target/debug/cypher-client --addr "$addr" --run "$query" \
            | sed -n 's/^  //p' | sort >"$work/fresh.rows"
        [ -s "$work/view.rows" ] || { echo "subscriber replayed no rows" >&2; break; }
        cmp -s "$work/view.rows" "$work/fresh.rows" \
            || { echo "maintained view diverged from fresh evaluation" >&2; \
                 diff "$work/view.rows" "$work/fresh.rows" >&2; break; }

        # The stats surface must agree the view is gone after the bye.
        ./target/debug/cypher-client --addr "$addr" --stats --format json \
            | grep -q '"view_count": 0' \
            || { echo "view survived its unsubscribe" >&2; break; }

        status=0
        break
    done
    [ -n "$sub_pid" ] && { kill "$sub_pid" 2>/dev/null; wait "$sub_pid" 2>/dev/null; }
    [ -n "$s_pid" ] && { kill "$s_pid" 2>/dev/null; wait "$s_pid" || status=1; }
    rm -rf "$work"
    return "$status"
}
run "live view round trip" live_view_roundtrip

if cargo fmt --version >/dev/null 2>&1; then
    run "fmt" cargo fmt --all --check
else
    skip "fmt" "rustfmt not installed"
fi

if cargo clippy --version >/dev/null 2>&1; then
    run "clippy" cargo clippy --workspace --all-targets --offline -- -D warnings
    # These crates additionally deny unwrap/expect in non-test code
    # (scoped #![deny] in their lib.rs); lint them on their own so a
    # workspace-level allow can never mask a regression.
    run "clippy (unwrap ban)" cargo clippy -p cypher-storage -p cypher-parser -p cypher-graph -p cypher-core -p cypher-analysis -p cypher-server -p cypher-replication -p cypher-bench -p cypher-datagen -p cypher-fuzz -p cypher-ivm --offline -- -D warnings
else
    skip "clippy" "clippy not installed"
fi

if [ "$failed" -ne 0 ]; then
    echo "verify: FAILED"
    exit 1
fi
echo "verify: all checks passed"
