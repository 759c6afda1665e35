# Task runner recipes (https://just.systems). Everything is offline; the
# same steps work as plain shell commands if `just` is not installed.

# Full local gate: build, tests, torture sweep, fmt, clippy.
default: verify

verify:
    ./scripts/verify.sh

# Fault-injection torture sweep: the storage workload re-run with a
# deterministic fault at every fallible filesystem operation index.
torture:
    cargo test -q --offline --test storage_torture -- --nocapture

# Execution-budget property tests (ExecLimits / ResourceExhausted).
guards:
    cargo test -q --offline --test exec_guard_props

# The benchmark (BENCHMARK.json, perfbench/README.md): every workload once,
# end-to-end metrics only; add `--trace` for the per-layer breakdown.
perf:
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- run --all

# Fast smoke mode of the benchmark (tiny graphs, every validator).
perf-check:
    cargo run --offline -q --manifest-path perfbench/Cargo.toml -- run --check

# Serve a durable graph over the wire protocol (Ctrl-C to stop, or pass
# --allow-shutdown and send a Shutdown frame from cypher-client).
serve data="./graphdb" addr="127.0.0.1:7878":
    cargo run -p cypher-server --bin cypher-serve --release --offline -q -- \
        --data {{data}} --addr {{addr}} --allow-shutdown

# Serve a read replica tailing a running primary: catches up (backlog or
# snapshot bootstrap), applies the live stream, answers reads wait-free
# and refuses writes with a redirect. `--allow-admin` so a later
# `cypher-client --addr {{addr}} --promote` can fail it over.
replicate primary="127.0.0.1:7878" data="./replicadb" addr="127.0.0.1:7879":
    cargo run -p cypher-server --bin cypher-serve --release --offline -q -- \
        --data {{data}} --addr {{addr}} --replica-of {{primary}} --allow-admin

# Subscribe to a live view on a running server: stream row-level
# add/remove deltas for the query after every committed statement
# (Ctrl-C to stop; add --deltas N to exit after N batches, --watch for
# a repainted table instead of raw deltas).
subscribe query="MATCH (n) RETURN count(*)" addr="127.0.0.1:7878":
    cargo run -p cypher-server --bin cypher-client --release --offline -q -- \
        --addr {{addr}} --subscribe-query "{{query}}" --watch

# Quorum pair: a primary that withholds client acks until 1 replica has
# durably applied each write (`just serve-sync`), and a replica with a
# liveness lease — if the primary goes silent past the lease it elects
# itself, self-promotes into a fresh epoch and fences the zombie.
serve-sync data="./graphdb" addr="127.0.0.1:7878":
    cargo run -p cypher-server --bin cypher-serve --release --offline -q -- \
        --data {{data}} --addr {{addr}} --allow-shutdown --allow-admin \
        --sync-replicas 1 --sync-timeout-ms 2000 --sync-policy strict

replicate-sync primary="127.0.0.1:7878" data="./replicadb" addr="127.0.0.1:7879":
    cargo run -p cypher-server --bin cypher-serve --release --offline -q -- \
        --data {{data}} --addr {{addr}} --replica-of {{primary}} --allow-admin \
        --lease-ms 3000

# Scoped lint: the storage crate bans unwrap()/expect() outside tests.
clippy-storage:
    cargo clippy -p cypher-storage --offline -- -D warnings

# Static analysis: clippy over the whole workspace, then the update-hazard
# linter (W01-W05) over every shipped .cypher example (legacy dialect).
lint:
    cargo clippy --workspace --all-targets --offline -- -D warnings
    cargo run --bin cypher-lint --offline -q -- --dialect cypher9 examples/*.cypher

# Deterministic differential + metamorphic fuzz campaign: generated
# read/update scripts through every oracle pair (planner/naive, lint
# on/off, serial/parallel, WAL recovery, replica replay) plus the
# rewrite-pass equivalences. Findings are minimized and written to
# target/fuzz-findings/. Same seed => byte-identical output.
fuzz seed="42" budget="500":
    cargo run -p cypher-fuzz --bin cypher-fuzz --release --offline -q -- \
        run --seed {{seed}} --budget {{budget}} 2>/dev/null

test:
    cargo test -q --offline

build:
    cargo build --release --offline
