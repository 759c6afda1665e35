//! `cypher-client` — scripted client for `cypher-serve`.
//!
//! Runs actions in command-line order:
//!
//! ```text
//! $ cypher-client --addr 127.0.0.1:7878 \
//!       --run "CREATE (:User {id: 1})" \
//!       --run "MATCH (u:User) RETURN u.id" \
//!       --expect-error "UNWIND range(1, 1000000) AS x RETURN x" \
//!       --dump --commit-log --checkpoint --shutdown
//! ```
//!
//! `--expect-error` succeeds only if the statement FAILS server-side (used
//! by verify.sh to prove budget refusals travel the wire as typed errors).
//!
//! Load generation lives in the repository's one benchmark harness, not
//! here: see `perfbench/README.md` and `BENCHMARK.json`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

use cypher_graph::Value;
use cypher_server::{Client, HelloOptions};

const USAGE: &str = "usage: cypher-client --addr HOST:PORT \
[--dialect legacy|revised] [--lint off|warn|deny] [--rows N] [--writes N] [--time MS] \
[--format text|json] \
( [--run STMT | --run-routed STMT | --expect-error STMT | --dump | --commit-log | --checkpoint \
| --stats | --promote | --epoch N --fence ADDR]... \
[--goodbye] [--shutdown] \
| --subscribe-query STMT [--deltas N] [--watch] )";

enum Action {
    Run(String),
    /// Like `Run`, but follows typed `NotPrimary` redirects to the
    /// current primary (post-failover write path).
    RunRouted(String),
    ExpectError(String),
    Dump,
    CommitLog,
    Checkpoint,
    Stats,
    Promote,
    Fence(String, u64),
    Goodbye,
    Shutdown,
    /// Terminal: register a live view and stream its delta batches.
    SubscribeQuery(String),
}

struct Options {
    addr: String,
    hello: HelloOptions,
    actions: Vec<Action>,
    /// `--stats` output as one JSON object instead of text lines.
    json: bool,
    /// `--subscribe-query`: exit after this many data batches (0 = exit
    /// right after the registration snapshot).
    deltas: u64,
    /// `--subscribe-query`: re-print the full maintained table after
    /// every applied batch instead of the raw delta lines.
    watch: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: String::new(),
        hello: HelloOptions::server_defaults(),
        actions: Vec::new(),
        json: false,
        deltas: 0,
        watch: false,
    };
    let mut epoch: u64 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| args.next().ok_or(format!("{flag} takes a value"));
        match arg.as_str() {
            "--addr" => opts.addr = next("--addr")?,
            "--dialect" => match next("--dialect")?.as_str() {
                "legacy" | "cypher9" => opts.hello.dialect = 0,
                "revised" => opts.hello.dialect = 1,
                _ => return Err("--dialect takes `legacy` or `revised`".to_owned()),
            },
            "--lint" => match next("--lint")?.as_str() {
                "off" => opts.hello.lint = 0,
                "warn" => opts.hello.lint = 1,
                "deny" => opts.hello.lint = 2,
                _ => return Err("--lint takes off|warn|deny".to_owned()),
            },
            "--rows" => opts.hello.max_rows = parse_u64(&next("--rows")?)?,
            "--writes" => opts.hello.max_writes = parse_u64(&next("--writes")?)?,
            "--time" => opts.hello.timeout_ms = parse_u64(&next("--time")?)?,
            "--run" => opts.actions.push(Action::Run(next("--run")?)),
            "--run-routed" => opts.actions.push(Action::RunRouted(next("--run-routed")?)),
            "--expect-error" => opts
                .actions
                .push(Action::ExpectError(next("--expect-error")?)),
            "--dump" => opts.actions.push(Action::Dump),
            "--commit-log" => opts.actions.push(Action::CommitLog),
            "--checkpoint" => opts.actions.push(Action::Checkpoint),
            "--stats" => opts.actions.push(Action::Stats),
            "--promote" => opts.actions.push(Action::Promote),
            "--epoch" => epoch = parse_u64(&next("--epoch")?)?.ok_or("--epoch takes a number")?,
            "--fence" => opts.actions.push(Action::Fence(next("--fence")?, epoch)),
            "--goodbye" => opts.actions.push(Action::Goodbye),
            "--shutdown" => opts.actions.push(Action::Shutdown),
            "--subscribe-query" => opts
                .actions
                .push(Action::SubscribeQuery(next("--subscribe-query")?)),
            "--deltas" => {
                opts.deltas = parse_u64(&next("--deltas")?)?.ok_or("--deltas takes a number")?
            }
            "--watch" => opts.watch = true,
            "--format" => match next("--format")?.as_str() {
                "text" => opts.json = false,
                "json" => opts.json = true,
                _ => return Err("--format takes `text` or `json`".to_owned()),
            },
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.addr.is_empty() {
        return Err("--addr HOST:PORT is required".to_owned());
    }
    if opts.actions.is_empty() {
        return Err("nothing to do: give --run/--dump/... actions".to_owned());
    }
    Ok(opts)
}

fn parse_u64(s: &str) -> Result<Option<u64>, String> {
    s.parse::<u64>()
        .map(Some)
        .map_err(|_| format!("`{s}` is not a number"))
}

fn scripted(opts: Options) -> ExitCode {
    let mut client = match Client::connect(&opts.addr, &opts.hello) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connect {}: {e}", opts.addr);
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "connected: session {} ({})",
        client.session_id(),
        client.limits()
    );
    for action in &opts.actions {
        let failed = match action {
            Action::Run(text) => match client.run_with_retry(text, 10) {
                Ok(outcome) => {
                    print_outcome(text, &outcome);
                    false
                }
                Err(e) => {
                    eprintln!("error: {text}: {e}");
                    true
                }
            },
            Action::RunRouted(text) => match client.run_routed(text) {
                Ok(outcome) => {
                    print_outcome(text, &outcome);
                    if client.connected_addr() != opts.addr {
                        eprintln!("(routed to {})", client.connected_addr());
                    }
                    false
                }
                Err(e) => {
                    eprintln!("error: {text}: {e}");
                    true
                }
            },
            Action::ExpectError(text) => match client.run_with_retry(text, 10) {
                Ok(_) => {
                    eprintln!("error: `{text}` unexpectedly succeeded");
                    true
                }
                Err(e) => {
                    println!("expected error: {e}");
                    false
                }
            },
            Action::Dump => match client.dump_graph() {
                Ok(script) => {
                    print!("{script}");
                    false
                }
                Err(e) => {
                    eprintln!("error: dump: {e}");
                    true
                }
            },
            Action::CommitLog => match client.commit_log() {
                Ok(stmts) => {
                    for s in &stmts {
                        println!("{s}");
                    }
                    false
                }
                Err(e) => {
                    eprintln!("error: commit-log: {e}");
                    true
                }
            },
            Action::Checkpoint => match client.commit() {
                Ok(()) => {
                    println!("checkpointed");
                    false
                }
                Err(e) => {
                    eprintln!("error: checkpoint: {e}");
                    true
                }
            },
            Action::Stats => match client.stats() {
                Ok(s) => {
                    if opts.json {
                        print_stats_json(&s);
                    } else {
                        print_stats(&s);
                    }
                    false
                }
                Err(e) => {
                    eprintln!("error: stats: {e}");
                    true
                }
            },
            Action::Promote => match client.promote() {
                Ok(seq) => {
                    println!("promoted to primary at seq {seq}");
                    false
                }
                Err(e) => {
                    eprintln!("error: promote: {e}");
                    true
                }
            },
            Action::Fence(new_primary, epoch) => match client.fence(new_primary, *epoch) {
                Ok(()) => {
                    println!("fenced at epoch {epoch} (writes redirect to `{new_primary}`)");
                    false
                }
                Err(e) => {
                    eprintln!("error: fence: {e}");
                    true
                }
            },
            Action::Goodbye => {
                let r = client.goodbye();
                if let Err(e) = r {
                    eprintln!("error: goodbye: {e}");
                    return ExitCode::from(1);
                }
                return ExitCode::SUCCESS;
            }
            Action::Shutdown => {
                let r = client.shutdown_server();
                if let Err(e) = r {
                    eprintln!("error: shutdown: {e}");
                    return ExitCode::from(1);
                }
                println!("server shutting down");
                return ExitCode::SUCCESS;
            }
            Action::SubscribeQuery(text) => {
                // Terminal: the session becomes a delta stream.
                return subscribe_stream(client, text, opts.deltas, opts.watch);
            }
        };
        if failed {
            return ExitCode::from(1);
        }
    }
    let _ = client.goodbye();
    ExitCode::SUCCESS
}

fn print_stats(s: &cypher_server::StatsOutcome) {
    let role = match s.role {
        0 => "primary",
        1 => "replica",
        2 => "fenced",
        _ => "unknown",
    };
    println!("role: {role}");
    if !s.redirect.is_empty() {
        println!("writes-go-to: {}", s.redirect);
    }
    println!("epoch: {}", s.epoch);
    println!("repl-epoch: {}", s.repl_epoch);
    println!("commit-seq: {}", s.commit_seq);
    println!("queue-len: {}", s.queue_len);
    let quorum = match s.quorum {
        0 => "async",
        1 => "in-sync",
        2 => "degraded",
        3 => "timed-out",
        _ => "unknown",
    };
    println!("quorum: {quorum}");
    println!("overflow-drops: {}", s.overflow_drops);
    if s.role == 1 {
        println!("primary-seen: {}", s.primary_seen);
        println!("apply-lag: {}", s.primary_seen.saturating_sub(s.commit_seq));
    }
    for (addr, sent, acked) in &s.replicas {
        println!(
            "replica {addr}: sent-seq {sent} acked-seq {acked} (send-lag {}, durable-lag {})",
            s.commit_seq.saturating_sub(*sent),
            s.commit_seq.saturating_sub(*acked),
        );
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// `--stats --format json`: one JSON object, stable key order (scripts
/// diff this output — never reorder or rename keys).
fn print_stats_json(s: &cypher_server::StatsOutcome) {
    let role = match s.role {
        0 => "primary",
        1 => "replica",
        2 => "fenced",
        _ => "unknown",
    };
    let quorum = match s.quorum {
        0 => "async",
        1 => "in-sync",
        2 => "degraded",
        3 => "timed-out",
        _ => "unknown",
    };
    let replicas: Vec<String> = s
        .replicas
        .iter()
        .map(|(addr, sent, acked)| {
            format!(
                "{{ \"addr\": \"{}\", \"sent_seq\": {sent}, \"acked_seq\": {acked} }}",
                json_escape(addr)
            )
        })
        .collect();
    let views: Vec<String> = s
        .views
        .iter()
        .map(|v| {
            format!(
                "{{ \"id\": {}, \"query\": \"{}\", \"mode\": \"{}\", \"rows\": {}, \
                 \"deltas\": {}, \"fallbacks\": {}, \"broken\": {} }}",
                v.id,
                json_escape(&v.query),
                if v.incremental {
                    "incremental"
                } else {
                    "fallback"
                },
                v.rows,
                v.deltas,
                v.fallbacks,
                v.broken,
            )
        })
        .collect();
    println!(
        "{{\n  \"role\": \"{role}\",\n  \"redirect\": \"{}\",\n  \"epoch\": {},\n  \
         \"repl_epoch\": {},\n  \"commit_seq\": {},\n  \"queue_len\": {},\n  \
         \"quorum\": \"{quorum}\",\n  \"overflow_drops\": {},\n  \"primary_seen\": {},\n  \
         \"view_count\": {},\n  \"replicas\": [{}],\n  \"views\": [{}]\n}}",
        json_escape(&s.redirect),
        s.epoch,
        s.repl_epoch,
        s.commit_seq,
        s.queue_len,
        s.overflow_drops,
        s.primary_seen,
        s.views.len(),
        replicas.join(", "),
        views.join(", "),
    );
}

fn render_row(row: &[Value]) -> String {
    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
    cells.join(" | ")
}

/// `--subscribe-query`: register the view, stream its delta batches to
/// stdout, and exit after `wanted` data batches (statement-produced, i.e.
/// seq > 0) with a clean unsubscribe. The final `final:` lines are the
/// client-side replay of every received delta — scripts diff them against
/// a fresh evaluation of the same query to prove the stream converged.
fn subscribe_stream(mut client: Client, text: &str, wanted: u64, watch: bool) -> ExitCode {
    let reg = match client.subscribe_query(text) {
        Ok(reg) => reg,
        Err(e) => {
            eprintln!("error: subscribe-query: {e}");
            return ExitCode::from(1);
        }
    };
    let mode = if reg.fallback {
        "fallback"
    } else {
        "incremental"
    };
    // One line, flushed immediately, so scripts can sequence on it.
    println!(
        "subscribed view={} epoch={} mode={mode} columns={}",
        reg.view,
        reg.epoch,
        reg.columns.join(",")
    );
    let _ = std::io::stdout().flush();

    // Replay bag: row debug-key -> (row, multiplicity).
    let mut replay: BTreeMap<String, (Vec<Value>, u64)> = BTreeMap::new();
    let mut seen = 0u64;
    let mut snapshot = true;
    loop {
        let batch = match client.next_view_delta() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: view stream: {e}");
                return ExitCode::from(1);
            }
        };
        // The first frame is always the registration snapshot (possibly
        // empty); after it, empty seq-0 batches are idle keepalives.
        if !snapshot && batch.is_keepalive() && batch.seq == 0 {
            continue;
        }
        for (row, n) in &batch.removes {
            let key = format!("{row:?}");
            match replay.get_mut(&key) {
                Some(e) if e.1 >= *n => {
                    e.1 -= *n;
                    if e.1 == 0 {
                        replay.remove(&key);
                    }
                }
                _ => {
                    eprintln!("error: view stream retracted a row the replay does not hold");
                    return ExitCode::from(1);
                }
            }
        }
        for (row, n) in &batch.adds {
            let e = replay
                .entry(format!("{row:?}"))
                .or_insert_with(|| (row.clone(), 0));
            e.1 += *n;
        }
        if watch {
            let total: u64 = replay.values().map(|(_, n)| *n).sum();
            println!(
                "-- {} @seq {} ({total} rows)",
                reg.columns.join(" | "),
                batch.seq
            );
            for (row, n) in replay.values() {
                for _ in 0..*n {
                    println!("   {}", render_row(row));
                }
            }
            let _ = std::io::stdout().flush();
        } else if !snapshot || !batch.is_keepalive() {
            println!(
                "delta view={} seq={} +{} -{}",
                batch.view,
                batch.seq,
                batch.adds.len(),
                batch.removes.len()
            );
            for (row, n) in &batch.removes {
                println!("  - {} x{n}", render_row(row));
            }
            for (row, n) in &batch.adds {
                println!("  + {} x{n}", render_row(row));
            }
            let _ = std::io::stdout().flush();
        }
        snapshot = false;
        if batch.seq > 0 {
            seen += 1;
        }
        if seen >= wanted {
            break;
        }
    }
    for (row, n) in replay.values() {
        for _ in 0..*n {
            println!("final: {}", render_row(row));
        }
    }
    match client.unsubscribe_query(reg.view) {
        Ok(()) => {
            println!("unsubscribed (bye)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: unsubscribe: {e}");
            ExitCode::from(1)
        }
    }
}

fn print_outcome(text: &str, outcome: &cypher_server::RunOutcome) {
    let kind = if outcome.read_only { "read" } else { "write" };
    println!(
        "ok ({kind}, epoch {}, {} row{}): {text}",
        outcome.epoch,
        outcome.rows.len(),
        if outcome.rows.len() == 1 { "" } else { "s" }
    );
    for row in &outcome.rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  {}", cells.join(" | "));
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    scripted(opts)
}
