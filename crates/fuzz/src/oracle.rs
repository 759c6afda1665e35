//! The campaign driver: runs generated scripts through every differential
//! oracle pair in the repo, plus metamorphic self-checks.
//!
//! Oracle pairs (all in-process, same statement texts):
//!
//! | oracle | pair | comparison |
//! |--------|------|------------|
//! | `planner` | cost-based planner vs `force_naive` | byte-identical outcomes + final dump |
//! | `lint` | `LintMode::Warn` vs `Off` | byte-identical outcomes + final dump |
//! | `parallel` | serial vs 3-worker morsel execution | byte-identical `Ok`s, error *presence* on `Err` (worker error identity is racy by design), final dump |
//! | `recovery` | in-memory graph vs WAL reopen | byte-identical canonical dump |
//! | `replica` | primary vs statement-shipping replay | byte-identical canonical dump |
//! | `atomicity` | dump before vs after every failed statement | byte-identical (rollback) |
//! | `ivm` | incrementally maintained views vs fresh full evaluation | byte-identical sorted row multiset per registered view, after every statement |
//! | `metamorphic:<rule>` | script vs semantics-preserving rewrite | sorted row multiset (reads), row count + stats (updates), later-statement error status, final graph isomorphism |
//!
//! A `panic` pseudo-oracle converts engine panics into findings. Budget
//! trips (`ResourceExhausted`) on one side only are counted and skipped,
//! never reported as divergences: under a cooperative budget the planner
//! and naive pipelines may materialize different intermediate row counts
//! without that being a semantic bug.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use cypher_analysis::rewrite::{order_sensitive, rewrites};
use cypher_core::{Engine, EngineBuilder, EvalError, ExecLimits, LintMode, ProcessingOrder};
use cypher_graph::fmt::dump;
use cypher_graph::{isomorphic, Delta, PropertyGraph, Value};
use cypher_parser::{parse, print_query, Dialect};
use cypher_storage::DurableGraph;

use crate::gen::ScriptGen;
use crate::minimize::minimize;
use crate::rng::SplitMix64;

/// Deliberate engine/pipeline mutations for validating that the oracles
/// actually catch bugs (the "reintroduce the PR 5 mid-batch-ack bug" test:
/// an acked statement missing from the shipped log).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Drop the last recovered statement before replica replay — exactly
    /// the observable effect of acking a statement that never reached the
    /// durable log.
    DropReplayTail,
    /// Run the naive side of the planner oracle with reversed processing
    /// order — caught on order-dependent legacy update statements.
    ReverseOrder,
}

impl Mutation {
    pub fn from_name(name: &str) -> Option<Mutation> {
        match name {
            "drop-replay-tail" => Some(Mutation::DropReplayTail),
            "reverse-order" => Some(Mutation::ReverseOrder),
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
pub struct CampaignConfig {
    pub seed: u64,
    /// Number of scripts to generate and examine.
    pub budget: usize,
    /// Generated statements per script (on top of the setup statement).
    pub stmts_per_script: usize,
    pub limits: ExecLimits,
    pub mutation: Option<Mutation>,
    /// Run the metamorphic tier (off under mutations: they validate the
    /// differential tier).
    pub metamorphic: bool,
    /// Where reproducers are written; `None` disables writing.
    pub out_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            budget: 50,
            stmts_per_script: 6,
            limits: ExecLimits {
                max_rows: Some(200_000),
                max_writes: Some(200_000),
                timeout: None,
            },
            mutation: None,
            metamorphic: true,
            out_dir: None,
        }
    }
}

/// One divergence/crash, with its minimized reproducer.
#[derive(Clone, Debug)]
pub struct Finding {
    pub script_idx: usize,
    pub dialect: Dialect,
    pub oracle: String,
    pub detail: String,
    pub script: Vec<String>,
    pub minimized: Vec<String>,
}

/// Campaign outcome. [`Report::summary`] is deliberately free of paths,
/// timings and other nondeterminism: same seed ⇒ byte-identical summary.
#[derive(Clone, Debug)]
pub struct Report {
    pub seed: u64,
    pub scripts: usize,
    pub statements: usize,
    pub rewrites_checked: usize,
    pub budget_trips: usize,
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "cypher-fuzz campaign seed={}", self.seed);
        let _ = writeln!(
            s,
            "scripts={} statements={} rewrites={} budget-trips={}",
            self.scripts, self.statements, self.rewrites_checked, self.budget_trips
        );
        if self.findings.is_empty() {
            let _ = writeln!(s, "findings: none");
        } else {
            let _ = writeln!(s, "findings: {}", self.findings.len());
            for f in &self.findings {
                let _ = writeln!(
                    s,
                    "  [{}] script {} ({:?}): {}",
                    f.oracle,
                    f.script_idx,
                    f.dialect,
                    f.detail.lines().next().unwrap_or("")
                );
            }
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

fn base_builder(dialect: Dialect, limits: ExecLimits) -> EngineBuilder {
    EngineBuilder::new(dialect)
        .param("uid", Value::Int(89))
        .param("pid", Value::Int(125))
        .limits(limits)
        .lint_mode(LintMode::Off)
}

fn engine_base(dialect: Dialect, limits: ExecLimits) -> Engine {
    base_builder(dialect, limits).build()
}

fn engine_naive(dialect: Dialect, limits: ExecLimits, reverse: bool) -> Engine {
    let mut b = base_builder(dialect, limits).force_naive(true);
    if reverse {
        b = b.processing_order(ProcessingOrder::Reverse);
    }
    b.build()
}

fn engine_warn(dialect: Dialect, limits: ExecLimits) -> Engine {
    base_builder(dialect, limits)
        .lint_mode(LintMode::Warn)
        .build()
}

fn engine_parallel(dialect: Dialect, limits: ExecLimits) -> Engine {
    base_builder(dialect, limits)
        .read_workers(3)
        .morsel_size(7)
        .parallel_threshold(1)
        .build()
}

// ---------------------------------------------------------------------------
// Script execution
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    Ok(String),
    Err(String),
    BudgetTrip,
    Panic(String),
}

impl Outcome {
    fn is_panic(&self) -> bool {
        matches!(self, Outcome::Panic(_))
    }
}

struct Run {
    outcomes: Vec<Outcome>,
    /// Per-statement `QueryResult` rows/columns for metamorphic comparison
    /// (empty string for errored statements).
    tables: Vec<Option<TableShot>>,
    final_dump: String,
    graph: PropertyGraph,
    /// `atomicity` violations: (stmt index, diff summary).
    atomicity: Vec<(usize, String)>,
}

#[derive(Clone, Debug)]
struct TableShot {
    columns: Vec<String>,
    rows: Vec<String>,
    stats: String,
    read_only: bool,
}

fn fmt_result(r: &cypher_core::QueryResult) -> String {
    format!("{:?}|{:?}|{:?}", r.columns, r.rows, r.stats)
}

/// Run a whole script through one engine on a fresh graph, with
/// panic-trapping and per-statement rollback (atomicity) checks.
fn run_script(engine: &Engine, stmts: &[String]) -> Run {
    let mut graph = PropertyGraph::new();
    let mut outcomes = Vec::with_capacity(stmts.len());
    let mut tables = Vec::with_capacity(stmts.len());
    let mut atomicity = Vec::new();
    for (i, stmt) in stmts.iter().enumerate() {
        let before = dump(&graph);
        let res = catch_unwind(AssertUnwindSafe(|| engine.run(&mut graph, stmt)));
        match res {
            Ok(Ok(result)) => {
                let read_only = parse(stmt)
                    .map(|q| q.first_mutating_clause().is_none())
                    .unwrap_or(false);
                tables.push(Some(TableShot {
                    columns: result.columns.clone(),
                    rows: result.rows.iter().map(|r| format!("{r:?}")).collect(),
                    stats: format!("{:?}", result.stats),
                    read_only,
                }));
                outcomes.push(Outcome::Ok(fmt_result(&result)));
            }
            Ok(Err(e)) => {
                let after = dump(&graph);
                if after != before {
                    atomicity.push((i, format!("failed statement mutated the graph: {e}")));
                }
                tables.push(None);
                outcomes.push(match e {
                    EvalError::ResourceExhausted { .. } => Outcome::BudgetTrip,
                    other => Outcome::Err(other.to_string()),
                });
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "opaque panic payload".to_owned());
                tables.push(None);
                outcomes.push(Outcome::Panic(msg));
                // The graph is poisoned; stop executing this script.
                for _ in i + 1..stmts.len() {
                    outcomes.push(Outcome::Err("not executed (prior panic)".into()));
                    tables.push(None);
                }
                break;
            }
        }
    }
    let final_dump = dump(&graph);
    Run {
        outcomes,
        tables,
        final_dump,
        graph,
        atomicity,
    }
}

/// Compare two runs of the *same* statements. `exact_errors: false`
/// compares only error presence (the parallel pipeline reports the first
/// worker error, whose identity may differ from serial).
fn diff_runs(a: &Run, b: &Run, exact_errors: bool, trips: &mut usize) -> Option<String> {
    for (i, (oa, ob)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        if oa.is_panic() || ob.is_panic() {
            // Reported separately by the panic pseudo-oracle.
            return None;
        }
        let equal = match (oa, ob) {
            (Outcome::BudgetTrip, Outcome::BudgetTrip) => true,
            (Outcome::BudgetTrip, _) | (_, Outcome::BudgetTrip) => {
                *trips += 1;
                return None; // budget artifact; stop comparing this pair
            }
            (Outcome::Ok(x), Outcome::Ok(y)) => x == y,
            (Outcome::Err(x), Outcome::Err(y)) => {
                if exact_errors {
                    x == y
                } else {
                    true
                }
            }
            _ => false,
        };
        if !equal {
            return Some(format!("statement {i}: left={oa:?} right={ob:?}"));
        }
    }
    if a.final_dump != b.final_dump {
        return Some("final graph dumps differ".into());
    }
    None
}

// ---------------------------------------------------------------------------
// Storage oracles (recovery + replica replay)
// ---------------------------------------------------------------------------

fn dialect_byte(d: Dialect) -> u8 {
    match d {
        Dialect::Cypher9 => 0,
        Dialect::Revised => 1,
    }
}

fn byte_dialect(b: u8) -> Dialect {
    if b == 0 {
        Dialect::Cypher9
    } else {
        Dialect::Revised
    }
}

/// Run the script through a [`DurableGraph`] with statement logging,
/// reopen it (recovery oracle) and replay the shipped statements on a
/// fresh graph (replica oracle). Returns findings as (oracle, detail).
fn storage_oracles(
    stmts: &[String],
    dialect: Dialect,
    limits: ExecLimits,
    mutation: Option<Mutation>,
    tag: &str,
) -> Vec<(String, String)> {
    let mut findings = Vec::new();
    let dir = std::env::temp_dir().join(format!("cypher-fuzz-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = engine_base(dialect, limits);
    let result = (|| -> Result<(), String> {
        let mut dg = DurableGraph::open(&dir).map_err(|e| format!("open: {e}"))?;
        for (i, stmt) in stmts.iter().enumerate() {
            let byte = dialect_byte(dialect);
            // The engine-level outcome (inner Result) is deliberately
            // ignored: errored statements roll back, produce no delta and
            // are not logged, which is exactly what replica replay expects.
            let _ = dg
                .apply_buffered_logged(Some((byte, stmt)), |g| engine.run(g, stmt))
                .map_err(|e| format!("apply stmt {i}: {e}"))?;
            if i % 4 == 3 {
                dg.flush().map_err(|e| format!("flush: {e}"))?;
            }
        }
        dg.flush().map_err(|e| format!("final flush: {e}"))?;
        let primary_dump = dump(dg.graph());
        drop(dg);

        let mut reopened = DurableGraph::open(&dir).map_err(|e| format!("reopen: {e}"))?;
        let recovered_dump = dump(reopened.graph());
        if recovered_dump != primary_dump {
            findings.push((
                "recovery".to_owned(),
                "recovered graph differs from primary".to_owned(),
            ));
        }
        let mut shipped = reopened.take_recovered_statements();
        if mutation == Some(Mutation::DropReplayTail) {
            shipped.pop();
        }
        let mut replica = PropertyGraph::new();
        for (seq, byte, text) in &shipped {
            let replayer = engine_base(byte_dialect(*byte), limits);
            if let Err(e) = replayer.run(&mut replica, text) {
                findings.push((
                    "replica".to_owned(),
                    format!("shipped statement seq {seq} failed on replay: {e}"),
                ));
            }
        }
        if dump(&replica) != primary_dump {
            findings.push((
                "replica".to_owned(),
                "replayed replica graph differs from primary".to_owned(),
            ));
        }
        Ok(())
    })();
    if let Err(e) = result {
        findings.push(("storage".to_owned(), e));
    }
    let _ = std::fs::remove_dir_all(&dir);
    findings
}

// ---------------------------------------------------------------------------
// Incremental view maintenance oracle
// ---------------------------------------------------------------------------

/// Read queries registered as live views before the statement stream runs,
/// chosen to cover the generator's vocabulary (labels `A`/`User`, rel type
/// `T`, keys `id`/`k`/`w`) and all three maintenance shapes: plain
/// projection, relationship pattern, and grouped aggregate.
const IVM_VIEWS: &[&str] = &[
    "MATCH (n:A) RETURN n.id, n.k",
    "MATCH (a)-[r:T]->(b) RETURN a.id, b.id, r.w",
    "MATCH (n:User) RETURN n.k, count(*)",
];

/// The view-maintenance differential oracle: run the script once with
/// delta capture on, feed each statement's committed delta to a
/// [`cypher_ivm::ViewManager`], and require every maintained view's rows
/// to be byte-identical to a fresh full evaluation of the registered
/// query after every statement. Error parity: a view may only be in the
/// broken/parked state while the fresh evaluation errors too.
fn ivm_oracle(stmts: &[String], dialect: Dialect, limits: ExecLimits) -> Vec<(String, String)> {
    let mut findings = Vec::new();
    let engine = engine_base(dialect, limits);
    let mut g = PropertyGraph::new();
    g.enable_delta_capture();
    let mut mgr = cypher_ivm::ViewManager::new(&g, 0);
    let mut ids = Vec::new();
    for text in IVM_VIEWS {
        match mgr.register(text, &engine) {
            Ok(reg) => ids.push((reg.id, *text)),
            Err(e) => findings.push((
                "ivm".to_owned(),
                format!("registration of {text:?} failed: {e}"),
            )),
        }
    }
    for (i, stmt) in stmts.iter().enumerate() {
        let run = catch_unwind(AssertUnwindSafe(|| engine.run(&mut g, stmt)));
        let Ok(outcome) = run else {
            // Panics are the panic pseudo-oracle's finding; the graph is
            // poisoned, so this oracle stops here.
            return findings;
        };
        let ops = Delta::from_ops(&g.take_delta(), &g);
        if outcome.is_err() && !ops.is_empty() {
            findings.push((
                "ivm".to_owned(),
                format!(
                    "statement {i} rolled back but leaked {} delta ops",
                    ops.len()
                ),
            ));
        }
        if let Err(e) = mgr.apply_statement(i as u64 + 1, &ops) {
            findings.push((
                "ivm".to_owned(),
                format!("statement {i}: delta replay diverged from shadow graph: {e}"),
            ));
            return findings;
        }
        for (id, text) in &ids {
            let Some(maintained) = mgr.rows(*id) else {
                continue;
            };
            // When the registered query errors on the current data (or
            // trips the budget), the view parks on its previous rows by
            // design: nothing to compare.
            if let Ok(fresh) = engine.run_read(&g, text) {
                if let Some(err) = mgr.last_error(*id) {
                    findings.push((
                        "ivm".to_owned(),
                        format!(
                            "statement {i}: view {text:?} is parked on `{err}` but a fresh \
                             evaluation succeeds"
                        ),
                    ));
                    continue;
                }
                let mut want: Vec<String> = Vec::new();
                for row in &fresh.rows {
                    want.push(format!("{row:?}"));
                }
                want.sort();
                let mut got: Vec<String> = Vec::new();
                for (row, n) in &maintained {
                    for _ in 0..*n {
                        got.push(format!("{row:?}"));
                    }
                }
                got.sort();
                if got != want {
                    findings.push((
                        "ivm".to_owned(),
                        format!(
                            "statement {i}: view {text:?} diverged from full evaluation: \
                             maintained {got:?} vs fresh {want:?}"
                        ),
                    ));
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Metamorphic tier
// ---------------------------------------------------------------------------

fn metamorphic_oracles(
    stmts: &[String],
    dialect: Dialect,
    limits: ExecLimits,
    base: &Run,
    rewrites_checked: &mut usize,
    trips: &mut usize,
) -> Vec<(String, String)> {
    let mut findings = Vec::new();
    let engine = engine_base(dialect, limits);
    for (i, stmt) in stmts.iter().enumerate() {
        let Ok(query) = parse(stmt) else { continue };
        // A rewrite of a statement that failed in the base run proves
        // nothing (its error message may legitimately change); skip.
        if !matches!(base.outcomes.get(i), Some(Outcome::Ok(_))) {
            continue;
        }
        let sensitive = order_sensitive(&query, dialect);
        for rw in rewrites(&query, dialect) {
            if sensitive && !rw.rule.preserves_row_order() {
                continue;
            }
            *rewrites_checked += 1;
            let mut variant = stmts.to_vec();
            variant[i] = print_query(&rw.query);
            let run = run_script(&engine, &variant);
            let oracle = format!("metamorphic:{}", rw.rule.name());
            if let Some(detail) = diff_metamorphic(base, &run, i, trips) {
                findings.push((oracle, format!("{detail} (rewritten: {})", variant[i])));
            }
        }
    }
    findings
}

/// Compare a base run against a run whose statement `i` was rewritten.
fn diff_metamorphic(base: &Run, rw: &Run, i: usize, trips: &mut usize) -> Option<String> {
    for (j, (ob, or)) in base.outcomes.iter().zip(&rw.outcomes).enumerate() {
        if or.is_panic() {
            return Some(format!("statement {j} panicked under rewrite"));
        }
        match (ob, or) {
            (_, Outcome::BudgetTrip) | (Outcome::BudgetTrip, _) => {
                *trips += 1;
                return None;
            }
            (Outcome::Ok(_), Outcome::Err(e)) => {
                return Some(format!("statement {j} failed only under rewrite: {e}"))
            }
            (Outcome::Err(_), Outcome::Ok(_)) => {
                return Some(format!("statement {j} succeeded only under rewrite"))
            }
            _ => {}
        }
        if j < i {
            // Identical prefix must be byte-identical.
            if ob != or {
                return Some(format!("prefix statement {j} diverged"));
            }
            continue;
        }
        if j == i {
            // The rewritten statement: compare tables order-insensitively.
            // Entity ids are stable here (the prefix is identical), but an
            // update statement may allocate ids in a different row order,
            // so only read-only tables are compared value-by-value.
            if let (Some(tb), Some(tr)) = (&base.tables[j], &rw.tables[j]) {
                if tb.columns != tr.columns {
                    return Some(format!(
                        "rewritten statement columns differ: {:?} vs {:?}",
                        tb.columns, tr.columns
                    ));
                }
                if tb.rows.len() != tr.rows.len() {
                    return Some(format!(
                        "rewritten statement row count differs: {} vs {}",
                        tb.rows.len(),
                        tr.rows.len()
                    ));
                }
                if tb.read_only {
                    let mut a = tb.rows.clone();
                    let mut b = tr.rows.clone();
                    a.sort();
                    b.sort();
                    if a != b {
                        return Some("rewritten statement rows differ as multisets".into());
                    }
                } else if tb.stats != tr.stats {
                    return Some(format!(
                        "rewritten statement stats differ: {} vs {}",
                        tb.stats, tr.stats
                    ));
                }
            }
            continue;
        }
        // Statements after the rewrite: entity ids may shift when the
        // rewritten statement created entities in a different order, so
        // only the success/error status is compared (messages can embed
        // renamed variables or ids).
    }
    if !isomorphic(&base.graph, &rw.graph) {
        return Some("final graphs not isomorphic".into());
    }
    None
}

// ---------------------------------------------------------------------------
// Per-script examination and the campaign loop
// ---------------------------------------------------------------------------

struct ScriptReport {
    findings: Vec<(String, String)>,
    rewrites_checked: usize,
    budget_trips: usize,
}

fn examine_script(
    stmts: &[String],
    dialect: Dialect,
    cfg: &CampaignConfig,
    tag: &str,
) -> ScriptReport {
    let mut findings = Vec::new();
    let mut trips = 0usize;
    let mut rewrites_checked = 0usize;

    let base = run_script(&engine_base(dialect, cfg.limits), stmts);
    for (i, o) in base.outcomes.iter().enumerate() {
        if let Outcome::Panic(msg) = o {
            findings.push(("panic".to_owned(), format!("statement {i} panicked: {msg}")));
        }
        if matches!(o, Outcome::BudgetTrip) {
            trips += 1;
        }
    }
    for (i, detail) in &base.atomicity {
        findings.push(("atomicity".to_owned(), format!("statement {i}: {detail}")));
    }

    if !base.outcomes.iter().any(Outcome::is_panic) {
        let reverse = cfg.mutation == Some(Mutation::ReverseOrder);
        let naive = run_script(&engine_naive(dialect, cfg.limits, reverse), stmts);
        for (i, o) in naive.outcomes.iter().enumerate() {
            if let Outcome::Panic(msg) = o {
                findings.push((
                    "panic".to_owned(),
                    format!("statement {i} panicked under force_naive: {msg}"),
                ));
            }
        }
        if let Some(d) = diff_runs(&base, &naive, true, &mut trips) {
            findings.push(("planner".to_owned(), d));
        }

        let warn = run_script(&engine_warn(dialect, cfg.limits), stmts);
        if let Some(d) = diff_runs(&base, &warn, true, &mut trips) {
            findings.push(("lint".to_owned(), d));
        }

        let parallel = run_script(&engine_parallel(dialect, cfg.limits), stmts);
        if let Some(d) = diff_runs(&base, &parallel, false, &mut trips) {
            findings.push(("parallel".to_owned(), d));
        }

        findings.extend(storage_oracles(
            stmts,
            dialect,
            cfg.limits,
            cfg.mutation,
            tag,
        ));

        findings.extend(ivm_oracle(stmts, dialect, cfg.limits));

        if cfg.metamorphic && cfg.mutation.is_none() {
            findings.extend(metamorphic_oracles(
                stmts,
                dialect,
                cfg.limits,
                &base,
                &mut rewrites_checked,
                &mut trips,
            ));
        }
    }

    ScriptReport {
        findings,
        rewrites_checked,
        budget_trips: trips,
    }
}

/// Does `stmts` still produce a finding for `oracle`? Used by the
/// minimizer.
fn still_fails(
    stmts: &[String],
    dialect: Dialect,
    cfg: &CampaignConfig,
    oracle: &str,
    tag: &str,
) -> bool {
    if stmts.is_empty() {
        return false;
    }
    examine_script(stmts, dialect, cfg, tag)
        .findings
        .iter()
        .any(|(o, _)| o == oracle)
}

/// Run a full campaign. Deterministic for a given config: the report
/// summary contains no timings, paths or host state.
pub fn run_campaign(cfg: &CampaignConfig) -> Report {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut report = Report {
        seed: cfg.seed,
        scripts: 0,
        statements: 0,
        rewrites_checked: 0,
        budget_trips: 0,
        findings: Vec::new(),
    };
    for idx in 0..cfg.budget {
        let dialect = if idx % 2 == 0 {
            Dialect::Revised
        } else {
            Dialect::Cypher9
        };
        let mut script_rng = rng.fork(idx as u64);
        let script = ScriptGen.script(&mut script_rng, dialect, cfg.stmts_per_script);
        report.scripts += 1;
        report.statements += script.stmts.len();
        let tag = format!("{}-{idx}", cfg.seed);
        let sr = examine_script(&script.stmts, dialect, cfg, &tag);
        report.rewrites_checked += sr.rewrites_checked;
        report.budget_trips += sr.budget_trips;
        for (oracle, detail) in sr.findings {
            let minimized = minimize(&script.stmts, dialect, &mut |candidate| {
                still_fails(candidate, dialect, cfg, &oracle, &format!("{tag}-min"))
            });
            let finding = Finding {
                script_idx: idx,
                dialect,
                oracle: oracle.clone(),
                detail,
                script: script.stmts.clone(),
                minimized,
            };
            if let Some(dir) = &cfg.out_dir {
                write_reproducer(dir, cfg.seed, &finding);
            }
            report.findings.push(finding);
        }
    }
    report
}

/// Reproducer file format: `//`-comment header + `;`-joined statements.
/// Replayable by `cypher-fuzz replay` and the regression-corpus tests.
pub fn write_reproducer(dir: &std::path::Path, seed: u64, f: &Finding) {
    let _ = std::fs::create_dir_all(dir);
    let name = format!(
        "seed{seed}_script{}_{}.cypher",
        f.script_idx,
        f.oracle.replace(':', "-")
    );
    let mut text = String::new();
    let _ = writeln!(text, "// cypher-fuzz reproducer");
    let _ = writeln!(text, "// seed: {seed}");
    let _ = writeln!(text, "// script: {}", f.script_idx);
    let _ = writeln!(
        text,
        "// dialect: {}",
        match f.dialect {
            Dialect::Cypher9 => "cypher9",
            Dialect::Revised => "revised",
        }
    );
    let _ = writeln!(text, "// oracle: {}", f.oracle);
    let _ = writeln!(text, "// detail: {}", f.detail.lines().next().unwrap_or(""));
    for stmt in &f.minimized {
        let _ = writeln!(text, "{stmt};");
    }
    let _ = std::fs::write(dir.join(name), text);
}

/// Parse a reproducer file: dialect from the header, statements split on
/// `;` (the generator vocabulary guarantees `;` never occurs inside a
/// statement).
pub fn parse_reproducer(text: &str) -> (Dialect, Vec<String>) {
    let mut dialect = Dialect::Revised;
    let mut body = String::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if let Some(rest) = trimmed.strip_prefix("//") {
            if let Some(d) = rest.trim().strip_prefix("dialect:") {
                if d.trim() == "cypher9" {
                    dialect = Dialect::Cypher9;
                }
            }
            continue;
        }
        body.push_str(line);
        body.push('\n');
    }
    let stmts = body
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    (dialect, stmts)
}

/// Replay one reproducer through every oracle; returns findings.
pub fn replay_reproducer(text: &str, cfg: &CampaignConfig) -> Vec<(String, String)> {
    let (dialect, stmts) = parse_reproducer(text);
    examine_script(&stmts, dialect, cfg, "replay").findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducer_roundtrip() {
        let f = Finding {
            script_idx: 3,
            dialect: Dialect::Cypher9,
            oracle: "metamorphic:rename-vars".into(),
            detail: "rows differ\nsecond line".into(),
            script: vec!["CREATE (:A)".into()],
            minimized: vec!["CREATE (:A)".into(), "MATCH (n) RETURN n.id".into()],
        };
        let dir = std::env::temp_dir().join(format!("cypher-fuzz-test-{}", std::process::id()));
        write_reproducer(&dir, 7, &f);
        let path = dir.join("seed7_script3_metamorphic-rename-vars.cypher");
        let text = std::fs::read_to_string(&path).unwrap();
        let (dialect, stmts) = parse_reproducer(&text);
        assert_eq!(dialect, Dialect::Cypher9);
        assert_eq!(stmts, f.minimized);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trivial_script_is_clean() {
        let cfg = CampaignConfig {
            metamorphic: true,
            ..CampaignConfig::default()
        };
        let stmts = vec![
            "CREATE (:A {id: 1, k: 2})".to_owned(),
            "MATCH (n:A) WHERE n.k = 2 RETURN n.id AS id".to_owned(),
        ];
        let sr = examine_script(&stmts, Dialect::Revised, &cfg, "unit");
        assert!(sr.findings.is_empty(), "{:?}", sr.findings);
    }
}
