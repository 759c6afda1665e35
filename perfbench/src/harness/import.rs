//! `import_merge_10k`: the paper's §5 import, embedded.
//!
//! `DurableGraph::apply` + `Engine`, no server: 500-row batches from
//! `cypher_datagen::order_table` merged with `UNWIND $rows … MERGE SAME`
//! into the preloaded graph, one statement and one fsync per batch.

use std::time::Instant;

use cypher_core::{Dialect, Engine};
use cypher_datagen::{order_table, rows_as_value, OrderTableConfig};
use cypher_graph::Value;
use cypher_storage::DurableGraph;

use super::preload::{Dataset, Preset, Scratch};
use super::stats::LatencySummary;
use super::stream::PRODUCT_ID_BASE;
use super::workload::{
    measure_restart, peak_rss_mb, repeat_setup, Outcome, RunConfig, WindowStats, Workload,
};
use super::{Ctx, Res};

pub const IMPORT_BATCH_ROWS: usize = 500;
pub const IMPORT_MERGE_SAME: &str =
    "UNWIND $rows AS row MERGE SAME (:User {id: row.cid})-[:ORDERED]->(:Product {id: row.pid})";

/// Seeded import batches: `order_table` rows (30 % duplicate pairs, 5 %
/// null product ids) over twice the graph's users and products, so about
/// half the ids a row names exist already.
pub struct ImportBatches {
    preset: Preset,
    seed: u64,
    segment: u64,
    rows: std::vec::IntoIter<cypher_datagen::tables::Row>,
}

/// Rows generated at a time; duplicates are drawn within a segment.
const IMPORT_SEGMENT_ROWS: usize = 50_000;

impl ImportBatches {
    pub fn new(preset: Preset, seed: u64) -> ImportBatches {
        ImportBatches {
            preset,
            seed,
            segment: 0,
            rows: Vec::new().into_iter(),
        }
    }

    fn refill(&mut self) {
        let keys = self.preset.keys();
        let rows = order_table(&OrderTableConfig {
            rows: IMPORT_SEGMENT_ROWS,
            customers: 2 * keys.users as usize,
            products: 2 * keys.products as usize,
            duplicate_ratio: 0.3,
            null_ratio: 0.05,
            seed: self.seed.wrapping_add(self.segment),
        });
        self.segment += 1;
        self.rows = rows.into_iter();
    }

    /// The next batch as the `$rows` parameter value. Product ids are
    /// shifted into the marketplace graph's product id range.
    pub fn next_batch(&mut self) -> Value {
        let mut batch = Vec::with_capacity(IMPORT_BATCH_ROWS);
        while batch.len() < IMPORT_BATCH_ROWS {
            match self.rows.next() {
                Some(mut row) => {
                    for (name, v) in &mut row {
                        if let (&"pid", Value::Int(p)) = (&*name, &mut *v) {
                            *p += PRODUCT_ID_BASE as i64;
                        }
                    }
                    batch.push(row);
                }
                None => self.refill(),
            }
        }
        rows_as_value(&batch)
    }
}

pub fn import_engine(dialect: Dialect, rows: Value) -> Engine {
    Engine::builder(dialect).param("rows", rows).build()
}

/// Batches merged per second of `--seconds` (and of warm-up): 25 × 500 rows
/// is about 85 % of what this commit merges durably in a second.
const IMPORT_BATCHES_PER_SECOND: f64 = 25.0;

/// Batches the in-memory reference run repeats; replaying them all would
/// cost as much as the measured run.
const IMPORT_VALIDATED_BATCHES: usize = 6;

/// Embedded `DurableGraph::apply` + `Engine`, no server: one statement,
/// one fsync, per 500-row batch.
pub fn run_import(cfg: &RunConfig) -> Res<Outcome> {
    let w = Workload::ImportMerge10k;
    let scratch = Scratch::new(w.name())?;
    let preset = w.preset(cfg.check);
    let (data, (mut durable, dir, mut batches), cost) = repeat_setup(
        cfg.setups,
        &scratch,
        |dir| {
            let data = Dataset::build(preset)?;
            data.install(dir)?;
            let durable = DurableGraph::open(dir).ctx("open import store")?;
            let mut batches = ImportBatches::new(preset, cfg.seed);
            batches.refill();
            Ok((data, (durable, dir.to_path_buf(), batches)))
        },
        drop,
    )?;
    let wal = dir.join("wal.bin");
    let wal_len = || std::fs::metadata(&wal).map_or(0, |m| m.len());

    // Entity counts after each of the first batches, to compare against an
    // in-memory run of the same batches.
    let mut counts: Vec<(usize, usize)> = Vec::new();
    let mut first_batches: Vec<Value> = Vec::new();
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut window = WindowStats::default();
    // A fixed amount of work, sized to fill the measured duration on the
    // commit that defined the benchmark: the graph grows with every batch,
    // so only runs that merge the same batches into the same graph have
    // comparable latencies, restart times and memory.
    let warm = (IMPORT_BATCHES_PER_SECOND * cfg.warmup_s).ceil() as usize;
    let total = warm + (IMPORT_BATCHES_PER_SECOND * cfg.seconds).ceil().max(1.0) as usize;
    let start = Instant::now();
    let mut measured_from: Option<(Instant, u64)> = None;
    for batch in 0..total {
        if batch == warm {
            measured_from = Some((Instant::now(), wal_len()));
        }
        let rows = batches.next_batch();
        if first_batches.len() < IMPORT_VALIDATED_BATCHES {
            first_batches.push(rows.clone());
        }
        let engine = import_engine(Dialect::Revised, rows);
        let t0 = Instant::now();
        let applied = durable.apply(|g| engine.run(g, IMPORT_MERGE_SAME));
        let latency = t0.elapsed().as_nanos() as u64;
        applied.ctx("import: storage")?.ctx("import: MERGE SAME")?;
        if counts.len() < IMPORT_VALIDATED_BATCHES {
            counts.push((durable.graph().node_count(), durable.graph().rel_count()));
        }
        if measured_from.is_some() {
            latencies_ns.push(latency);
        }
    }
    let (t_measured, wal0) = measured_from.unwrap_or((start, 0));
    window.elapsed_s = t_measured.elapsed().as_secs_f64();
    window.ok_ops = latencies_ns.len() as u64;
    window.attempted = window.ok_ops;
    window.write = LatencySummary::from_ns(&latencies_ns);
    let rows_merged = (latencies_ns.len() * IMPORT_BATCH_ROWS) as f64;
    window.import_rows_s = rows_merged / window.elapsed_s.max(1e-9);
    // Per row here: a statement's WAL bytes scale with its 500 rows.
    window.wal_bytes_per_write = wal_len().saturating_sub(wal0) as f64 / rows_merged.max(1.0);
    window.flushes_per_write = Some(1.0);

    let final_counts = (durable.graph().node_count(), durable.graph().rel_count());
    drop(durable);
    let (restart_s, recovered) = measure_restart(&dir, scratch.path(), cfg.restarts)?;
    let recovered_counts = (
        recovered.graph().node_count(),
        recovered.graph().rel_count(),
    );
    drop(recovered);
    let mut validated = Vec::new();
    if recovered_counts != final_counts {
        return Err(format!(
            "{}: recovered {recovered_counts:?} nodes/rels, the acknowledged batches left \
             {final_counts:?}",
            w.name()
        ));
    }
    validated.push("every acknowledged batch survives a restart without a checkpoint");

    let mut reference = data.graph.clone();
    for (i, rows) in first_batches.into_iter().enumerate() {
        import_engine(Dialect::Revised, rows)
            .run(&mut reference, IMPORT_MERGE_SAME)
            .ctx("import: in-memory reference")?;
        let got = (reference.node_count(), reference.rel_count());
        if counts.get(i) != Some(&got) {
            return Err(format!(
                "{}: after batch {i} the store holds {:?} nodes/rels, an in-memory run {got:?}",
                w.name(),
                counts.get(i)
            ));
        }
    }
    validated.push("node and relationship counts equal an in-memory run of the same batches");

    Ok(Outcome {
        workload: w,
        setup: cost,
        window,
        restart_s,
        converge_ms: 0.0,
        peak_rss_mb: peak_rss_mb(),
        validated,
        nodes: data.graph.node_count(),
        rels: data.graph.rel_count(),
    })
}
