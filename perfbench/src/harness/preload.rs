//! Populated graphs and the scratch directories they are installed into.
//!
//! A data directory is never built by replaying statements (replaying the
//! `graph_to_cypher` dump of the 100k graph takes minutes): the generated
//! graph is encoded once with `snapshot::encode_bytes` and installed with
//! `DurableGraph::install_snapshot`, always from scratch, and the time that
//! takes is part of `setup_s`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cypher_core::Engine;
use cypher_datagen::{marketplace_graph, MarketplaceConfig};
use cypher_graph::PropertyGraph;
use cypher_storage::{snapshot, DurableGraph};

use super::stream::KeySpace;
use super::{Ctx, Res};

/// The marketplace graph is a fixed dataset, like a table shipped with a
/// benchmark: `--seed` drives the statement streams, not the graph.
const GRAPH_SEED: u64 = 42;

/// A named graph size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The default `MarketplaceConfig` (310 nodes, 750 rels): `--check`.
    Tiny,
    /// 10.4k nodes, 18k relationships.
    G10k,
    /// The 10k preset times ten: 104k nodes, 180k relationships.
    G100k,
}

impl Preset {
    pub fn config(self) -> MarketplaceConfig {
        let base = MarketplaceConfig {
            users: 7_000,
            vendors: 400,
            products: 3_000,
            orders: 12_000,
            offers: 6_000,
            seed: GRAPH_SEED,
        };
        match self {
            Preset::Tiny => MarketplaceConfig {
                seed: GRAPH_SEED,
                ..MarketplaceConfig::default()
            },
            Preset::G10k => base,
            Preset::G100k => MarketplaceConfig {
                users: base.users * 10,
                vendors: base.vendors * 10,
                products: base.products * 10,
                orders: base.orders * 10,
                offers: base.offers * 10,
                seed: GRAPH_SEED,
            },
        }
    }

    pub fn keys(self) -> KeySpace {
        let c = self.config();
        KeySpace {
            users: c.users as u64,
            products: c.products as u64,
        }
    }
}

/// Indexes every preset carries. `:User(id)` anchors every read and write;
/// `:Product(id)` keeps the relationship-creating write's footprint at two
/// index probes instead of a product label scan that would grow with the
/// graph.
pub const INDEXES: [&str; 2] = ["CREATE INDEX ON :User(id)", "CREATE INDEX ON :Product(id)"];

/// A generated graph and its snapshot encoding.
pub struct Dataset {
    pub graph: PropertyGraph,
    /// Complete `snapshot.bin` bytes covering txid 0.
    pub snapshot: Vec<u8>,
    /// What `marketplace_graph` and the index builds took.
    pub generate_s: f64,
}

impl Dataset {
    pub fn build(preset: Preset) -> Res<Dataset> {
        let t0 = Instant::now();
        let mut graph = marketplace_graph(&preset.config());
        let engine = Engine::revised();
        for stmt in INDEXES {
            engine.run(&mut graph, stmt).ctx(stmt)?;
        }
        let generate_s = t0.elapsed().as_secs_f64();
        let snapshot = snapshot::encode_bytes(&graph, 0).ctx("encode snapshot")?;
        Ok(Dataset {
            graph,
            snapshot,
            generate_s,
        })
    }

    /// Install the snapshot into a fresh data directory, leaving it closed:
    /// `snapshot.bin` holds the graph, `wal.bin` is empty.
    pub fn install(&self, dir: &Path) -> Res<()> {
        let _ = std::fs::remove_dir_all(dir);
        let mut durable = DurableGraph::open(dir).ctx("open fresh data dir")?;
        durable
            .install_snapshot(&self.snapshot)
            .ctx("install snapshot")?;
        Ok(())
    }
}

/// Where the benchmark writes: the cargo target directory the binary runs
/// from (`<target>/release/perfbench` → `<target>`), so that everything
/// stays inside the checkout and under a git-ignored path.
pub fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().and_then(Path::parent).map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

/// Results and traces outlive the run: `<target>/bench/`.
pub fn output_dir() -> Res<PathBuf> {
    let dir = target_dir().join("bench");
    std::fs::create_dir_all(&dir).ctx("create output dir")?;
    Ok(dir)
}

static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A scratch directory under `<target>/bench/data/`, removed on drop.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> Res<Scratch> {
        let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
        let root = output_dir()?
            .join("data")
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).ctx("create scratch dir")?;
        Ok(Scratch { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Copy a data directory's snapshot and log — the bytes a crash would
/// leave behind — into `to`.
pub fn copy_data_dir(from: &Path, to: &Path) -> Res<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).ctx("create restart dir")?;
    for name in ["snapshot.bin", "wal.bin"] {
        let src = from.join(name);
        if src.exists() {
            std::fs::copy(&src, to.join(name)).ctx("copy data file")?;
        }
    }
    Ok(())
}

/// The filesystem type a path lives on, from `/proc/self/mounts` (longest
/// mount-point prefix wins); `unknown` off Linux.
pub fn filesystem_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".to_owned();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_100k_preset_is_the_10k_preset_times_ten() {
        let (a, b) = (Preset::G10k.config(), Preset::G100k.config());
        assert_eq!(b.users, a.users * 10);
        assert_eq!(b.orders, a.orders * 10);
        assert_eq!(a.users + a.vendors + a.products, 10_400);
        assert_eq!(a.orders + a.offers, 18_000);
    }

    #[test]
    fn an_installed_dataset_reopens_with_its_indexes_and_an_empty_log() {
        let data = Dataset::build(Preset::Tiny).unwrap();
        let scratch = Scratch::new("preload-test").unwrap();
        let dir = scratch.dir("db");
        data.install(&dir).unwrap();
        let reopened = DurableGraph::open(&dir).unwrap();
        assert_eq!(reopened.graph().node_count(), data.graph.node_count());
        assert_eq!(reopened.graph().rel_count(), data.graph.rel_count());
        assert_eq!(reopened.graph().index_list().len(), INDEXES.len());
        assert_eq!(reopened.next_txid(), 1);
        let root = scratch.path().to_path_buf();
        drop(scratch);
        assert!(!root.exists(), "scratch dirs are deleted on drop");
    }
}
