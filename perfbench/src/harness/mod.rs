//! The benchmark harness behind `BENCHMARK.json`.
//!
//! * [`stream`] — seeded statement streams: the only thing the measured
//!   program ever sees of a workload is the statement text they produce;
//! * [`preload`] — populated marketplace graphs installed as snapshots into
//!   scratch data directories, and the directories' lifetime;
//! * [`oracle`] — the embedded-engine oracle every read and every final
//!   state is checked against;
//! * [`workload`] — the six named workloads: servers, set-up, the untraced
//!   run, restart measurement and validation;
//! * [`clients`] — the closed loop of client connections, the view probe
//!   and the phases they move through;
//! * [`import`] — the embedded `import_merge_10k` workload;
//! * [`layers`] — the traced run: the single-threaded stage replay that
//!   attributes a statement's time to the crates it passes through, and
//!   probes of single public functions;
//! * [`trace`] — the span recorder, self-time arithmetic and trace file;
//! * [`report`] — metric names, units and bounds, run metadata, printing
//!   and the run-to-run stability and spread checks;
//! * [`stats`] — percentile selection and quartiles.

pub mod clients;
pub mod import;
pub mod layers;
pub mod oracle;
pub mod preload;
pub mod report;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workload;

use std::fmt::Display;

/// Every failure in the harness ends the run with a message; nothing is
/// recovered from, so one string type carries them all.
pub type Res<T> = Result<T, String>;

/// Attach the failing step's name to any displayable error.
pub trait Ctx<T> {
    fn ctx(self, step: &str) -> Res<T>;
}

impl<T, E: Display> Ctx<T> for Result<T, E> {
    fn ctx(self, step: &str) -> Res<T> {
        self.map_err(|e| format!("{step}: {e}"))
    }
}
