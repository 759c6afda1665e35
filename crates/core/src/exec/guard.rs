//! Execution budgets and cooperative cancellation.
//!
//! The paper's update semantics make unbounded amplification easy to write
//! — `MERGE` fans out per driving record, `FOREACH` nests, `UNWIND
//! range(...)` manufactures rows from thin air. A production engine must
//! bound a statement instead of hanging: [`ExecLimits`] declares budgets
//! (rows materialized, write operations, wall-clock time) and [`ExecGuard`]
//! enforces them cooperatively at record granularity inside the exec loops.
//!
//! Checks are *cooperative*: a budget may be overshot by the one record in
//! flight before the next check notices (`used > limit`, strictly). When a
//! budget trips, the statement fails with the typed
//! [`EvalError::ResourceExhausted`]; the engine's transaction layer rolls
//! the graph back to the statement boundary, so a budget violation is
//! always side-effect free.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::error::{EvalError, Result};

use super::UpdateStats;

/// Per-statement execution budgets. `None` means unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum rows any single clause may materialize (cumulative over the
    /// statement's clause pipeline).
    pub max_rows: Option<u64>,
    /// Maximum primitive write operations (nodes/rels created or deleted,
    /// properties set, labels added or removed).
    pub max_writes: Option<u64>,
    /// Wall-clock deadline for the whole statement.
    pub timeout: Option<Duration>,
}

impl ExecLimits {
    /// No budgets at all — the default.
    pub const NONE: ExecLimits = ExecLimits {
        max_rows: None,
        max_writes: None,
        timeout: None,
    };

    pub fn is_unlimited(&self) -> bool {
        *self == ExecLimits::NONE
    }
}

/// The one human-readable rendering of a budget set, shared by the shell's
/// `:limits` command and the server's per-session log line:
/// `limits: off` or `limits: rows 100, writes 10, time 250 ms`.
impl fmt::Display for ExecLimits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unlimited() {
            return write!(f, "limits: off");
        }
        write!(f, "limits: ")?;
        let mut sep = "";
        if let Some(n) = self.max_rows {
            write!(f, "rows {n}")?;
            sep = ", ";
        }
        if let Some(n) = self.max_writes {
            write!(f, "{sep}writes {n}")?;
            sep = ", ";
        }
        if let Some(t) = self.timeout {
            write!(f, "{sep}time {} ms", t.as_millis())?;
        }
        Ok(())
    }
}

/// Live budget state for one statement execution. The row count is
/// atomic so that the morsel workers of a parallel read
/// (`crate::exec::read`) borrow the statement's guard directly: every
/// clause, serial or parallel, charges the same cumulative counter, and
/// once it trips every later charge in any worker fails, which bounds
/// wasted work after an error without any extra cancellation machinery.
#[derive(Debug)]
pub(crate) struct ExecGuard {
    limits: ExecLimits,
    rows: AtomicU64,
    deadline: Option<Instant>,
}

impl ExecGuard {
    pub(crate) fn new(limits: ExecLimits) -> ExecGuard {
        ExecGuard {
            limits,
            rows: AtomicU64::new(0),
            // The deadline is fixed at statement start; a zero timeout
            // trips on the very first check (`now >= deadline`).
            deadline: limits
                .timeout
                .map(|t| Instant::now().checked_add(t).unwrap_or_else(Instant::now)),
        }
    }

    /// Charge `n` materialized rows and check the row budget + deadline.
    pub(crate) fn charge_rows(&self, n: usize) -> Result<()> {
        self.check_deadline()?;
        // `Relaxed`: the count publishes no other data; `scatter`'s latch
        // orders the workers' charges before the statement's next clause.
        let add = |r: u64| Some(r.saturating_add(n as u64));
        let before = self
            .rows
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
        let rows = before.unwrap_or_else(|r| r).saturating_add(n as u64);
        if let Some(limit) = self.limits.max_rows {
            if rows > limit {
                return Err(EvalError::ResourceExhausted {
                    resource: "rows",
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Check the write budget against the statement's running counters,
    /// plus the deadline.
    pub(crate) fn check_writes(&self, stats: &UpdateStats) -> Result<()> {
        self.check_deadline()?;
        if let Some(limit) = self.limits.max_writes {
            if stats.total_ops() as u64 > limit {
                return Err(EvalError::ResourceExhausted {
                    resource: "writes",
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Cooperative cancellation point: has the wall-clock deadline passed?
    pub(crate) fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Err(EvalError::ResourceExhausted {
                resource: "time (ms)",
                limit: self
                    .limits
                    .timeout
                    .map(|t| t.as_millis() as u64)
                    .unwrap_or(0),
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_shell_format() {
        assert_eq!(ExecLimits::NONE.to_string(), "limits: off");
        let l = ExecLimits {
            max_rows: Some(100),
            max_writes: None,
            timeout: Some(Duration::from_millis(250)),
        };
        assert_eq!(l.to_string(), "limits: rows 100, time 250 ms");
        let l = ExecLimits {
            max_rows: Some(1),
            max_writes: Some(2),
            timeout: Some(Duration::from_millis(3)),
        };
        assert_eq!(l.to_string(), "limits: rows 1, writes 2, time 3 ms");
    }

    #[test]
    fn unlimited_guard_never_trips() {
        let g = ExecGuard::new(ExecLimits::NONE);
        g.charge_rows(usize::MAX).unwrap();
        g.check_writes(&UpdateStats {
            nodes_created: usize::MAX,
            ..UpdateStats::default()
        })
        .unwrap();
        g.check_deadline().unwrap();
    }

    #[test]
    fn row_budget_is_cumulative_and_strict() {
        let g = ExecGuard::new(ExecLimits {
            max_rows: Some(10),
            ..ExecLimits::NONE
        });
        g.charge_rows(6).unwrap();
        g.charge_rows(4).unwrap(); // exactly at the limit: fine
        let err = g.charge_rows(1).unwrap_err();
        assert!(matches!(
            err,
            EvalError::ResourceExhausted {
                resource: "rows",
                limit: 10
            }
        ));
    }

    #[test]
    fn write_budget_reads_statement_counters() {
        let g = ExecGuard::new(ExecLimits {
            max_writes: Some(2),
            ..ExecLimits::NONE
        });
        let mut stats = UpdateStats {
            nodes_created: 2,
            ..UpdateStats::default()
        };
        g.check_writes(&stats).unwrap();
        stats.props_set = 1;
        assert!(g.check_writes(&stats).is_err());
    }

    #[test]
    fn shared_guard_pools_charges_across_threads() {
        let g = ExecGuard::new(ExecLimits {
            max_rows: Some(100),
            ..ExecLimits::NONE
        });
        g.charge_rows(10).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20 {
                        g.charge_rows(1).unwrap();
                    }
                });
            }
        });
        // 10 serial + 80 parallel charged; 10 more lands exactly on the
        // budget, the next one trips.
        g.charge_rows(10).unwrap();
        assert!(g.charge_rows(1).is_err());
    }

    #[test]
    fn row_count_saturates_so_a_tripped_budget_stays_tripped() {
        let g = ExecGuard::new(ExecLimits {
            max_rows: Some(10),
            ..ExecLimits::NONE
        });
        // A wrapping counter would come back round to 0 here.
        for n in [usize::MAX, usize::MAX, 2, 1] {
            assert!(g.charge_rows(n).is_err());
        }
    }

    #[test]
    fn zero_timeout_always_trips() {
        let g = ExecGuard::new(ExecLimits {
            timeout: Some(Duration::ZERO),
            ..ExecLimits::NONE
        });
        assert!(matches!(
            g.check_deadline().unwrap_err(),
            EvalError::ResourceExhausted {
                resource: "time (ms)",
                ..
            }
        ));
    }
}
