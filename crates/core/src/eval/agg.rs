//! Aggregate functions (`count`, `sum`, `avg`, `min`, `max`, `collect`,
//! `stdev`), used by `RETURN`/`WITH` projection.
//!
//! Aggregates skip `null` inputs (except `count(*)`, which counts records).
//! `DISTINCT` deduplicates by value *equivalence* (`null ≡ null`,
//! `NaN ≡ NaN`) — the same relation grouping uses.

use std::collections::BTreeSet;

use cypher_graph::Value;

use crate::error::{EvalError, Result};

/// Which aggregate a call refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    Count,
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
    Collect,
    StDev,
}

impl AggKind {
    /// Resolve a function name (must already be known to be an aggregate).
    pub fn from_name(name: &str) -> Option<AggKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggKind::Count,
            "sum" => AggKind::Sum,
            "avg" => AggKind::Avg,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            "collect" => AggKind::Collect,
            "stdev" => AggKind::StDev,
            _ => return None,
        })
    }
}

/// Incremental aggregate accumulator.
#[derive(Clone, Debug)]
pub struct Aggregator {
    kind: AggKind,
    distinct: bool,
    /// Values seen so far when `distinct`.
    seen: BTreeSet<Value>,
    count: i64,
    sum_int: i64,
    sum_float: f64,
    saw_float: bool,
    /// Running extremum for min/max.
    extremum: Option<Value>,
    collected: Vec<Value>,
    /// For stdev: sum of squares (float).
    sum_sq: f64,
    overflow: bool,
}

impl Aggregator {
    pub fn new(kind: AggKind, distinct: bool) -> Self {
        Aggregator {
            kind,
            distinct,
            seen: BTreeSet::new(),
            count: 0,
            sum_int: 0,
            sum_float: 0.0,
            saw_float: false,
            extremum: None,
            collected: Vec::new(),
            sum_sq: 0.0,
            overflow: false,
        }
    }

    /// Feed one input value (the evaluated argument for this record).
    /// For `count(*)` pass any non-null value (e.g. `Value::Bool(true)`).
    pub fn push(&mut self, v: Value) {
        if self.kind != AggKind::CountStar && v.is_null() {
            return;
        }
        if self.distinct && !self.seen.insert(v.clone()) {
            return;
        }
        self.count += 1;
        match self.kind {
            AggKind::Count | AggKind::CountStar => {}
            AggKind::Sum | AggKind::Avg | AggKind::StDev => match &v {
                Value::Int(i) => {
                    match self.sum_int.checked_add(*i) {
                        Some(s) => self.sum_int = s,
                        None => self.overflow = true,
                    }
                    self.sum_float += *i as f64;
                    self.sum_sq += (*i as f64) * (*i as f64);
                }
                Value::Float(f) => {
                    self.saw_float = true;
                    self.sum_float += f;
                    self.sum_sq += f * f;
                }
                _ => {
                    // Cypher errors on non-numeric sums; record as overflow
                    // marker surfaced at finish().
                    self.overflow = true;
                }
            },
            AggKind::Min => {
                let better = match &self.extremum {
                    None => true,
                    Some(cur) => v.global_cmp(cur).is_lt(),
                };
                if better {
                    self.extremum = Some(v);
                }
            }
            AggKind::Max => {
                let better = match &self.extremum {
                    None => true,
                    Some(cur) => v.global_cmp(cur).is_gt(),
                };
                if better {
                    self.extremum = Some(v);
                }
            }
            AggKind::Collect => self.collected.push(v),
        }
    }

    /// Final aggregate value for the group.
    pub fn finish(self) -> Result<Value> {
        if self.overflow {
            return Err(EvalError::Arithmetic(
                "overflow or non-numeric input in numeric aggregate".into(),
            ));
        }
        Ok(match self.kind {
            AggKind::Count | AggKind::CountStar => Value::Int(self.count),
            AggKind::Sum => {
                if self.saw_float {
                    Value::Float(self.sum_float)
                } else {
                    Value::Int(self.sum_int)
                }
            }
            AggKind::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum_float / self.count as f64)
                }
            }
            AggKind::Min | AggKind::Max => self.extremum.unwrap_or(Value::Null),
            AggKind::Collect => Value::List(self.collected),
            AggKind::StDev => {
                if self.count < 2 {
                    Value::Float(0.0)
                } else {
                    let n = self.count as f64;
                    let mean = self.sum_float / n;
                    let var = (self.sum_sq - n * mean * mean) / (n - 1.0);
                    Value::Float(var.max(0.0).sqrt())
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: AggKind, distinct: bool, vals: Vec<Value>) -> Value {
        let mut a = Aggregator::new(kind, distinct);
        for v in vals {
            a.push(v);
        }
        a.finish().unwrap()
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggKind::Count, false, vals.clone()), Value::Int(2));
        assert_eq!(run(AggKind::CountStar, false, vals), Value::Int(3));
    }

    #[test]
    fn count_distinct() {
        let vals = vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Null];
        assert_eq!(run(AggKind::Count, true, vals), Value::Int(2));
    }

    #[test]
    fn sum_stays_integer_until_float_seen() {
        assert_eq!(
            run(AggKind::Sum, false, vec![Value::Int(1), Value::Int(2)]),
            Value::Int(3)
        );
        assert_eq!(
            run(AggKind::Sum, false, vec![Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
        assert_eq!(run(AggKind::Sum, false, vec![]), Value::Int(0));
    }

    #[test]
    fn avg_of_empty_group_is_null() {
        assert_eq!(run(AggKind::Avg, false, vec![]), Value::Null);
        assert_eq!(
            run(AggKind::Avg, false, vec![Value::Int(1), Value::Int(3)]),
            Value::Float(2.0)
        );
    }

    #[test]
    fn min_max_use_global_order_and_skip_nulls() {
        let vals = vec![Value::Null, Value::Int(3), Value::Int(1), Value::Float(2.0)];
        assert_eq!(run(AggKind::Min, false, vals.clone()), Value::Int(1));
        assert_eq!(run(AggKind::Max, false, vals), Value::Int(3));
        assert_eq!(run(AggKind::Min, false, vec![]), Value::Null);
    }

    #[test]
    fn collect_preserves_order_and_skips_nulls() {
        assert_eq!(
            run(
                AggKind::Collect,
                false,
                vec![Value::Int(2), Value::Null, Value::Int(1)]
            ),
            Value::list([Value::Int(2), Value::Int(1)])
        );
    }

    #[test]
    fn collect_distinct() {
        assert_eq!(
            run(
                AggKind::Collect,
                true,
                vec![Value::Int(1), Value::Int(1), Value::Int(2)]
            ),
            Value::list([Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn stdev_sample() {
        let out = run(
            AggKind::StDev,
            false,
            vec![
                Value::Int(2),
                Value::Int(4),
                Value::Int(4),
                Value::Int(4),
                Value::Int(5),
                Value::Int(5),
                Value::Int(7),
                Value::Int(9),
            ],
        );
        let Value::Float(s) = out else { panic!() };
        assert!((s - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn sum_of_strings_errors() {
        let mut a = Aggregator::new(AggKind::Sum, false);
        a.push(Value::str("x"));
        assert!(a.finish().is_err());
    }

    #[test]
    fn agg_kind_resolution() {
        assert_eq!(AggKind::from_name("COUNT"), Some(AggKind::Count));
        assert_eq!(AggKind::from_name("collect"), Some(AggKind::Collect));
        assert_eq!(AggKind::from_name("size"), None);
    }
}
