//! Driving tables.
//!
//! §2 of the paper: "tables are bags, or multisets, of *consistent* records,
//! i.e. of key-value maps with the same set of keys". Clause semantics are
//! functions from graph–table pairs to graph–table pairs (§8.1); [`Table`]
//! is the table half of that pair.
//!
//! Bags have no inherent order, but every implementation processes records
//! in *some* order — which is precisely how the legacy `MERGE`/`SET` leak
//! nondeterminism (§4). Rows here are kept in an explicit order so that the
//! legacy engine can process them forward or backward on demand and exhibit
//! both outcomes of Example 3.

use std::collections::BTreeMap;
use std::sync::Arc;

use cypher_graph::Value;

/// Flatten a record once its layer chain holds this many tail entries:
/// bounds lookup cost while keeping the common clone-then-extend pattern
/// (pattern matching, MERGE per-row) O(new bindings) instead of O(columns).
const FLATTEN_LIMIT: usize = 24;

/// One immutable layer of a record: bindings added on top of a shared
/// parent. A `None` value is a tombstone (the key was unbound at this
/// layer). Keys are unique within one `tail`.
#[derive(Debug)]
struct Layer {
    parent: Option<Arc<Layer>>,
    tail: Vec<(String, Option<Value>)>,
    /// Total tail entries in this chain (flattening heuristic).
    weight: usize,
}

/// One record: a binding of variable names to values.
///
/// Copy-on-write: cloning is O(1) (it shares the layer chain behind an
/// `Arc`), and binding on a clone pushes onto a small private tail instead
/// of copying every inherited column. Lookups walk newest-to-oldest; the
/// chain is flattened once it exceeds [`FLATTEN_LIMIT`] entries so lookup
/// cost stays bounded. Semantically this is still a plain key-value map —
/// equality, key order and unbound-vs-null behave exactly as before.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// `None` is the empty record.
    inner: Option<Arc<Layer>>,
}

impl Record {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a record from pairs (convenience for tests and generators).
    /// Later pairs override earlier ones, as map insertion would.
    pub fn from_pairs<I, K>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        let map: BTreeMap<String, Value> = pairs.into_iter().map(|(k, v)| (k.into(), v)).collect();
        Record::from_map(map)
    }

    fn from_map(map: BTreeMap<String, Value>) -> Self {
        if map.is_empty() {
            return Record::default();
        }
        let tail: Vec<(String, Option<Value>)> =
            map.into_iter().map(|(k, v)| (k, Some(v))).collect();
        let weight = tail.len();
        Record {
            inner: Some(Arc::new(Layer {
                parent: None,
                tail,
                weight,
            })),
        }
    }

    /// The newest entry for every key, sorted: the record's logical content.
    /// Tombstoned (unbound) keys are omitted.
    fn flat(&self) -> BTreeMap<&str, &Value> {
        let mut map: BTreeMap<&str, Option<&Value>> = BTreeMap::new();
        let mut layer = self.inner.as_deref();
        while let Some(l) = layer {
            for (k, v) in l.tail.iter().rev() {
                map.entry(k.as_str()).or_insert(v.as_ref());
            }
            layer = l.parent.as_deref();
        }
        map.into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// Look up a variable; `None` when unbound (distinct from bound-to-null).
    pub fn get(&self, name: &str) -> Option<&Value> {
        let mut layer = self.inner.as_deref()?;
        loop {
            if let Some((_, v)) = layer.tail.iter().rev().find(|(k, _)| k == name) {
                return v.as_ref();
            }
            layer = layer.parent.as_deref()?;
        }
    }

    pub fn is_bound(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Bind (or rebind) a variable.
    pub fn bind(&mut self, name: impl Into<String>, value: Value) {
        self.insert(name.into(), Some(value));
    }

    /// Remove a binding (projecting out saturation temporaries, §8.2).
    pub fn unbind(&mut self, name: &str) {
        if self.is_bound(name) {
            self.insert(name.to_owned(), None);
        }
    }

    fn insert(&mut self, name: String, value: Option<Value>) {
        let Some(arc) = self.inner.as_mut() else {
            if value.is_some() {
                self.inner = Some(Arc::new(Layer {
                    parent: None,
                    tail: vec![(name, value)],
                    weight: 1,
                }));
            }
            return;
        };
        // Sole owner: mutate the newest layer in place.
        if let Some(layer) = Arc::get_mut(arc) {
            if let Some(slot) = layer.tail.iter_mut().find(|(k, _)| *k == name) {
                slot.1 = value;
            } else {
                layer.tail.push((name, value));
                layer.weight += 1;
            }
            return;
        }
        // Shared: start a new layer on top — or flatten if the chain has
        // grown past the lookup-cost budget.
        if arc.weight >= FLATTEN_LIMIT {
            let mut map: BTreeMap<String, Value> = self
                .flat()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v.clone()))
                .collect();
            match value {
                Some(v) => {
                    map.insert(name, v);
                }
                None => {
                    map.remove(&name);
                }
            }
            *self = Record::from_map(map);
            return;
        }
        let parent = Arc::clone(arc);
        let weight = parent.weight + 1;
        self.inner = Some(Arc::new(Layer {
            parent: Some(parent),
            tail: vec![(name, value)],
            weight,
        }));
    }

    /// Variable names, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.flat().into_keys()
    }

    pub fn len(&self) -> usize {
        self.flat().len()
    }

    pub fn is_empty(&self) -> bool {
        match self.inner.as_deref() {
            None => true,
            Some(_) => self.flat().is_empty(),
        }
    }

    /// Keep only the named variables.
    pub fn project(&self, names: &[String]) -> Record {
        Record::from_map(
            names
                .iter()
                .filter_map(|n| self.get(n).map(|v| (n.clone(), v.clone())))
                .collect(),
        )
    }

    /// Replace the values `f` maps to `Some` (used by the revised `DELETE`
    /// to substitute `null` for deleted entities). Only those keys are
    /// rebound: a record `f` leaves alone is not touched.
    pub fn map_values(&mut self, f: &mut impl FnMut(&Value) -> Option<Value>) {
        let changed: Vec<(String, Value)> = self
            .flat()
            .into_iter()
            .filter_map(|(k, v)| f(v).map(|new| (k.to_owned(), new)))
            .collect();
        for (k, v) in changed {
            self.bind(k, v);
        }
    }

    /// Row of values in the order of the given columns (missing → null).
    pub fn row(&self, columns: &[String]) -> Vec<Value> {
        columns
            .iter()
            .map(|c| self.get(c).cloned().unwrap_or(Value::Null))
            .collect()
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.flat() == other.flat()
    }
}

/// A bag of consistent records, in processing order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    pub rows: Vec<Record>,
}

impl Table {
    /// The table containing a single empty record — `T()` of §8.1, the
    /// starting point of every query evaluation.
    pub fn unit() -> Self {
        Table {
            rows: vec![Record::new()],
        }
    }

    /// The empty table (no records at all). Not the same as [`Table::unit`]!
    pub fn empty() -> Self {
        Table { rows: vec![] }
    }

    pub fn from_rows(rows: Vec<Record>) -> Self {
        Table { rows }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column set of the table: the keys of its records. Consistency means
    /// every record has the same keys; the first record is authoritative.
    pub fn columns(&self) -> Vec<String> {
        self.rows
            .first()
            .map(|r| r.keys().map(str::to_owned).collect())
            .unwrap_or_default()
    }

    /// Bag union `⊎` (§8.2 `MERGE ALL`): concatenation, duplicates add up.
    pub fn bag_union(mut self, other: Table) -> Table {
        self.rows.extend(other.rows);
        self
    }

    /// Check record consistency (debug aid; the engine maintains it).
    pub fn is_consistent(&self) -> bool {
        let Some(first) = self.rows.first() else {
            return true;
        };
        let keys: Vec<&str> = first.keys().collect();
        self.rows
            .iter()
            .all(|r| r.keys().collect::<Vec<_>>() == keys)
    }

    /// Reverse the processing order in place (Example 3: "going through the
    /// driving table bottom-up").
    pub fn reverse(&mut self) {
        self.rows.reverse();
    }
}

impl FromIterator<Record> for Table {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Self {
        Table {
            rows: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_vs_empty() {
        assert_eq!(Table::unit().len(), 1);
        assert!(Table::unit().rows[0].is_empty());
        assert_eq!(Table::empty().len(), 0);
    }

    #[test]
    fn record_bind_and_project() {
        let mut r = Record::new();
        r.bind("a", Value::Int(1));
        r.bind("b", Value::str("x"));
        assert_eq!(r.get("a"), Some(&Value::Int(1)));
        assert!(r.is_bound("b"));
        let p = r.project(&["a".to_owned()]);
        assert_eq!(p.len(), 1);
        assert!(!p.is_bound("b"));
        r.unbind("a");
        assert!(!r.is_bound("a"));
    }

    #[test]
    fn unbound_differs_from_null() {
        let mut r = Record::new();
        r.bind("a", Value::Null);
        assert_eq!(r.get("a"), Some(&Value::Null));
        assert_eq!(r.get("b"), None);
    }

    #[test]
    fn bag_union_preserves_duplicates() {
        let r = Record::from_pairs([("x", Value::Int(1))]);
        let t1 = Table::from_rows(vec![r.clone(), r.clone()]);
        let t2 = Table::from_rows(vec![r.clone()]);
        let u = t1.bag_union(t2);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn consistency_check() {
        let t = Table::from_rows(vec![
            Record::from_pairs([("a", Value::Int(1))]),
            Record::from_pairs([("a", Value::Int(2))]),
        ]);
        assert!(t.is_consistent());
        let bad = Table::from_rows(vec![
            Record::from_pairs([("a", Value::Int(1))]),
            Record::from_pairs([("b", Value::Int(2))]),
        ]);
        assert!(!bad.is_consistent());
    }

    #[test]
    fn row_extraction_in_column_order() {
        let r = Record::from_pairs([("b", Value::Int(2)), ("a", Value::Int(1))]);
        assert_eq!(
            r.row(&["a".to_owned(), "b".to_owned(), "c".to_owned()]),
            vec![Value::Int(1), Value::Int(2), Value::Null]
        );
    }

    #[test]
    fn clone_then_bind_diverges() {
        let mut base = Record::from_pairs([("a", Value::Int(1))]);
        let mut fork = base.clone();
        fork.bind("b", Value::Int(2));
        fork.bind("a", Value::Int(10));
        base.bind("c", Value::Int(3));
        assert_eq!(fork.get("a"), Some(&Value::Int(10)));
        assert_eq!(fork.get("b"), Some(&Value::Int(2)));
        assert!(!fork.is_bound("c"));
        assert_eq!(base.get("a"), Some(&Value::Int(1)));
        assert!(!base.is_bound("b"));
        assert_eq!(base.get("c"), Some(&Value::Int(3)));
    }

    #[test]
    fn unbind_on_shared_parent_tombstones() {
        let base = Record::from_pairs([("a", Value::Int(1)), ("b", Value::Int(2))]);
        let mut fork = base.clone();
        fork.unbind("a");
        assert!(!fork.is_bound("a"));
        assert_eq!(fork.keys().collect::<Vec<_>>(), vec!["b"]);
        assert_eq!(fork.len(), 1);
        assert!(base.is_bound("a"));
        // Rebinding over a tombstone works.
        fork.bind("a", Value::Int(9));
        assert_eq!(fork.get("a"), Some(&Value::Int(9)));
    }

    #[test]
    fn equality_ignores_layering() {
        let flat = Record::from_pairs([("a", Value::Int(1)), ("b", Value::Int(2))]);
        let mut layered = Record::from_pairs([("a", Value::Int(0))]);
        let _shared = layered.clone(); // force a fresh layer on next bind
        layered.bind("b", Value::Int(2));
        let _shared2 = layered.clone();
        layered.bind("a", Value::Int(1));
        assert_eq!(layered, flat);
        assert_eq!(layered.keys().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn deep_chains_flatten_and_stay_correct() {
        let mut r = Record::new();
        let mut clones = Vec::new();
        for i in 0..100u32 {
            clones.push(r.clone()); // keep every layer shared
            r.bind(format!("v{i:03}"), Value::Int(i64::from(i)));
        }
        assert_eq!(r.len(), 100);
        for i in 0..100u32 {
            assert_eq!(
                r.get(&format!("v{i:03}")),
                Some(&Value::Int(i64::from(i))),
                "v{i:03}"
            );
        }
        assert_eq!(clones[50].len(), 50);
    }

    #[test]
    fn map_values_substitutes() {
        let mut r = Record::from_pairs([("a", Value::Int(1)), ("b", Value::Int(2))]);
        r.map_values(&mut |v| {
            if *v == Value::Int(1) {
                Some(Value::Null)
            } else {
                None
            }
        });
        assert_eq!(r.get("a"), Some(&Value::Null));
        assert_eq!(r.get("b"), Some(&Value::Int(2)));
    }
}
