//! The Cypher value system.
//!
//! Values appear in three places: property maps stored in the graph, cells of
//! the driving table, and intermediate expression results. The paper leans on
//! two subtle aspects of the value model, both implemented here:
//!
//! * **`null` handling** — the `MERGE` examples of §6 (Example 5) feed tables
//!   containing `null` IDs into update clauses, and the revised `DELETE`
//!   (§7) substitutes `null` for references to deleted entities. Comparisons
//!   follow SQL-style ternary logic ([`Ternary`]).
//! * **Equivalence vs. equality** — grouping, `DISTINCT` and the
//!   collapsibility relations of Defs. 1–2 need an *equivalence* where
//!   `null ≡ null` and `NaN ≡ NaN`, distinct from the 3-valued `=` operator
//!   of the language. These are [`Value::equivalent`] and [`Value::cypher_eq`]
//!   respectively.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{NodeId, RelId};

/// Three-valued logic, used by `WHERE` filtering and all comparisons
/// involving `null`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ternary {
    True,
    False,
    Unknown,
}

impl Ternary {
    pub fn from_bool(b: bool) -> Self {
        if b {
            Ternary::True
        } else {
            Ternary::False
        }
    }

    /// Kleene conjunction.
    pub fn and(self, other: Ternary) -> Ternary {
        use Ternary::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Kleene disjunction.
    pub fn or(self, other: Ternary) -> Ternary {
        use Ternary::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Kleene exclusive or.
    pub fn xor(self, other: Ternary) -> Ternary {
        use Ternary::*;
        match (self, other) {
            (Unknown, _) | (_, Unknown) => Unknown,
            (a, b) => Ternary::from_bool(a != b),
        }
    }

    /// Kleene negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Ternary {
        match self {
            Ternary::True => Ternary::False,
            Ternary::False => Ternary::True,
            Ternary::Unknown => Ternary::Unknown,
        }
    }

    /// `WHERE` keeps a record only when the predicate is `true`
    /// (`unknown` filters out, like SQL).
    pub fn is_true(self) -> bool {
        self == Ternary::True
    }

    /// Convert back to a nullable boolean value.
    pub fn into_value(self) -> Value {
        match self {
            Ternary::True => Value::Bool(true),
            Ternary::False => Value::Bool(false),
            Ternary::Unknown => Value::Null,
        }
    }
}

/// A path value, as produced by named path patterns.
///
/// Invariant: `nodes.len() == rels.len() + 1`.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct PathValue {
    pub nodes: Vec<NodeId>,
    pub rels: Vec<RelId>,
}

impl PathValue {
    pub fn single(node: NodeId) -> Self {
        PathValue {
            nodes: vec![node],
            rels: vec![],
        }
    }

    /// Number of relationships in the path (Cypher `length()`).
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }
}

/// A Cypher value.
#[derive(Clone, Debug)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    List(Vec<Value>),
    /// Map literals / projections. Keys are plain strings (they are not part
    /// of the graph's interned vocabulary).
    Map(BTreeMap<String, Value>),
    Node(NodeId),
    Rel(RelId),
    Path(PathValue),
}

impl Value {
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(items.into_iter().collect())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Can this value be stored as a property? Booleans, integers, floats,
    /// strings, and lists of those (openCypher property model). `null` is
    /// not storable — assigning it removes the key.
    pub fn storable_as_property(&self) -> bool {
        match self {
            Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_) => true,
            Value::List(items) => items.iter().all(|v| {
                matches!(
                    v,
                    Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_)
                )
            }),
            _ => false,
        }
    }

    /// The Cypher `=` operator: ternary, `null` poisons, numbers compare
    /// across int/float, values of different (non-numeric) types are
    /// *not equal* (false, not unknown), and `NaN = NaN` is false.
    pub fn cypher_eq(&self, other: &Value) -> Ternary {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ternary::Unknown,
            (Int(_) | Float(_), Int(_) | Float(_)) => {
                Ternary::from_bool(num_cmp(self, other) == Some(Ordering::Equal))
            }
            (Bool(a), Bool(b)) => Ternary::from_bool(a == b),
            (Str(a), Str(b)) => Ternary::from_bool(a == b),
            (Node(a), Node(b)) => Ternary::from_bool(a == b),
            (Rel(a), Rel(b)) => Ternary::from_bool(a == b),
            (Path(a), Path(b)) => Ternary::from_bool(a == b),
            (List(a), List(b)) => {
                if a.len() != b.len() {
                    return Ternary::False;
                }
                let mut result = Ternary::True;
                for (x, y) in a.iter().zip(b) {
                    result = result.and(x.cypher_eq(y));
                    if result == Ternary::False {
                        return Ternary::False;
                    }
                }
                result
            }
            (Map(a), Map(b)) => {
                if a.len() != b.len() || !a.keys().eq(b.keys()) {
                    return Ternary::False;
                }
                let mut result = Ternary::True;
                for (x, y) in a.values().zip(b.values()) {
                    result = result.and(x.cypher_eq(y));
                    if result == Ternary::False {
                        return Ternary::False;
                    }
                }
                result
            }
            _ => Ternary::False,
        }
    }

    /// Equivalence, as used by `DISTINCT`, grouping keys, and the
    /// collapsibility relations (Defs. 1–2): like `=`, except `null ≡ null`
    /// and `NaN ≡ NaN` hold. Defined as equality under the global order,
    /// so the two can never disagree.
    pub fn equivalent(&self, other: &Value) -> bool {
        self.global_cmp(other).is_eq()
    }

    /// Comparison for the `<`, `<=`, `>`, `>=` operators: defined between two
    /// numbers, two strings, or two booleans; anything else (including any
    /// `null` operand) is `Unknown`.
    pub fn cypher_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Int(_) | Float(_), Int(_) | Float(_)) => num_cmp(self, other),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (List(a), List(b)) => {
                // Lexicographic comparison; bail to incomparable on any
                // incomparable element pair.
                for (x, y) in a.iter().zip(b) {
                    match x.cypher_cmp(y)? {
                        Ordering::Equal => continue,
                        ord => return Some(ord),
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => None,
        }
    }

    /// Global orderability for `ORDER BY` (openCypher): every pair of values
    /// is comparable. Type buckets order as
    /// map < node < relationship < list < path < string < boolean < number,
    /// `NaN` after all other numbers, and `null` greatest (so ascending
    /// order puts nulls last).
    pub fn global_cmp(&self, other: &Value) -> Ordering {
        fn bucket(v: &Value) -> u8 {
            match v {
                Value::Map(_) => 0,
                Value::Node(_) => 1,
                Value::Rel(_) => 2,
                Value::List(_) => 3,
                Value::Path(_) => 4,
                Value::Str(_) => 5,
                Value::Bool(_) => 6,
                Value::Int(_) | Value::Float(_) => 7,
                Value::Null => 8,
            }
        }
        use Value::*;
        let (ba, bb) = (bucket(self), bucket(other));
        if ba != bb {
            return ba.cmp(&bb);
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Node(a), Node(b)) => a.cmp(b),
            (Rel(a), Rel(b)) => a.cmp(b),
            (Int(_) | Float(_), Int(_) | Float(_)) => {
                let is_nan = |v: &Value| matches!(v, Float(f) if f.is_nan());
                num_cmp(self, other).unwrap_or_else(|| is_nan(self).cmp(&is_nan(other)))
            }
            (List(a), List(b)) => a.cmp(b),
            (Map(a), Map(b)) => a.cmp(b),
            (Path(a), Path(b)) => (&a.nodes, &a.rels).cmp(&(&b.nodes, &b.rels)),
            _ => unreachable!("bucketed comparison covers all same-bucket pairs"),
        }
    }
}

/// Structural equality for use in tests and collections. This is the
/// *equivalence* relation (`null == null`, `NaN == NaN`), not the language's
/// ternary `=`.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.equivalent(other)
    }
}

impl Eq for Value {}

/// The global order ([`Value::global_cmp`]), which agrees exactly with
/// equivalence: `a.cmp(b) == Equal` iff `a == b`. So `Value` and
/// `Vec<Value>` key ordered maps directly — property indexes, grouping,
/// `DISTINCT` and `MERGE` collapse classes — and equal keys are exactly
/// equivalent values: `1` and `1.0` share an index slot, as `=` would
/// conflate them, while `2⁵³ + 1` and `2⁵³.0` do not.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.global_cmp(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The one numeric comparison behind `=`, `<`, equivalence and the global
/// order: exact across `Int`/`Float` (no rounding through `f64`, so
/// `2⁵³ + 1 > 2⁵³.0`), `None` when either side is `NaN` or not a number.
fn num_cmp(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
        (Value::Int(i), Value::Float(f)) => int_float_cmp(*i, *f),
        (Value::Float(f), Value::Int(i)) => int_float_cmp(*i, *f).map(Ordering::reverse),
        _ => None,
    }
}

/// Exact `i` vs `f`. Every float in `[-2⁶³, 2⁶³)` truncates to an `i64`
/// without loss; the fractional part then breaks an integer tie.
fn int_float_cmp(i: i64, f: f64) -> Option<Ordering> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        None
    } else if f >= TWO_63 {
        Some(Ordering::Less)
    } else if f < -TWO_63 {
        Some(Ordering::Greater)
    } else {
        let t = f.trunc();
        Some(i.cmp(&(t as i64)).then(0.0_f64.partial_cmp(&(f - t))?))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<NodeId> for Value {
    fn from(n: NodeId) -> Self {
        Value::Node(n)
    }
}

impl From<RelId> for Value {
    fn from(r: RelId) -> Self {
        Value::Rel(r)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "'{s}'"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Node(n) => write!(f, "{n}"),
            Value::Rel(r) => write!(f, "{r}"),
            Value::Path(p) => {
                write!(f, "path(")?;
                for (i, n) in p.nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, "-{}-", p.rels[i - 1])?;
                    }
                    write!(f, "{n}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ternary_truth_tables() {
        use Ternary::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
        assert_eq!(True.xor(Unknown), Unknown);
        assert_eq!(True.xor(False), True);
        assert_eq!(True.xor(True), False);
    }

    #[test]
    fn null_poisons_equality() {
        assert_eq!(Value::Null.cypher_eq(&Value::Int(1)), Ternary::Unknown);
        assert_eq!(Value::Null.cypher_eq(&Value::Null), Ternary::Unknown);
    }

    #[test]
    fn cross_type_equality_is_false_not_unknown() {
        assert_eq!(Value::Int(1).cypher_eq(&Value::str("1")), Ternary::False);
        assert_eq!(Value::Bool(true).cypher_eq(&Value::Int(1)), Ternary::False);
    }

    #[test]
    fn numeric_equality_crosses_int_float() {
        assert_eq!(Value::Int(1).cypher_eq(&Value::Float(1.0)), Ternary::True);
        assert_eq!(Value::Int(1).cypher_eq(&Value::Float(1.5)), Ternary::False);
    }

    #[test]
    fn nan_equals_nothing_but_is_equivalent_to_itself() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cypher_eq(&nan), Ternary::False);
        assert!(nan.equivalent(&nan));
    }

    #[test]
    fn list_equality_propagates_unknown() {
        let a = Value::list([Value::Int(1), Value::Null]);
        let b = Value::list([Value::Int(1), Value::Int(2)]);
        assert_eq!(a.cypher_eq(&b), Ternary::Unknown);
        let c = Value::list([Value::Int(9), Value::Null]);
        assert_eq!(c.cypher_eq(&b), Ternary::False);
    }

    #[test]
    fn equivalence_treats_null_as_equal() {
        assert!(Value::Null.equivalent(&Value::Null));
        assert!(!Value::Null.equivalent(&Value::Int(0)));
        assert!(Value::list([Value::Null]).equivalent(&Value::list([Value::Null])));
    }

    #[test]
    fn equivalence_crosses_numeric_types() {
        assert!(Value::Int(2).equivalent(&Value::Float(2.0)));
        assert!(!Value::Int(2).equivalent(&Value::Float(2.5)));
    }

    #[test]
    fn numbers_compare_exactly_across_int_and_float() {
        let two_53 = 1i64 << 53;
        let cases = [
            (
                Value::Int(two_53 + 1),
                Value::Float(two_53 as f64),
                Ordering::Greater,
            ),
            (
                Value::Int(two_53),
                Value::Float(two_53 as f64),
                Ordering::Equal,
            ),
            (
                Value::Int(i64::MAX),
                Value::Float(2f64.powi(63)),
                Ordering::Less,
            ),
            (
                Value::Int(i64::MIN),
                Value::Float(-(2f64.powi(63))),
                Ordering::Equal,
            ),
            (Value::Int(-1), Value::Float(-1.5), Ordering::Greater),
            (Value::Int(-2), Value::Float(-1.5), Ordering::Less),
            (Value::Int(0), Value::Float(-0.0), Ordering::Equal),
            (
                Value::Int(i64::MAX),
                Value::Float(f64::INFINITY),
                Ordering::Less,
            ),
            (
                Value::Int(i64::MIN),
                Value::Float(f64::NEG_INFINITY),
                Ordering::Greater,
            ),
        ];
        for (a, b, ord) in cases {
            assert_eq!(a.global_cmp(&b), ord, "{a:?} vs {b:?}");
            assert_eq!(b.global_cmp(&a), ord.reverse(), "{b:?} vs {a:?}");
            assert_eq!(a.cypher_cmp(&b), Some(ord), "{a:?} < {b:?}");
            assert_eq!(a.cypher_eq(&b), Ternary::from_bool(ord.is_eq()));
            assert_eq!(a == b, ord.is_eq());
        }
        let nan = Value::Float(f64::NAN);
        assert_eq!(Value::Int(i64::MAX).global_cmp(&nan), Ordering::Less);
        assert_eq!(Value::Int(1).cypher_cmp(&nan), None);
    }

    #[test]
    fn comparison_requires_compatible_types() {
        assert_eq!(Value::Int(1).cypher_cmp(&Value::str("a")), None);
        assert_eq!(
            Value::Int(1).cypher_cmp(&Value::Float(2.0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("a").cypher_cmp(&Value::str("b")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn global_order_puts_null_last_and_is_total() {
        let vals = vec![
            Value::Map(BTreeMap::new()),
            Value::Node(NodeId(0)),
            Value::Rel(RelId(0)),
            Value::list([Value::Int(1)]),
            Value::str("x"),
            Value::Bool(false),
            Value::Int(3),
            Value::Float(f64::NAN),
            Value::Null,
        ];
        for w in vals.windows(2) {
            assert_eq!(
                w[0].global_cmp(&w[1]),
                Ordering::Less,
                "{} should sort before {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn global_order_nan_after_numbers_before_null() {
        assert_eq!(
            Value::Float(f64::INFINITY).global_cmp(&Value::Float(f64::NAN)),
            Ordering::Less
        );
        assert_eq!(
            Value::Float(f64::NAN).global_cmp(&Value::Null),
            Ordering::Less
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(
            Value::list([Value::Int(1), Value::str("a")]).to_string(),
            "[1, 'a']"
        );
    }

    #[test]
    fn path_value_len() {
        let p = PathValue::single(NodeId(1));
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
    }
}
