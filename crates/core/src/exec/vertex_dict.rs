//! The vertex dictionary of a materialized graph: vertex value ↔ dense id.
//!
//! Paper §3.1 translates every vertex value of `V = S ∪ D` into the dense
//! domain `H = {0, …, |V|−1}` before the CSR is built. Ids are assigned in
//! first-seen order (row by row, source before destination) whatever the
//! dictionary's form, so CSRs, costs and paths never depend on it.
//!
//! Two forms hide behind [`VertexDict`]:
//!
//! * **dense integer** — both key columns are `INTEGER` and the key span
//!   `max − min + 1` is at most twice the edge count. A direct-indexed slot
//!   array maps `key − min` to the id, and the keys are kept in id order.
//!   The slot array is never larger than the two endpoint-id vectors the
//!   build allocates anyway, and no endpoint is materialized as a
//!   [`Value`] or hashed.
//! * **generic** — every other input (VARCHAR/DOUBLE/DATE keys, mixed key
//!   types, sparse integers): a [`HashableValue`] map with `sql_eq`
//!   semantics.

use gsql_storage::value::HashableValue;
use gsql_storage::{Column, Value};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Slot of a key inside the span that is not a vertex.
const EMPTY: u32 = u32::MAX;

/// Vertex value → dense id, in one of two forms (see the module docs).
#[derive(Debug)]
pub struct VertexDict {
    form: Form,
}

#[derive(Debug)]
enum Form {
    Dense {
        /// Smallest key; `slots[k − min]` is the id of key `k`.
        min: i64,
        slots: Vec<u32>,
        /// Keys in id order.
        keys: Vec<i64>,
    },
    Generic(HashMap<HashableValue, u32>),
}

impl VertexDict {
    /// Encode the endpoints of an edge table's (NULL-free) key columns.
    /// Returns the dictionary and the dense source and destination id of
    /// every row.
    pub(crate) fn encode(src: &Column, dst: &Column) -> (VertexDict, Vec<u32>, Vec<u32>) {
        let rows = src.len();
        let mut src_ids = Vec::with_capacity(rows);
        let mut dst_ids = Vec::with_capacity(rows);
        if let (Column::Int(s, _), Column::Int(d, _)) = (src, dst) {
            if let Some((min, span)) = dense_span(s.iter().chain(d).copied(), rows) {
                let mut slots = vec![EMPTY; span];
                let mut keys = Vec::new();
                let mut id_of = |k: i64| {
                    let slot = &mut slots[k.abs_diff(min) as usize];
                    if *slot == EMPTY {
                        *slot = keys.len() as u32;
                        keys.push(k);
                    }
                    *slot
                };
                for (&s, &d) in s.iter().zip(d) {
                    src_ids.push(id_of(s));
                    dst_ids.push(id_of(d));
                }
                let form = Form::Dense { min, slots, keys };
                return (VertexDict { form }, src_ids, dst_ids);
            }
        }
        let mut map: HashMap<HashableValue, u32> = HashMap::new();
        for i in 0..rows {
            let next = map.len() as u32;
            src_ids.push(*map.entry(HashableValue(src.get(i))).or_insert(next));
            let next = map.len() as u32;
            dst_ids.push(*map.entry(HashableValue(dst.get(i))).or_insert(next));
        }
        (VertexDict { form: Form::Generic(map) }, src_ids, dst_ids)
    }

    /// Rebuild a dictionary from its values in id order (a persisted
    /// graph over `rows` edges), in the form [`VertexDict::encode`] picks
    /// for the same graph. `None` when a value repeats.
    pub(crate) fn from_values(values: Vec<Value>, rows: usize) -> Option<VertexDict> {
        if let Some(keys) = values.iter().map(Value::as_int).collect::<Option<Vec<i64>>>() {
            if let Some((min, span)) = dense_span(keys.iter().copied(), rows) {
                let mut slots = vec![EMPTY; span];
                for (id, &k) in keys.iter().enumerate() {
                    let slot = &mut slots[k.abs_diff(min) as usize];
                    if *slot != EMPTY {
                        return None;
                    }
                    *slot = id as u32;
                }
                return Some(VertexDict { form: Form::Dense { min, slots, keys } });
            }
        }
        let n = values.len();
        let map: HashMap<HashableValue, u32> =
            values.into_iter().enumerate().map(|(i, v)| (HashableValue(v), i as u32)).collect();
        (map.len() == n).then_some(VertexDict { form: Form::Generic(map) })
    }

    /// The dense id of a vertex value under `sql_eq`: a `Double(3.0)`
    /// probe finds `Int(3)`; NULL and non-vertices give `None`.
    pub fn lookup(&self, v: &Value) -> Option<u32> {
        match &self.form {
            Form::Dense { min, slots, .. } => {
                let k = match *v {
                    Value::Int(k) => k,
                    Value::Double(x) => integral(x)?,
                    _ => return None,
                };
                let slot = usize::try_from(k.checked_sub(*min)?).ok()?;
                slots.get(slot).copied().filter(|&id| id != EMPTY)
            }
            Form::Generic(_) if v.is_null() => None,
            Form::Generic(map) => map.get(v as &dyn Probe).copied(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        match &self.form {
            Form::Dense { keys, .. } => keys.len(),
            Form::Generic(map) => map.len(),
        }
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `"dense"` or `"generic"`: the form the dictionary was built in.
    pub fn form(&self) -> &'static str {
        match self.form {
            Form::Dense { .. } => "dense",
            Form::Generic(_) => "generic",
        }
    }

    /// The vertex values in id order. The dense form keeps them that way;
    /// the generic form inverts its map.
    pub fn values(&self) -> Vec<Value> {
        match &self.form {
            Form::Dense { keys, .. } => keys.iter().map(|&k| Value::Int(k)).collect(),
            Form::Generic(map) => {
                let mut values = vec![Value::Null; map.len()];
                for (hv, &id) in map {
                    values[id as usize] = hv.0.clone();
                }
                values
            }
        }
    }
}

/// The smallest key and the key span when `keys` qualify for the dense
/// form over `rows` edges: span `max − min + 1` at most `2 × rows`. The
/// difference is taken in `u64`, so `i64::MIN..=i64::MAX` cannot overflow.
/// No keys at all give an empty span.
fn dense_span(keys: impl Iterator<Item = i64>, rows: usize) -> Option<(i64, usize)> {
    let (min, max) = keys.fold((i64::MAX, i64::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
    if min > max {
        return Some((0, 0));
    }
    let diff = max.abs_diff(min);
    (diff < rows.saturating_mul(2) as u64).then(|| (min, diff as usize + 1))
}

/// The integer a double equals under `sql_eq`, when it has one in range.
fn integral(x: f64) -> Option<i64> {
    // 2^63 is exactly representable; `i64::MAX as f64` rounds up to it.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    (x.fract() == 0.0 && (-TWO_63..TWO_63).contains(&x)).then_some(x as i64)
}

/// A key of the generic map seen through a borrow, so [`VertexDict::lookup`]
/// probes with the caller's `&Value` instead of cloning it into a
/// [`HashableValue`]. Hash and equality match `HashableValue`'s.
trait Probe {
    fn value(&self) -> &Value;
}

impl Probe for Value {
    fn value(&self) -> &Value {
        self
    }
}

impl Probe for HashableValue {
    fn value(&self) -> &Value {
        &self.0
    }
}

impl<'a> Borrow<dyn Probe + 'a> for HashableValue {
    fn borrow(&self) -> &(dyn Probe + 'a) {
        self
    }
}

impl Hash for dyn Probe + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.value().hash_value(state);
    }
}

impl PartialEq for dyn Probe + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.value() == other.value()
    }
}

impl Eq for dyn Probe + '_ {}
