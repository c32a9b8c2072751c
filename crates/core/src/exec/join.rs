//! Join execution: the build/probe halves the pipeline engine fuses.
//!
//! The right input is the **build** side: it is fully executed, its
//! equi-key cells are evaluated chunk-parallel and hashed in row order.
//! The left input streams through [`JoinProbe::probe_rows`] morsel by
//! morsel. A condition with no equi conjunct probes every build row (a
//! nested loop), and a join with no condition at all (a cross product)
//! pairs every build row without evaluating anything.

use crate::error::Error;
use crate::exec::expression::{eval, eval_row, PairRow};
use crate::plan::{BinaryOp, BoundExpr, JoinKind, PlanSchema};
use gsql_parallel::Pool;
use gsql_storage::value::HashableValue;
use gsql_storage::{Table, Value};
use std::collections::HashMap;
use std::sync::Arc;

type Result<T> = std::result::Result<T, Error>;

/// A join's build side, prepared once and probed many times — the
/// pipeline engine builds this as a **breaker** (the build side is fully
/// executed and hashed before the probe pipeline starts) and then probes it
/// morsel by morsel with per-worker pair lists.
pub(crate) struct JoinProbe {
    /// The materialized build (right) side.
    pub right: Arc<Table>,
    kind: JoinKind,
    /// Column count of the probe (left) side: pair rows address right
    /// columns from here on.
    n_left: usize,
    /// Equi-key expression pairs; empty means every build row is a
    /// candidate.
    equi: Vec<(BoundExpr, BoundExpr)>,
    /// Residual predicate over the joined pair row (the full condition
    /// when there is no equi key; `None` accepts every candidate).
    residual: Option<BoundExpr>,
    /// Hash table from equi key to build-side rows, in ascending row order.
    ht: HashMap<Vec<HashableValue>, Vec<usize>>,
}

impl JoinProbe {
    /// Build the hash table over `right` (key evaluation chunk-parallel,
    /// insertion sequential in row order — identical candidate ordering to
    /// a sequential build — and on failure the error of the earliest
    /// failing row, at every thread count).
    pub fn build(
        right: Arc<Table>,
        kind: JoinKind,
        on: Option<&BoundExpr>,
        n_left: usize,
        params: &[Value],
        pool: &Pool,
    ) -> Result<JoinProbe> {
        let (equi, residual) = match on {
            Some(on) => split_equi_keys(on, n_left),
            None => (Vec::new(), None),
        };
        let mut ht: HashMap<Vec<HashableValue>, Vec<usize>> = HashMap::new();
        if !equi.is_empty() {
            // Every chunk runs to its own first error (no fail-fast), so the
            // first failing chunk in order holds the earliest failing row.
            let chunks = pool.map_chunks(right.row_count(), |range| {
                range.map(|j| key_of(&equi, true, &right, j, params)).collect::<Result<Vec<_>>>()
            });
            let mut j = 0;
            for chunk in chunks {
                for key in chunk? {
                    if let Some(key) = key {
                        ht.entry(key).or_default().push(j);
                    }
                    j += 1;
                }
            }
        }
        Ok(JoinProbe { right, kind, n_left, equi, residual, ht })
    }

    /// Probe one batch of left rows (ascending), appending `(left_row,
    /// right_row)` pairs in exactly the order a sequential probe of those
    /// rows would emit them; a left-outer probe null-extends unmatched rows.
    pub fn probe_rows(
        &self,
        left: &Table,
        rows: impl Iterator<Item = usize>,
        params: &[Value],
        pairs: &mut Vec<(usize, Option<usize>)>,
    ) -> Result<()> {
        for i in rows {
            let before = pairs.len();
            if self.equi.is_empty() {
                for j in 0..self.right.row_count() {
                    if self.residual_holds(left, i, j, params)? {
                        pairs.push((i, Some(j)));
                    }
                }
            } else if let Some(key) = key_of(&self.equi, false, left, i, params)? {
                for &j in self.ht.get(key.as_slice()).into_iter().flatten() {
                    if self.residual_holds(left, i, j, params)? {
                        pairs.push((i, Some(j)));
                    }
                }
            }
            if pairs.len() == before && self.kind == JoinKind::LeftOuter {
                pairs.push((i, None));
            }
        }
        Ok(())
    }

    fn residual_holds(&self, left: &Table, i: usize, j: usize, params: &[Value]) -> Result<bool> {
        let Some(residual) = &self.residual else { return Ok(true) };
        let row = PairRow {
            left,
            left_row: i,
            right: &self.right,
            right_row: Some(j),
            n_left: self.n_left,
        };
        Ok(eval_row(residual, &row, params)? == Value::Bool(true))
    }
}

/// Decompose `cond` into equi-key pairs `(left_expr, right_expr)` — where
/// one side references only left columns and the other only right columns —
/// plus a residual predicate of the remaining conjuncts.
fn split_equi_keys(
    cond: &BoundExpr,
    n_left: usize,
) -> (Vec<(BoundExpr, BoundExpr)>, Option<BoundExpr>) {
    let mut conjuncts = Vec::new();
    flatten_and(cond, &mut conjuncts);
    let mut equi = Vec::new();
    let mut residual: Option<BoundExpr> = None;
    for c in conjuncts {
        if let BoundExpr::Binary { left, op: BinaryOp::Eq, right } = &c {
            let l_side = side_of(left, n_left);
            let r_side = side_of(right, n_left);
            match (l_side, r_side) {
                (Side::Left, Side::Right) => {
                    // Rebase the right expression onto right-table ordinals.
                    equi.push(((**left).clone(), rebase(right, n_left)));
                    continue;
                }
                (Side::Right, Side::Left) => {
                    equi.push(((**right).clone(), rebase(left, n_left)));
                    continue;
                }
                _ => {}
            }
        }
        residual = Some(match residual {
            None => c,
            Some(r) => {
                BoundExpr::Binary { left: Box::new(r), op: BinaryOp::And, right: Box::new(c) }
            }
        });
    }
    (equi, residual)
}

#[derive(PartialEq, Clone, Copy)]
enum Side {
    Left,
    Right,
    Both,
    Neither,
}

fn side_of(e: &BoundExpr, n_left: usize) -> Side {
    let cols = e.referenced_columns();
    let has_left = cols.iter().any(|&c| c < n_left);
    let has_right = cols.iter().any(|&c| c >= n_left);
    match (has_left, has_right) {
        (true, true) => Side::Both,
        (true, false) => Side::Left,
        (false, true) => Side::Right,
        (false, false) => Side::Neither,
    }
}

fn rebase(e: &BoundExpr, n_left: usize) -> BoundExpr {
    e.remap_columns(&|i| i - n_left)
}

fn flatten_and(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
    if let BoundExpr::Binary { left, op: BinaryOp::And, right } = e {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e.clone());
    }
}

/// Evaluate one side's equi-key row: `None` when any key cell is NULL
/// (NULL keys never match).
fn key_of(
    keys: &[(BoundExpr, BoundExpr)],
    pick_right: bool,
    table: &Table,
    row: usize,
    params: &[Value],
) -> Result<Option<Vec<HashableValue>>> {
    let mut key = Vec::with_capacity(keys.len());
    for (lk, rk) in keys {
        let v = eval(if pick_right { rk } else { lk }, table, row, params)?;
        if v.is_null() {
            return Ok(None);
        }
        key.push(HashableValue(v));
    }
    Ok(Some(key))
}

/// Materialize the joined pairs into an output table.
pub(crate) fn materialize_pairs(
    left: &Table,
    right: &Table,
    pairs: &[(usize, Option<usize>)],
    schema: &PlanSchema,
) -> Result<Table> {
    let left_idx: Vec<usize> = pairs.iter().map(|&(i, _)| i).collect();
    let mut columns = Vec::with_capacity(schema.len());
    for c in left.columns() {
        columns.push(c.take(&left_idx));
    }
    // The right side may contain NULL extensions; gather cell-wise.
    let storage = schema.to_storage_schema();
    for (ci, def) in storage.columns().iter().enumerate().skip(left.schema().len()) {
        let rci = ci - left.schema().len();
        let mut b = gsql_storage::ColumnBuilder::new(def.ty);
        for &(_, j) in pairs {
            let v = match j {
                Some(j) => right.column(rci).get(j),
                None => Value::Null,
            };
            b.push(v).map_err(Error::Storage)?;
        }
        columns.push(b.finish());
    }
    // The plan schema may declare left columns nullable (outer-join shapes);
    // the storage schema of the output follows the plan.
    Table::from_columns(storage, columns).map_err(Error::Storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanColumn;
    use gsql_storage::{ColumnDef, DataType, Schema};

    fn table(name_prefix: &str, rows: &[(i64, &str)]) -> Table {
        let mut t = Table::empty(Schema::new(vec![
            ColumnDef::not_null(format!("{name_prefix}_id"), DataType::Int),
            ColumnDef::new(format!("{name_prefix}_v"), DataType::Varchar),
        ]));
        for (id, v) in rows {
            t.append_row(vec![Value::Int(*id), Value::from(*v)]).unwrap();
        }
        t
    }

    /// The join output schema; right columns are nullable for outer joins.
    fn out_schema(l: &Table, r: &Table, kind: JoinKind) -> PlanSchema {
        let mut s = PlanSchema::default();
        for c in l.schema().columns() {
            s.push(PlanColumn::new(c.name.clone(), c.ty));
        }
        for c in r.schema().columns() {
            let mut pc = PlanColumn::new(c.name.clone(), c.ty);
            pc.nullable = kind == JoinKind::LeftOuter;
            s.push(pc);
        }
        s
    }

    fn eq_cond(li: usize, ri: usize) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::Column { index: li, ty: DataType::Int }),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::Column { index: ri, ty: DataType::Int }),
        }
    }

    /// Build over `r` with `threads` workers, then probe `l` in morsels of
    /// `morsel` rows and materialize the concatenated pairs — the pipeline's
    /// use of [`JoinProbe`].
    fn join_with(
        l: &Table,
        r: &Table,
        kind: JoinKind,
        on: Option<&BoundExpr>,
        threads: usize,
        morsel: usize,
    ) -> Table {
        let pool = Pool::new(threads);
        let probe =
            JoinProbe::build(Arc::new(r.clone()), kind, on, l.schema().len(), &[], &pool).unwrap();
        let mut pairs = Vec::new();
        for start in (0..l.row_count()).step_by(morsel) {
            let end = (start + morsel).min(l.row_count());
            probe.probe_rows(l, start..end, &[], &mut pairs).unwrap();
        }
        materialize_pairs(l, &probe.right, &pairs, &out_schema(l, r, kind)).unwrap()
    }

    fn join(l: &Table, r: &Table, kind: JoinKind, on: Option<&BoundExpr>) -> Table {
        join_with(l, r, kind, on, 1, usize::MAX)
    }

    #[test]
    fn inner_equi_join_matches() {
        let l = table("l", &[(1, "a"), (2, "b"), (3, "c")]);
        let r = table("r", &[(2, "x"), (3, "y"), (3, "z"), (4, "w")]);
        let out = join(&l, &r, JoinKind::Inner, Some(&eq_cond(0, 2)));
        assert_eq!(out.row_count(), 3); // 2-x, 3-y, 3-z
    }

    #[test]
    fn left_outer_join_null_extends() {
        let l = table("l", &[(1, "a"), (2, "b")]);
        let r = table("r", &[(2, "x")]);
        let out = join(&l, &r, JoinKind::LeftOuter, Some(&eq_cond(0, 2)));
        assert_eq!(out.row_count(), 2);
        // Row for id=1 has NULLs on the right.
        let row = out.row(0);
        assert_eq!(row[0], Value::Int(1));
        assert!(row[2].is_null());
        assert!(row[3].is_null());
    }

    #[test]
    fn cross_join_product() {
        let l = table("l", &[(1, "a"), (2, "b")]);
        let r = table("r", &[(10, "x"), (20, "y"), (30, "z")]);
        let out = join(&l, &r, JoinKind::Cross, None);
        assert_eq!(out.row_count(), 6);
        // Left-major order: every right row for l=1, then for l=2.
        assert_eq!(out.row(2), vec![Value::Int(1), "a".into(), Value::Int(30), "z".into()]);
        assert_eq!(out.row(3)[0], Value::Int(2));
    }

    #[test]
    fn inequality_join_probes_every_build_row() {
        let l = table("l", &[(1, "a"), (5, "b")]);
        let r = table("r", &[(2, "x"), (4, "y")]);
        let cond = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column { index: 0, ty: DataType::Int }),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::Column { index: 2, ty: DataType::Int }),
        };
        let out = join(&l, &r, JoinKind::Inner, Some(&cond));
        assert_eq!(out.row_count(), 2); // 1<2, 1<4
    }

    #[test]
    fn null_keys_never_match() {
        let mut l = Table::empty(Schema::new(vec![ColumnDef::new("a", DataType::Int)]));
        l.append_row(vec![Value::Null]).unwrap();
        l.append_row(vec![Value::Int(1)]).unwrap();
        let mut r = Table::empty(Schema::new(vec![ColumnDef::new("b", DataType::Int)]));
        r.append_row(vec![Value::Null]).unwrap();
        r.append_row(vec![Value::Int(1)]).unwrap();
        let out = join(&l, &r, JoinKind::Inner, Some(&eq_cond(0, 1)));
        assert_eq!(out.row_count(), 1); // only 1 = 1
    }

    #[test]
    fn parallel_join_matches_sequential() {
        // Enough rows to split the build into several chunks and the probe
        // into many morsels; duplicate keys exercise candidate ordering.
        let lrows: Vec<(i64, String)> = (0..1200).map(|i| (i % 37, format!("l{i}"))).collect();
        let rrows: Vec<(i64, String)> = (0..900).map(|i| (i % 41, format!("r{i}"))).collect();
        let lref: Vec<(i64, &str)> = lrows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let rref: Vec<(i64, &str)> = rrows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let l = table("l", &lref);
        let r = table("r", &rref);
        let less = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column { index: 0, ty: DataType::Int }),
            op: BinaryOp::Lt,
            right: Box::new(BoundExpr::Column { index: 2, ty: DataType::Int }),
        };
        for (kind, cond) in [
            (JoinKind::Inner, eq_cond(0, 2)),
            (JoinKind::LeftOuter, eq_cond(0, 2)),
            (JoinKind::Inner, less),
        ] {
            let seq = join(&l, &r, kind, Some(&cond));
            for (threads, morsel) in [(2, 7), (8, 100), (3, 1200)] {
                let par = join_with(&l, &r, kind, Some(&cond), threads, morsel);
                assert_eq!(par.row_count(), seq.row_count(), "{kind:?} threads {threads}");
                for i in 0..seq.row_count() {
                    assert_eq!(par.row(i), seq.row(i), "{kind:?} threads {threads} row {i}");
                }
            }
        }
    }

    #[test]
    fn build_error_is_the_earliest_failing_row() {
        // Every build chunk holds a failing row; the surfaced error must be
        // the first one in row order at every pool width.
        let mut r = Table::empty(Schema::new(vec![ColumnDef::new("s", DataType::Varchar)]));
        for i in 0..2000 {
            let s = if i % 300 == 150 { format!("bad{i}") } else { i.to_string() };
            r.append_row(vec![Value::from(s)]).unwrap();
        }
        let cond = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column { index: 0, ty: DataType::Int }),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::Cast {
                expr: Box::new(BoundExpr::Column { index: 1, ty: DataType::Varchar }),
                ty: DataType::Int,
            }),
        };
        let r = Arc::new(r);
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let built =
                JoinProbe::build(Arc::clone(&r), JoinKind::Inner, Some(&cond), 1, &[], &pool);
            let err = built.err().expect("the cast fails");
            assert!(err.to_string().contains("'bad150'"), "threads {threads}: {err}");
        }
    }

    #[test]
    fn equi_key_with_residual() {
        let l = table("l", &[(1, "keep"), (1, "drop")]);
        let r = table("r", &[(1, "x")]);
        // l_id = r_id AND l_v = 'keep'
        let cond = BoundExpr::Binary {
            left: Box::new(eq_cond(0, 2)),
            op: BinaryOp::And,
            right: Box::new(BoundExpr::Binary {
                left: Box::new(BoundExpr::Column { index: 1, ty: DataType::Varchar }),
                op: BinaryOp::Eq,
                right: Box::new(BoundExpr::Literal(Value::from("keep"))),
            }),
        };
        let out = join(&l, &r, JoinKind::Inner, Some(&cond));
        assert_eq!(out.row_count(), 1);
        assert_eq!(out.row(0)[1], Value::from("keep"));
    }
}
