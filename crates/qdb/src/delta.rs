//! Single-tuple deltas and delta instances.
//!
//! Qirana builds its support set from "neighbouring" databases: instances
//! that differ from the base `D` in only a few cells of a single tuple. A
//! [`Delta`] records such a perturbation; a [`DeltaInstance`] lazily overlays
//! one or more deltas on a borrowed base database so that evaluating a query
//! on a support instance never copies the base tables.

use std::borrow::Cow;

use crate::relation::Tuple;
use crate::{Database, Instance, QdbError, Schema, Value};

/// A change to a single cell of a tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct CellChange {
    /// Column index within the tuple.
    pub column: usize,
    /// The replacement value.
    pub new_value: Value,
}

/// A perturbation of a single tuple of a single table.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The table whose tuple is perturbed.
    pub table: String,
    /// Index of the perturbed row in the base table.
    pub row: usize,
    /// Cell replacements applied to that row.
    pub changes: Vec<CellChange>,
}

impl Delta {
    /// Creates a delta replacing cells of `table[row]`.
    pub fn new(table: impl Into<String>, row: usize, changes: Vec<CellChange>) -> Self {
        Delta {
            table: table.into(),
            row,
            changes: changes.into_iter().collect(),
        }
    }

    /// Convenience constructor for a single-cell change.
    pub fn cell(
        table: impl Into<String>,
        row: usize,
        column: usize,
        new_value: impl Into<Value>,
    ) -> Self {
        Delta::new(
            table,
            row,
            vec![CellChange {
                column,
                new_value: new_value.into(),
            }],
        )
    }

    /// The original version of the perturbed tuple in `base`.
    pub fn old_tuple<'a>(&self, base: &'a Database) -> Result<&'a Tuple, QdbError> {
        let rel = base.table(&self.table)?;
        rel.rows()
            .get(self.row)
            .ok_or_else(|| QdbError::UnknownColumn(format!("row {} of {}", self.row, self.table)))
    }

    /// The perturbed version of the tuple.
    pub fn new_tuple(&self, base: &Database) -> Result<Tuple, QdbError> {
        let mut t = self.old_tuple(base)?.clone();
        for c in &self.changes {
            if c.column >= t.len() {
                return Err(QdbError::UnknownColumn(format!(
                    "column index {} of {}",
                    c.column, self.table
                )));
            }
            t[c.column] = c.new_value.clone();
        }
        Ok(t)
    }

    /// Applies the cell changes to `row`, a copy of the perturbed tuple.
    /// Changes past the tuple's arity are ignored, as in
    /// [`DeltaInstance`] scans.
    pub fn patch(&self, row: &mut Tuple) {
        for c in &self.changes {
            if let Some(v) = row.get_mut(c.column) {
                *v = c.new_value.clone();
            }
        }
    }

    /// True if the delta leaves the tuple unchanged (all new values equal the
    /// old ones).
    pub fn is_noop(&self, base: &Database) -> Result<bool, QdbError> {
        let old = self.old_tuple(base)?;
        Ok(self.changes.iter().all(|c| {
            old.get(c.column)
                .map(|v| *v == c.new_value)
                .unwrap_or(false)
        }))
    }

    /// Materializes the delta into a full copy of the base database. Used by
    /// tests to cross-check the lazy overlay.
    pub fn materialize(&self, base: &Database) -> Result<Database, QdbError> {
        let mut db = base.clone();
        let new = self.new_tuple(base)?;
        let rel = db.table_mut(&self.table)?;
        rel.rows_mut()[self.row] = new;
        Ok(db)
    }
}

/// A lazily-overlaid database instance: the base plus one or more deltas.
#[derive(Debug, Clone)]
pub struct DeltaInstance<'a> {
    base: &'a Database,
    deltas: Vec<&'a Delta>,
}

impl<'a> DeltaInstance<'a> {
    /// Creates an instance overlaying a single delta.
    pub fn new(base: &'a Database, delta: &'a Delta) -> Self {
        DeltaInstance {
            base,
            deltas: vec![delta],
        }
    }

    /// Creates an instance overlaying several deltas (later deltas win on the
    /// same cell).
    pub fn with_deltas(base: &'a Database, deltas: Vec<&'a Delta>) -> Self {
        DeltaInstance { base, deltas }
    }

    /// The underlying base database.
    pub fn base(&self) -> &'a Database {
        self.base
    }

    /// The overlaid deltas.
    pub fn deltas(&self) -> &[&'a Delta] {
        &self.deltas
    }
}

impl<'a> Instance for DeltaInstance<'a> {
    fn table_schema(&self, table: &str) -> Result<&Schema, QdbError> {
        self.base.table_schema(table)
    }

    fn scan<'b>(
        &'b self,
        table: &str,
    ) -> Result<Box<dyn Iterator<Item = Cow<'b, Tuple>> + 'b>, QdbError> {
        let rel = self.base.table(table)?;
        // Collect the deltas affecting this table (usually zero or one).
        let relevant: Vec<&Delta> = self
            .deltas
            .iter()
            .copied()
            .filter(|d| d.table == table)
            .collect();
        if relevant.is_empty() {
            return Ok(Box::new(rel.rows().iter().map(Cow::Borrowed)));
        }
        let iter = rel.rows().iter().enumerate().map(move |(i, row)| {
            let mut patched: Option<Tuple> = None;
            for d in &relevant {
                if d.row == i {
                    d.patch(patched.get_or_insert_with(|| row.clone()));
                }
            }
            match patched {
                Some(t) => Cow::Owned(t),
                None => Cow::Borrowed(row),
            }
        });
        Ok(Box::new(iter))
    }

    fn table_len(&self, table: &str) -> Result<usize, QdbError> {
        self.base.table_len(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggFunc, ColumnType, Expr, Query, Relation};

    fn db() -> Database {
        let mut rel = Relation::new(Schema::new(vec![
            ("name", ColumnType::Str),
            ("gender", ColumnType::Str),
            ("age", ColumnType::Int),
        ]));
        rel.push(vec!["Abe".into(), "m".into(), Value::Int(18)])
            .unwrap();
        rel.push(vec!["Alice".into(), "f".into(), Value::Int(20)])
            .unwrap();
        rel.push(vec!["Bob".into(), "m".into(), Value::Int(25)])
            .unwrap();
        let mut db = Database::new();
        db.add_table("User", rel);
        db
    }

    #[test]
    fn delta_old_and_new_tuples() {
        let db = db();
        let d = Delta::cell("User", 1, 2, 30i64);
        assert_eq!(d.old_tuple(&db).unwrap()[2], Value::Int(20));
        assert_eq!(d.new_tuple(&db).unwrap()[2], Value::Int(30));
        assert!(!d.is_noop(&db).unwrap());
        let noop = Delta::cell("User", 1, 2, 20i64);
        assert!(noop.is_noop(&db).unwrap());
    }

    #[test]
    fn overlay_matches_materialized_copy() {
        let db = db();
        let d = Delta::cell("User", 0, 1, "f");
        let overlay = DeltaInstance::new(&db, &d);
        let materialized = d.materialize(&db).unwrap();

        let q = Query::scan("User")
            .filter(Expr::col("gender").eq(Expr::lit("f")))
            .aggregate(vec![], vec![(AggFunc::Count, None, "cnt")]);
        let from_overlay = q.evaluate(&overlay).unwrap();
        let from_copy = q.evaluate(&materialized).unwrap();
        assert!(from_overlay.same_answer(&from_copy));
        assert_eq!(from_overlay.rows()[0][0], Value::Int(2));
    }

    #[test]
    fn overlay_leaves_other_tables_untouched() {
        let mut base = db();
        let mut other = Relation::new(Schema::new(vec![("x", ColumnType::Int)]));
        other.push(vec![Value::Int(42)]).unwrap();
        base.add_table("Other", other);

        let d = Delta::cell("User", 0, 2, 99i64);
        let overlay = DeltaInstance::new(&base, &d);
        let rows: Vec<_> = overlay.scan("Other").unwrap().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(42));
        assert_eq!(overlay.table_len("User").unwrap(), 3);
        assert_eq!(overlay.base().total_rows(), 4);
        assert_eq!(overlay.deltas().len(), 1);
    }

    #[test]
    fn multiple_deltas_compose() {
        let base = db();
        let d1 = Delta::cell("User", 0, 2, 50i64);
        let d2 = Delta::cell("User", 2, 2, 60i64);
        let overlay = DeltaInstance::with_deltas(&base, vec![&d1, &d2]);
        let rows: Vec<_> = overlay.scan("User").unwrap().collect();
        assert_eq!(rows[0][2], Value::Int(50));
        assert_eq!(rows[1][2], Value::Int(20));
        assert_eq!(rows[2][2], Value::Int(60));
    }

    #[test]
    fn out_of_range_delta_errors() {
        let base = db();
        let d = Delta::cell("User", 99, 0, "x");
        assert!(d.old_tuple(&base).is_err());
        let d = Delta::cell("Missing", 0, 0, "x");
        assert!(d.old_tuple(&base).is_err());
        let d = Delta::new(
            "User",
            0,
            vec![CellChange {
                column: 99,
                new_value: Value::Int(1),
            }],
        );
        assert!(d.new_tuple(&base).is_err());
    }
}
