//! Delta plans: deciding `Q(D) ≠ Q(D')` for a single-tuple perturbation
//! without re-evaluating `Q`.
//!
//! A support database `D'` differs from `D` in one tuple of one table `T`.
//! A select-project-join (SPJ) query that scans `T` exactly once is linear
//! in `T` under bag semantics: `Q(D') = Q(D) − c(old) + c(new)`, where
//! `c(t)` is the bag of output rows the tuple `t` contributes. So
//! `Q(D) ≠ Q(D')` exactly when `c(old) ≠ c(new)`.
//!
//! A [`DeltaPlan`] is compiled once per (query, `T`). Every subtree that
//! does not read `T` is evaluated once against the base database, and each
//! join's materialized side gets one hash index. Filters, projections and
//! join keys along the *spine* — the path from `T`'s scan up to the SPJ
//! root — are bound once. Deciding a delta then pushes the old and the new
//! tuple through the spine (filter, project, probe) and compares the two
//! contributions; no database, schema or evaluator call is involved.
//!
//! A filter directly above a join is split at its top-level `AND`s, and
//! each conjunct is placed by the join-output columns it reads (bound
//! indices, so an `r.`-renamed column belongs to the right input):
//!
//! * a conjunct on the spine's input alone becomes a filter step just below
//!   the join, so a tuple it rejects is neither copied nor probed;
//! * a conjunct on the materialized side alone decides which side rows
//!   enter the hash index. Rows keep their positions in the unfiltered
//!   side, so leaf sizes and provenance are those of the plain join;
//! * a conjunct reading both inputs, or no column, stays in a filter step
//!   above the join.
//!
//! The split is exact: a conjunct's value never depends on where it is
//! evaluated, `eval` never fails, and `AND` is the conjunction of its
//! operands' truthiness.
//!
//! An optional root operator sits above the SPJ tree:
//!
//! * `Distinct` keeps the multiplicity of every SPJ output row over `D`. A
//!   row appears or disappears when its count crosses zero:
//!   `count − m_old + m_new == 0` while `count > 0`, or the reverse.
//! * `Aggregate` keeps the SPJ output grouped by key and recomputes only the
//!   groups the two contributions touch, through the evaluator's own
//!   aggregation. Float sums depend on fold order, so every row carries its
//!   *provenance*: the positions of the rows it was built from, one per
//!   spine leaf (`T` and each materialized side), in left-to-right leaf
//!   order. The evaluator emits SPJ rows in lexicographic provenance order,
//!   so a recomputed group folds its rows in exactly the order a full
//!   evaluation on `D'` would.
//!
//! Shapes without a plan — `LIMIT`, a table scanned twice (self-joins),
//! `Distinct` or `Aggregate` below the root — make [`DeltaPlan::compile`]
//! return `Ok(None)`; callers fall back to full evaluation.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::eval::{bind_projection, join_columns, join_key, join_schema, BoundAggregate};
use crate::expr::{BinOp, BoundExpr};
use crate::relation::Tuple;
use crate::{Database, Expr, QdbError, Query, Relation, Schema, Value};

/// An SPJ output row: its provenance (see the module docs) and its values.
type Row = (u128, Tuple);

/// A query compiled for perturbations of one table.
#[derive(Debug)]
pub struct DeltaPlan<'a> {
    table: String,
    /// Spine operators from `T`'s scan up to the SPJ root.
    steps: Vec<Step<'a>>,
    /// Provenance weight of each spine leaf, in left-to-right leaf order.
    weights: Vec<u128>,
    /// Leaf index of `T`'s scan.
    t_leaf: usize,
    root: Root,
}

#[derive(Debug)]
enum Step<'a> {
    Filter(BoundExpr),
    Project(Vec<BoundExpr>),
    Join(JoinStep<'a>),
}

/// A join between the spine and a side evaluated once on the base database.
#[derive(Debug)]
struct JoinStep<'a> {
    side: Cow<'a, Relation>,
    /// Hash index on the join columns of the `side` rows that pass the
    /// side-only conjuncts of a filter above the join (see the module docs).
    index: HashMap<Vec<Value>, Vec<usize>>,
    /// Join columns of the spine row.
    spine_keys: Vec<usize>,
    /// True when the spine is the join's left input.
    spine_left: bool,
    /// Leaf index of `side`.
    leaf: usize,
}

#[derive(Debug)]
enum Root {
    /// A bare SPJ query: the answer is the bag itself.
    Bag,
    /// `Distinct` over the SPJ tree: multiplicity of each base output row.
    Distinct(HashMap<Tuple, usize>),
    /// `Aggregate` over the SPJ tree.
    Aggregate {
        agg: BoundAggregate,
        /// Base aggregation input per group key, in provenance order.
        groups: HashMap<Vec<Value>, Vec<Row>>,
        /// Base output row per group key.
        output: HashMap<Vec<Value>, Tuple>,
    },
}

/// Why compilation stopped.
enum Unfit {
    /// The shape has no delta plan.
    Shape,
    /// Binding or evaluating a subtree failed.
    Eval(QdbError),
}

impl From<QdbError> for Unfit {
    fn from(e: QdbError) -> Unfit {
        Unfit::Eval(e)
    }
}

impl<'a> DeltaPlan<'a> {
    /// Compiles `query` for perturbations of `table` in `db`.
    ///
    /// Returns `Ok(None)` when the query has no delta plan for `table` (see
    /// the module docs), and the error when binding the query or evaluating
    /// one of its subtrees fails.
    pub fn compile(
        query: &Query,
        db: &'a Database,
        table: &str,
    ) -> Result<Option<DeltaPlan<'a>>, QdbError> {
        match DeltaPlan::build(query, db, table) {
            Ok(plan) => Ok(Some(plan)),
            Err(Unfit::Shape) => Ok(None),
            Err(Unfit::Eval(e)) => Err(e),
        }
    }

    fn build(query: &Query, db: &'a Database, table: &str) -> Result<DeltaPlan<'a>, Unfit> {
        let spj = match query {
            Query::Distinct { input } | Query::Aggregate { input, .. } => input,
            q => q,
        };
        let mut spine = Spine {
            db,
            table,
            steps: Vec::new(),
            leaf_sizes: Vec::new(),
            t_leaf: 0,
        };
        let schema = spine.walk(spj)?;

        // Leaf `i` weighs the product of the sizes of the leaves to its
        // right, so provenance order is lexicographic in leaf order.
        let mut weights = vec![1u128; spine.leaf_sizes.len()];
        for i in (0..weights.len().saturating_sub(1)).rev() {
            let size = spine.leaf_sizes[i + 1].max(1) as u128;
            weights[i] = weights[i + 1].checked_mul(size).ok_or(Unfit::Shape)?;
        }
        let mut plan = DeltaPlan {
            table: table.to_string(),
            steps: spine.steps,
            weights,
            t_leaf: spine.t_leaf,
            root: Root::Bag,
        };
        plan.root = match query {
            Query::Distinct { .. } => {
                let mut counts: HashMap<Tuple, usize> = HashMap::new();
                for (_, row) in plan.base_output(db)? {
                    *counts.entry(row).or_insert(0) += 1;
                }
                Root::Distinct(counts)
            }
            Query::Aggregate { group_by, aggs, .. } => {
                let agg = BoundAggregate::bind(&schema, group_by, aggs)?;
                let mut rows = plan.base_output(db)?;
                rows.sort_unstable_by_key(|(prov, _)| *prov);
                let output = agg
                    .run(rows.iter().map(|(_, r)| r))
                    .into_iter()
                    .map(|r| (r[..group_by.len()].to_vec(), r))
                    .collect();
                let mut groups: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
                for row in rows {
                    groups.entry(agg.key(&row.1)).or_default().push(row);
                }
                Root::Aggregate {
                    agg,
                    groups,
                    output,
                }
            }
            _ => Root::Bag,
        };
        Ok(plan)
    }

    /// The perturbed table this plan was compiled for.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// True when replacing `old`, row `pos` of the table, by `new` changes
    /// the query's answer.
    pub fn changes(&self, pos: usize, old: &[Value], new: &[Value]) -> bool {
        let mut c_old = self.contribution(pos, old);
        let mut c_new = self.contribution(pos, new);
        match &self.root {
            Root::Bag => !same_bag(&mut c_old, &mut c_new),
            Root::Distinct(counts) => {
                if same_bag(&mut c_old, &mut c_new) {
                    return false;
                }
                let mult = |rows: &[Row], r: &Tuple| rows.iter().filter(|(_, x)| x == r).count();
                c_old.iter().chain(&c_new).any(|(_, r)| {
                    let count = counts.get(r).copied().unwrap_or(0);
                    (count > 0) != (count + mult(&c_new, r) > mult(&c_old, r))
                })
            }
            Root::Aggregate {
                agg,
                groups,
                output,
            } => {
                c_old.sort_unstable_by_key(|(prov, _)| *prov);
                c_new.sort_unstable_by_key(|(prov, _)| *prov);
                if c_old == c_new {
                    return false;
                }
                let mut keys: Vec<Vec<Value>> = Vec::new();
                for (_, r) in c_old.iter().chain(&c_new) {
                    let key = agg.key(r);
                    if !keys.contains(&key) {
                        keys.push(key);
                    }
                }
                keys.iter().any(|key| {
                    // The group's rows on D', in evaluation order: its base
                    // rows minus the old tuple's, merged by provenance with
                    // the new tuple's.
                    let base = groups.get(key).map(Vec::as_slice).unwrap_or_default();
                    let kept = base
                        .iter()
                        .filter(|(p, _)| c_old.binary_search_by_key(p, |(q, _)| *q).is_err());
                    let added = c_new.iter().filter(|(_, r)| agg.key(r) == *key);
                    let mut rows: Vec<&Row> = kept.chain(added).collect();
                    rows.sort_by_key(|(prov, _)| *prov);
                    agg.run(rows.into_iter().map(|(_, r)| r)).first() != output.get(key)
                })
            }
        }
    }

    /// The SPJ output over the base database: every row of the table pushed
    /// through the spine.
    fn base_output(&self, db: &Database) -> Result<Vec<Row>, QdbError> {
        let mut out = Vec::new();
        for (pos, row) in db.table(&self.table)?.rows().iter().enumerate() {
            out.extend(self.contribution(pos, row));
        }
        Ok(out)
    }

    /// The rows the tuple `t`, at position `pos` of the table, contributes
    /// to the SPJ output.
    fn contribution(&self, pos: usize, t: &[Value]) -> Vec<Row> {
        let prov = pos as u128 * self.weights[self.t_leaf];
        let mut rows = Vec::new();
        // The tuple stays borrowed until a projection or a join builds a
        // new row from it, so a tuple a leading filter rejects or a probe
        // misses is never copied.
        let mut steps = self.steps.iter();
        match steps
            .by_ref()
            .find(|s| !matches!(s, Step::Filter(p) if p.eval_bool(t)))
        {
            None => return vec![(prov, t.to_vec())],
            Some(Step::Filter(_)) => return rows,
            Some(step) => self.expand(step, prov, t, &mut rows),
        }
        for step in steps {
            for (prov, r) in std::mem::take(&mut rows) {
                self.expand(step, prov, &r, &mut rows);
            }
        }
        rows
    }

    /// Pushes the rows `step` makes of `row` onto `out`.
    fn expand(&self, step: &Step<'_>, prov: u128, row: &[Value], out: &mut Vec<Row>) {
        match step {
            Step::Filter(p) => {
                if p.eval_bool(row) {
                    out.push((prov, row.to_vec()));
                }
            }
            Step::Project(exprs) => out.push((prov, exprs.iter().map(|e| e.eval(row)).collect())),
            Step::Join(j) => {
                let Some(matches) = join_key(row, &j.spine_keys).and_then(|k| j.index.get(&k))
                else {
                    return;
                };
                let weight = self.weights[j.leaf];
                for &m in matches {
                    let other = &j.side.rows()[m];
                    let (left, right) = if j.spine_left {
                        (row, other.as_slice())
                    } else {
                        (other.as_slice(), row)
                    };
                    out.push((prov + m as u128 * weight, [left, right].concat()));
                }
            }
        }
    }
}

/// Compiler state while walking down to `T`'s scan.
struct Spine<'a, 't> {
    db: &'a Database,
    table: &'t str,
    steps: Vec<Step<'a>>,
    /// Row count of each leaf, in left-to-right order.
    leaf_sizes: Vec<usize>,
    t_leaf: usize,
}

impl<'a> Spine<'a, '_> {
    /// Compiles the spine of `q` (which must read `T` exactly once) and
    /// returns its output schema. Steps are pushed bottom-up.
    fn walk(&mut self, q: &Query) -> Result<Schema, Unfit> {
        match q {
            Query::Scan { table } if table == self.table => {
                let rel = self.db.table(table)?;
                self.t_leaf = self.push_leaf(rel.len());
                Ok(rel.schema().clone())
            }
            Query::Filter { input, predicate } => {
                if let Query::Join { left, right, on } = input.as_ref() {
                    return self.join(left, right, on, Some(predicate));
                }
                let schema = self.walk(input)?;
                self.steps.push(Step::Filter(predicate.bind(&schema)?));
                Ok(schema)
            }
            Query::Project { input, exprs } => {
                let schema = self.walk(input)?;
                let (bound, out) = bind_projection(exprs, &schema)?;
                self.steps.push(Step::Project(bound));
                Ok(out)
            }
            Query::Join { left, right, on } => self.join(left, right, on, None),
            _ => Err(Unfit::Shape),
        }
    }

    /// Compiles a join whose spine is one of its inputs, and `predicate`,
    /// the filter directly above it, if any: each of the filter's top-level
    /// conjuncts that reads only one input is applied below the join.
    fn join(
        &mut self,
        left: &Query,
        right: &Query,
        on: &[(String, String)],
        predicate: Option<&Expr>,
    ) -> Result<Schema, Unfit> {
        let spine_left = match (left.scans_of(self.table), right.scans_of(self.table)) {
            (1, 0) => true,
            (0, 1) => false,
            _ => return Err(Unfit::Shape),
        };
        // Leaves are numbered left to right: a left side comes before the
        // spine's leaves, a right side after them.
        let (spine_schema, side, leaf) = if spine_left {
            let schema = self.walk(left)?;
            let side = self.materialize(right)?;
            let leaf = self.push_leaf(side.len());
            (schema, side, leaf)
        } else {
            let side = self.materialize(left)?;
            let leaf = self.push_leaf(side.len());
            (self.walk(right)?, side, leaf)
        };
        let (out, spine_keys, side_keys, left_arity) = if spine_left {
            let (l, r) = join_columns(&spine_schema, side.schema(), on)?;
            let out = join_schema(&spine_schema, side.schema());
            (out, l, r, spine_schema.arity())
        } else {
            let (l, r) = join_columns(side.schema(), &spine_schema, on)?;
            let out = join_schema(side.schema(), &spine_schema);
            (out, r, l, side.schema().arity())
        };

        // Sort the conjuncts by the input whose columns they read: a join
        // row is the left row followed by the right row.
        let conjuncts = match predicate {
            Some(p) => p.bind(&out)?.conjuncts(),
            None => Vec::new(),
        };
        let (mut on_spine, mut on_side, mut above) = (Vec::new(), Vec::new(), Vec::new());
        for mut c in conjuncts {
            let mut reads = [false; 2];
            c.visit_columns(&mut |i| reads[usize::from(*i >= left_arity)] = true);
            let reads_left = match reads {
                [true, false] => true,
                [false, true] => {
                    c.visit_columns(&mut |i| *i -= left_arity);
                    false
                }
                _ => {
                    above.push(c);
                    continue;
                }
            };
            if reads_left == spine_left {
                on_spine.push(c);
            } else {
                on_side.push(c);
            }
        }

        if let Some(p) = conjoin(on_spine) {
            self.steps.push(Step::Filter(p));
        }
        // Side rows the filter rejects stay out of the index but keep their
        // positions, so leaf sizes and provenance do not change.
        let on_side = conjoin(on_side);
        let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (i, row) in side.rows().iter().enumerate() {
            if on_side.as_ref().is_some_and(|p| !p.eval_bool(row)) {
                continue;
            }
            if let Some(key) = join_key(row, &side_keys) {
                index.entry(key).or_default().push(i);
            }
        }
        self.steps.push(Step::Join(JoinStep {
            side,
            index,
            spine_keys,
            spine_left,
            leaf,
        }));
        if let Some(p) = conjoin(above) {
            self.steps.push(Step::Filter(p));
        }
        Ok(out)
    }

    /// Appends a leaf of `size` rows and returns its index.
    fn push_leaf(&mut self, size: usize) -> usize {
        self.leaf_sizes.push(size);
        self.leaf_sizes.len() - 1
    }

    /// Evaluates a subtree that does not read `T`; a bare scan is borrowed.
    fn materialize(&self, q: &Query) -> Result<Cow<'a, Relation>, QdbError> {
        match q {
            Query::Scan { table } => self.db.table(table).map(Cow::Borrowed),
            q => q.evaluate(self.db).map(Cow::Owned),
        }
    }
}

#[cfg(test)]
impl DeltaPlan<'_> {
    /// The spine's steps, bottom-up: `filter`, `project`, or `join k/n` for
    /// a join whose index holds `k` of its side's `n` rows.
    fn layout(&self) -> Vec<String> {
        let describe = |step: &Step<'_>| match step {
            Step::Filter(_) => "filter".to_string(),
            Step::Project(_) => "project".to_string(),
            Step::Join(j) => {
                let indexed: usize = j.index.values().map(Vec::len).sum();
                format!("join {indexed}/{}", j.side.len())
            }
        };
        self.steps.iter().map(describe).collect()
    }
}

/// The conjunction of `parts`, or `None` when there are none.
fn conjoin(parts: Vec<BoundExpr>) -> Option<BoundExpr> {
    parts.into_iter().reduce(|l, r| BoundExpr::Binary {
        op: BinOp::And,
        left: Box::new(l),
        right: Box::new(r),
    })
}

/// Bag equality of two contributions' rows (provenance ignored), as
/// [`Relation::same_answer`] decides it.
fn same_bag(a: &mut [Row], b: &mut [Row]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.sort_unstable_by(|x, y| x.1.cmp(&y.1));
    b.sort_unstable_by(|x, y| x.1.cmp(&y.1));
    a.iter().zip(b.iter()).all(|(x, y)| x.1 == y.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggFunc, ColumnType, Delta, Expr};

    fn db() -> Database {
        let mut orders = Relation::new(Schema::new(vec![
            ("cust", ColumnType::Int),
            ("amount", ColumnType::Float),
        ]));
        let amounts = [0.1, 0.2, 0.3, 1e16, -1e16, 0.7, 2.5, 0.1];
        for (i, &a) in amounts.iter().enumerate() {
            let cust = if i == 6 {
                Value::Null
            } else {
                Value::Int(i as i64 % 3)
            };
            orders.push(vec![cust, Value::Float(a)]).unwrap();
        }
        let mut cust = Relation::new(Schema::new(vec![
            ("id", ColumnType::Int),
            ("region", ColumnType::Str),
        ]));
        for (id, region) in [(0, "north"), (1, "south"), (1, "east"), (2, "north")] {
            cust.push(vec![Value::Float(id as f64), region.into()])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_table("Orders", orders);
        db.add_table("Cust", cust);
        db
    }

    fn joined() -> Query {
        Query::scan("Orders").join(Query::scan("Cust"), vec![("cust", "id")])
    }

    fn queries() -> Vec<Query> {
        vec![
            joined(),
            joined().project_cols(&["region"]).distinct(),
            joined().aggregate(vec![], vec![(AggFunc::Sum, Some("amount"), "s")]),
            joined().aggregate(vec!["region"], vec![(AggFunc::Avg, Some("amount"), "a")]),
            Query::scan("Cust")
                .filter(Expr::col("region").ne(Expr::lit("east")))
                .join(Query::scan("Orders"), vec![("id", "cust")])
                .aggregate(vec!["region"], vec![(AggFunc::Sum, Some("amount"), "s")]),
            // Filters over joins: a side-only and a spine-only conjunct for
            // either table, then a mixed conjunct and an OR.
            joined()
                .filter(
                    Expr::col("region")
                        .ne(Expr::lit("east"))
                        .and(Expr::col("amount").lt(Expr::lit(1.0))),
                )
                .aggregate(vec!["region"], vec![(AggFunc::Sum, Some("amount"), "s")]),
            Query::scan("Cust")
                .join(Query::scan("Orders"), vec![("id", "cust")])
                .filter(
                    Expr::col("amount").gt(Expr::col("id")).and(
                        Expr::col("region")
                            .eq(Expr::lit("north"))
                            .or(Expr::col("amount").lt(Expr::lit(0.0))),
                    ),
                ),
        ]
    }

    /// Every single-cell perturbation the table admits, with a few values
    /// per column.
    fn deltas(db: &Database, table: &str) -> Vec<Delta> {
        let values = [
            Value::Int(0),
            Value::Int(1),
            Value::Float(2.0),
            Value::Null,
            Value::Float(0.4),
            "north".into(),
            "east".into(),
        ];
        let rel = db.table(table).unwrap();
        let mut out = Vec::new();
        for row in 0..rel.len() {
            for col in 0..rel.schema().arity() {
                for v in &values {
                    out.push(Delta::cell(table, row, col, v.clone()));
                }
            }
        }
        out
    }

    #[test]
    fn plans_agree_with_full_evaluation_on_every_delta() {
        let db = db();
        for q in queries() {
            let base = q.evaluate(&db).unwrap();
            for table in ["Orders", "Cust"] {
                let plan = DeltaPlan::compile(&q, &db, table).unwrap().unwrap();
                for d in deltas(&db, table) {
                    let old = d.old_tuple(&db).unwrap();
                    let mut new = old.clone();
                    d.patch(&mut new);
                    let full = q.evaluate(&d.materialize(&db).unwrap()).unwrap();
                    assert_eq!(
                        plan.changes(d.row, old, &new),
                        !full.same_answer(&base),
                        "{q:?} under {d:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn base_aggregate_output_is_bit_identical_to_evaluation() {
        // 1e16 and -1e16 cancel only in evaluation order, so a fold in any
        // other order would lose the small amounts.
        let db = db();
        for q in queries()
            .iter()
            .filter(|q| matches!(q, Query::Aggregate { .. }))
        {
            let plan = DeltaPlan::compile(q, &db, "Cust").unwrap().unwrap();
            let Root::Aggregate { output, .. } = &plan.root else {
                unreachable!("aggregate query")
            };
            let mut rows: Vec<Tuple> = output.values().cloned().collect();
            rows.sort();
            assert_eq!(rows, q.evaluate(&db).unwrap().canonical_rows());
        }
    }

    /// The layout of `q`'s plan for `table` (see [`DeltaPlan::layout`]).
    fn layout(q: &Query, db: &Database, table: &str) -> Vec<String> {
        DeltaPlan::compile(q, db, table).unwrap().unwrap().layout()
    }

    #[test]
    fn one_sided_conjuncts_land_below_the_join() {
        let mut country = Relation::new(Schema::new(vec![
            ("Code", ColumnType::Str),
            ("Name", ColumnType::Str),
        ]));
        let mut city = Relation::new(Schema::new(vec![
            ("Name", ColumnType::Str),
            ("CountryCode", ColumnType::Str),
        ]));
        for (code, name) in [
            ("GRC", "Greece"),
            ("CYP", "Cyprus"),
            ("USA", "United States"),
        ] {
            country.push(vec![code.into(), name.into()]).unwrap();
            city.push(vec![format!("{name} City").into(), code.into()])
                .unwrap();
        }
        let mut language = Relation::new(Schema::new(vec![
            ("CountryCode", ColumnType::Str),
            ("Language", ColumnType::Str),
            ("Percentage", ColumnType::Float),
        ]));
        for (code, lang, pct) in [
            ("GRC", "Greek", 98.5),
            ("CYP", "Greek", 74.1),
            ("CYP", "Turkish", 22.4),
            ("USA", "English", 86.2),
            ("USA", "Greek", 0.3),
        ] {
            language
                .push(vec![code.into(), lang.into(), Value::Float(pct)])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_table("Country", country);
        db.add_table("City", city);
        db.add_table("CountryLanguage", language);

        // The skewed workload's per-language template (Q30).
        let languages = Query::scan("Country").join(
            Query::scan("CountryLanguage"),
            vec![("Code", "CountryCode")],
        );
        let q30 = languages
            .clone()
            .filter(
                Expr::col("Language")
                    .eq(Expr::lit("Greek"))
                    .and(Expr::col("Percentage").ge(Expr::lit(50.0))),
            )
            .project_cols(&["Name"]);
        // T on the right: the filter runs on the tuple before the probe.
        assert_eq!(
            layout(&q30, &db, "CountryLanguage"),
            ["filter", "join 3/3", "project"]
        );
        // T on the left: only the two matching rows enter the index.
        assert_eq!(layout(&q30, &db, "Country"), ["join 2/5", "project"]);

        // A conjunct reading both inputs stays above the join, and an OR
        // is one conjunct.
        let mixed = languages.clone().filter(
            Expr::col("Percentage")
                .gt(Expr::lit(50.0))
                .and(Expr::col("Name").lt(Expr::col("Language"))),
        );
        assert_eq!(layout(&mixed, &db, "Country"), ["join 3/5", "filter"]);
        let either = languages.filter(
            Expr::col("Name")
                .eq(Expr::lit("Cyprus"))
                .or(Expr::col("Language").eq(Expr::lit("Greek"))),
        );
        assert_eq!(
            layout(&either, &db, "CountryLanguage"),
            ["join 3/3", "filter"]
        );

        // `r.Name` is the right input's column, whatever its name says.
        let cities = Query::scan("Country")
            .join(Query::scan("City"), vec![("Code", "CountryCode")])
            .filter(Expr::col("r.Name").eq(Expr::lit("Cyprus City")));
        assert_eq!(layout(&cities, &db, "Country"), ["join 1/3"]);
        assert_eq!(layout(&cities, &db, "City"), ["filter", "join 3/3"]);
    }

    #[test]
    fn unsupported_shapes_have_no_plan() {
        let db = db();
        let self_join = Query::scan("Orders").join(Query::scan("Orders"), vec![("cust", "cust")]);
        let limit = joined().limit(2);
        let nested = Query::scan("Orders")
            .distinct()
            .join(Query::scan("Cust"), vec![("cust", "id")]);
        for q in [&self_join, &limit, &nested] {
            assert!(DeltaPlan::compile(q, &db, "Orders").unwrap().is_none());
        }
        // The nested DISTINCT does not read Cust, so Cust gets a plan.
        assert!(DeltaPlan::compile(&nested, &db, "Cust").unwrap().is_some());
    }

    #[test]
    fn binding_errors_surface_at_compile_time() {
        let db = db();
        let q = joined().filter(Expr::col("nope").eq(Expr::lit(1)));
        assert!(DeltaPlan::compile(&q, &db, "Orders").is_err());
        assert!(q.evaluate(&db).is_err());
    }
}
