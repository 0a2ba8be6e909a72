//! Query-plan evaluation.
//!
//! The evaluator is deliberately simple: every operator fully materializes
//! its output. Joins are hash joins, grouping uses a hash map keyed by the
//! grouping values, and aggregate results are emitted in sorted group-key
//! order so that evaluation is fully deterministic for a given instance.

use std::collections::{HashMap, HashSet};

use crate::expr::BoundExpr;
use crate::plan::{AggFunc, Aggregate};
use crate::relation::Tuple;
use crate::{ColumnType, Expr, Instance, QdbError, Query, Relation, Schema, Value};

/// Evaluates a query plan against a database instance.
pub fn evaluate<I: Instance + ?Sized>(q: &Query, db: &I) -> Result<Relation, QdbError> {
    match q {
        Query::Scan { table } => {
            let schema = db.table_schema(table)?.clone();
            let rows: Vec<Tuple> = db.scan(table)?.map(|r| r.into_owned()).collect();
            Relation::from_rows(schema, rows)
        }
        Query::Filter { input, predicate } => {
            let rel = evaluate(input, db)?;
            let bound = predicate.bind(rel.schema())?;
            let rows: Vec<Tuple> = rel
                .rows()
                .iter()
                .filter(|r| bound.eval_bool(r))
                .cloned()
                .collect();
            Relation::from_rows(rel.schema().clone(), rows)
        }
        Query::Project { input, exprs } => {
            let rel = evaluate(input, db)?;
            let (bound, schema) = bind_projection(exprs, rel.schema())?;
            let rows: Vec<Tuple> = rel
                .rows()
                .iter()
                .map(|r| bound.iter().map(|b| b.eval(r)).collect())
                .collect();
            Relation::from_rows(schema, rows)
        }
        Query::Join { left, right, on } => {
            let l = evaluate(left, db)?;
            let r = evaluate(right, db)?;
            hash_join(&l, &r, on)
        }
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rel = evaluate(input, db)?;
            aggregate(&rel, group_by, aggs)
        }
        Query::Distinct { input } => {
            let rel = evaluate(input, db)?;
            let mut seen: HashSet<Tuple> = HashSet::with_capacity(rel.len());
            let mut rows = Vec::new();
            for row in rel.rows() {
                if seen.insert(row.clone()) {
                    rows.push(row.clone());
                }
            }
            Relation::from_rows(rel.schema().clone(), rows)
        }
        Query::Limit { input, n } => {
            let rel = evaluate(input, db)?;
            let rows: Vec<Tuple> = rel.rows().iter().take(*n).cloned().collect();
            Relation::from_rows(rel.schema().clone(), rows)
        }
    }
}

/// Output type of a projected expression.
fn projected_type(e: &Expr, schema: &Schema) -> ColumnType {
    match e {
        Expr::Col(name) => schema
            .index_of(name)
            .map(|i| schema.column_type(i))
            .unwrap_or(ColumnType::Str),
        Expr::Lit(Value::Int(_)) => ColumnType::Int,
        Expr::Lit(Value::Float(_)) => ColumnType::Float,
        Expr::Lit(Value::Bool(_)) => ColumnType::Bool,
        Expr::Lit(_) => ColumnType::Str,
        Expr::Binary { op, .. } => match op {
            crate::BinOp::Add | crate::BinOp::Sub | crate::BinOp::Mul | crate::BinOp::Div => {
                ColumnType::Float
            }
            _ => ColumnType::Bool,
        },
        Expr::Not(_)
        | Expr::Like { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::IsNull(_) => ColumnType::Bool,
    }
}

/// Binds a projection's expressions against its input schema and builds
/// the output schema.
pub(crate) fn bind_projection(
    exprs: &[(Expr, String)],
    input: &Schema,
) -> Result<(Vec<BoundExpr>, Schema), QdbError> {
    let mut bound = Vec::with_capacity(exprs.len());
    let mut schema = Schema::empty();
    for (e, name) in exprs {
        bound.push(e.bind(input)?);
        schema.push(name.clone(), projected_type(e, input));
    }
    Ok((bound, schema))
}

/// Output schema of a join: right-hand names that collide with a left-hand
/// name get the `r.` prefix.
pub(crate) fn join_schema(l: &Schema, r: &Schema) -> Schema {
    l.join(r, "r")
}

/// Resolves a join's `(left column, right column)` pairs to column indices.
pub(crate) fn join_columns(
    l: &Schema,
    r: &Schema,
    on: &[(String, String)],
) -> Result<(Vec<usize>, Vec<usize>), QdbError> {
    let mut l_keys = Vec::with_capacity(on.len());
    let mut r_keys = Vec::with_capacity(on.len());
    for (lc, rc) in on {
        l_keys.push(l.index_of(lc)?);
        r_keys.push(r.index_of(rc)?);
    }
    Ok((l_keys, r_keys))
}

/// The join key of `row`, or `None` if any key column is NULL: NULL keys
/// never join.
pub(crate) fn join_key(row: &[Value], keys: &[usize]) -> Option<Vec<Value>> {
    let key: Vec<Value> = keys.iter().map(|&k| row[k].clone()).collect();
    (!key.iter().any(Value::is_null)).then_some(key)
}

/// Hash index of `rows` on `keys`: each key maps to the positions of its
/// rows in ascending order. Rows with a NULL key are left out.
pub(crate) fn hash_index(rows: &[Tuple], keys: &[usize]) -> HashMap<Vec<Value>, Vec<usize>> {
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        if let Some(key) = join_key(row, keys) {
            index.entry(key).or_default().push(i);
        }
    }
    index
}

/// Hash equi-join of two materialized relations: builds on the right side,
/// probes with the left, and emits rows in (left row, right row) order.
fn hash_join(l: &Relation, r: &Relation, on: &[(String, String)]) -> Result<Relation, QdbError> {
    let (l_keys, r_keys) = join_columns(l.schema(), r.schema(), on)?;
    let index = hash_index(r.rows(), &r_keys);
    let schema = join_schema(l.schema(), r.schema());
    let mut rows = Vec::new();
    for lrow in l.rows() {
        let Some(matches) = join_key(lrow, &l_keys).and_then(|key| index.get(&key)) else {
            continue;
        };
        for &ri in matches {
            let mut out = lrow.clone();
            out.extend_from_slice(&r.rows()[ri]);
            rows.push(out);
        }
    }
    Relation::from_rows(schema, rows)
}

/// Running state of a single aggregate.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    CountDistinct(HashSet<Value>),
    Sum {
        total: f64,
        all_int: bool,
        seen: bool,
    },
    Avg {
        total: f64,
        count: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(HashSet::new()),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                all_int: true,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg {
                total: 0.0,
                count: 0,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, value: Option<&Value>) {
        match self {
            AggState::Count(c) => {
                // COUNT(*) gets `None` as the column and counts every row;
                // COUNT(col) skips NULLs.
                match value {
                    None => *c += 1,
                    Some(v) if !v.is_null() => *c += 1,
                    _ => {}
                }
            }
            AggState::CountDistinct(set) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        set.insert(v.clone());
                    }
                }
            }
            AggState::Sum {
                total,
                all_int,
                seen,
            } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x;
                        *seen = true;
                        if !matches!(v, Value::Int(_) | Value::Bool(_)) {
                            *all_int = false;
                        }
                    }
                }
            }
            AggState::Avg { total, count } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *total += x;
                        *count += 1;
                    }
                }
            }
            AggState::Min(best) => {
                if let Some(v) = value {
                    if !v.is_null() && best.as_ref().map(|b| v < b).unwrap_or(true) {
                        *best = Some(v.clone());
                    }
                }
            }
            AggState::Max(best) => {
                if let Some(v) = value {
                    if !v.is_null() && best.as_ref().map(|b| v > b).unwrap_or(true) {
                        *best = Some(v.clone());
                    }
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
            AggState::Sum {
                total,
                all_int,
                seen,
            } => {
                if !seen {
                    Value::Null
                // float-eq: fract() of an integral f64 is exactly 0.0 —
                // the standard integral-valued test.
                } else if all_int && total.fract() == 0.0 && total.abs() < i64::MAX as f64 {
                    Value::Int(total as i64)
                } else {
                    Value::Float(total)
                }
            }
            AggState::Avg { total, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(total / count as f64)
                }
            }
            AggState::Min(best) => best.unwrap_or(Value::Null),
            AggState::Max(best) => best.unwrap_or(Value::Null),
        }
    }
}

/// Output column type of an aggregate.
fn agg_output_type(func: AggFunc, input_type: Option<ColumnType>) -> ColumnType {
    match func {
        AggFunc::Count | AggFunc::CountDistinct => ColumnType::Int,
        AggFunc::Avg => ColumnType::Float,
        AggFunc::Sum => input_type.unwrap_or(ColumnType::Float),
        AggFunc::Min | AggFunc::Max => input_type.unwrap_or(ColumnType::Str),
    }
}

/// Grouping + aggregation over a materialized relation.
pub(crate) fn aggregate(
    rel: &Relation,
    group_by: &[String],
    aggs: &[Aggregate],
) -> Result<Relation, QdbError> {
    let agg = BoundAggregate::bind(rel.schema(), group_by, aggs)?;
    let rows = agg.run(rel.rows());
    Relation::from_rows(agg.schema, rows)
}

/// A grouping + aggregation bound to its input schema.
#[derive(Debug)]
pub(crate) struct BoundAggregate {
    key_idx: Vec<usize>,
    agg_idx: Vec<Option<usize>>,
    funcs: Vec<AggFunc>,
    /// Output schema: group columns followed by aggregate aliases.
    schema: Schema,
}

impl BoundAggregate {
    pub(crate) fn bind(
        schema: &Schema,
        group_by: &[String],
        aggs: &[Aggregate],
    ) -> Result<BoundAggregate, QdbError> {
        let key_idx: Vec<usize> = group_by
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<_, _>>()?;
        let agg_idx: Vec<Option<usize>> = aggs
            .iter()
            .map(|a| match &a.column {
                Some(c) => schema.index_of(c).map(Some),
                None => Ok(None),
            })
            .collect::<Result<_, _>>()?;

        let mut out_schema = Schema::empty();
        for (name, &i) in group_by.iter().zip(&key_idx) {
            out_schema.push(name.clone(), schema.column_type(i));
        }
        for (a, idx) in aggs.iter().zip(&agg_idx) {
            out_schema.push(
                a.alias.clone(),
                agg_output_type(a.func, idx.map(|i| schema.column_type(i))),
            );
        }
        Ok(BoundAggregate {
            key_idx,
            agg_idx,
            funcs: aggs.iter().map(|a| a.func).collect(),
            schema: out_schema,
        })
    }

    /// The group key of an input row. Keys are also the first columns of
    /// the group's output row.
    pub(crate) fn key(&self, row: &[Value]) -> Vec<Value> {
        self.key_idx.iter().map(|&i| row[i].clone()).collect()
    }

    /// Folds `rows` in order into one output row per group, in sorted key
    /// order. A global aggregate over no rows still yields one row.
    pub(crate) fn run<'r>(&self, rows: impl IntoIterator<Item = &'r Tuple>) -> Vec<Tuple> {
        let fresh = || -> Vec<AggState> { self.funcs.iter().map(|&f| AggState::new(f)).collect() };
        let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
        for row in rows {
            let states = groups.entry(self.key(row)).or_insert_with(fresh);
            for (state, idx) in states.iter_mut().zip(&self.agg_idx) {
                state.update(idx.map(|i| &row[i]));
            }
        }

        if groups.is_empty() && self.key_idx.is_empty() {
            groups.insert(Vec::new(), fresh());
        }

        let mut keyed: Vec<(Vec<Value>, Vec<AggState>)> = groups.into_iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed
            .into_iter()
            .map(|(mut row, states)| {
                row.extend(states.into_iter().map(AggState::finish));
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggFunc, ColumnType, Database, Expr, Query, Schema, Value};

    /// The `User` relation from Figure 1 of the paper.
    fn paper_db() -> Database {
        let mut rel = Relation::new(Schema::new(vec![
            ("uid", ColumnType::Int),
            ("name", ColumnType::Str),
            ("gender", ColumnType::Str),
            ("age", ColumnType::Int),
        ]));
        rel.push(vec![
            Value::Int(1),
            "Abe".into(),
            "m".into(),
            Value::Int(18),
        ])
        .unwrap();
        rel.push(vec![
            Value::Int(2),
            "Alice".into(),
            "f".into(),
            Value::Int(20),
        ])
        .unwrap();
        rel.push(vec![
            Value::Int(3),
            "Bob".into(),
            "m".into(),
            Value::Int(25),
        ])
        .unwrap();
        rel.push(vec![
            Value::Int(4),
            "Cathy".into(),
            "f".into(),
            Value::Int(22),
        ])
        .unwrap();
        let mut db = Database::new();
        db.add_table("User", rel);
        db
    }

    #[test]
    fn q1_count_female_users() {
        // Q1 = SELECT count(*) FROM User WHERE gender = 'f'
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("gender").eq(Expr::lit("f")))
            .aggregate(vec![], vec![(AggFunc::Count, None, "cnt")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.rows(), &[vec![Value::Int(2)]]);
    }

    #[test]
    fn q2_group_by_gender() {
        // Q2 = SELECT gender, count(*) FROM User GROUP BY gender
        let db = paper_db();
        let q = Query::scan("User").aggregate(vec!["gender"], vec![(AggFunc::Count, None, "cnt")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.len(), 2);
        // Sorted by group key: 'f' before 'm'.
        assert_eq!(out.rows()[0], vec![Value::from("f"), Value::Int(2)]);
        assert_eq!(out.rows()[1], vec![Value::from("m"), Value::Int(2)]);
    }

    #[test]
    fn q3_avg_age_of_female_users() {
        // Q3 = SELECT AVG(age) FROM User WHERE gender = 'f'
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("gender").eq(Expr::lit("f")))
            .aggregate(vec![], vec![(AggFunc::Avg, Some("age"), "avg_age")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.rows()[0][0], Value::Float(21.0));
    }

    #[test]
    fn sum_min_max_and_count_distinct() {
        let db = paper_db();
        let q = Query::scan("User").aggregate(
            vec![],
            vec![
                (AggFunc::Sum, Some("age"), "s"),
                (AggFunc::Min, Some("age"), "mn"),
                (AggFunc::Max, Some("age"), "mx"),
                (AggFunc::CountDistinct, Some("gender"), "g"),
            ],
        );
        let out = q.evaluate(&db).unwrap();
        assert_eq!(
            out.rows()[0],
            vec![
                Value::Int(85),
                Value::Int(18),
                Value::Int(25),
                Value::Int(2)
            ]
        );
    }

    #[test]
    fn projection_and_selection() {
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("name").like("A%"))
            .project_cols(&["name"]);
        let out = q.evaluate(&db).unwrap();
        let mut names: Vec<String> = out.rows().iter().map(|r| r[0].to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["Abe", "Alice"]);
        assert_eq!(out.schema().column_name(0), "name");
        assert_eq!(out.schema().column_type(0), ColumnType::Str);
    }

    #[test]
    fn distinct_and_limit() {
        let db = paper_db();
        let q = Query::scan("User").project_cols(&["gender"]).distinct();
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.len(), 2);

        let q = Query::scan("User").limit(3);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.len(), 3);

        let q = Query::scan("User").limit(0);
        assert_eq!(q.evaluate(&db).unwrap().len(), 0);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("age").gt(Expr::lit(1000)))
            .aggregate(
                vec![],
                vec![
                    (AggFunc::Count, None, "c"),
                    (AggFunc::Sum, Some("age"), "s"),
                    (AggFunc::Min, Some("age"), "m"),
                    (AggFunc::Avg, Some("age"), "a"),
                ],
            );
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert!(out.rows()[0][1].is_null());
        assert!(out.rows()[0][2].is_null());
        assert!(out.rows()[0][3].is_null());
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let db = paper_db();
        let q = Query::scan("User")
            .filter(Expr::col("age").gt(Expr::lit(1000)))
            .aggregate(vec!["gender"], vec![(AggFunc::Count, None, "c")]);
        assert_eq!(q.evaluate(&db).unwrap().len(), 0);
    }

    fn two_table_db() -> Database {
        let mut db = paper_db();
        let mut lang = Relation::new(Schema::new(vec![
            ("uid", ColumnType::Int),
            ("lang", ColumnType::Str),
        ]));
        lang.push(vec![Value::Int(1), "en".into()]).unwrap();
        lang.push(vec![Value::Int(2), "en".into()]).unwrap();
        lang.push(vec![Value::Int(2), "fr".into()]).unwrap();
        lang.push(vec![Value::Int(9), "de".into()]).unwrap();
        db.add_table("Lang", lang);
        db
    }

    #[test]
    fn hash_join_basic() {
        let db = two_table_db();
        let q = Query::scan("User")
            .join(Query::scan("Lang"), vec![("uid", "uid")])
            .project_cols(&["name", "lang"]);
        let out = q.evaluate(&db).unwrap();
        let mut pairs: Vec<(String, String)> = out
            .rows()
            .iter()
            .map(|r| (r[0].to_string(), r[1].to_string()))
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                ("Abe".to_string(), "en".to_string()),
                ("Alice".to_string(), "en".to_string()),
                ("Alice".to_string(), "fr".to_string()),
            ]
        );
    }

    #[test]
    fn join_column_name_collisions_are_prefixed() {
        let db = two_table_db();
        let q = Query::scan("User").join(Query::scan("Lang"), vec![("uid", "uid")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.schema().column_name(4), "r.uid");
    }

    #[test]
    fn join_then_aggregate() {
        let db = two_table_db();
        // SELECT lang, count(*) FROM User JOIN Lang USING (uid) GROUP BY lang
        let q = Query::scan("User")
            .join(Query::scan("Lang"), vec![("uid", "uid")])
            .aggregate(vec!["lang"], vec![(AggFunc::Count, None, "c")]);
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.rows()[0], vec![Value::from("en"), Value::Int(2)]);
        assert_eq!(out.rows()[1], vec![Value::from("fr"), Value::Int(1)]);
    }

    #[test]
    fn null_join_keys_do_not_match() {
        let mut db = Database::new();
        let mut l = Relation::new(Schema::new(vec![("k", ColumnType::Int)]));
        l.push(vec![Value::Null]).unwrap();
        l.push(vec![Value::Int(1)]).unwrap();
        let mut r = Relation::new(Schema::new(vec![("k", ColumnType::Int)]));
        r.push(vec![Value::Null]).unwrap();
        r.push(vec![Value::Int(1)]).unwrap();
        db.add_table("L", l);
        db.add_table("R", r);
        let q = Query::scan("L").join(Query::scan("R"), vec![("k", "k")]);
        assert_eq!(q.evaluate(&db).unwrap().len(), 1);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = paper_db();
        assert!(Query::scan("Nope").evaluate(&db).is_err());
        let q = Query::scan("User").filter(Expr::col("nope").eq(Expr::lit(1)));
        assert!(q.evaluate(&db).is_err());
        let q = Query::scan("User").aggregate(vec!["nope"], vec![(AggFunc::Count, None, "c")]);
        assert!(q.evaluate(&db).is_err());
    }
}
