//! Scalar expressions over tuples.
//!
//! Expressions are written against column *names* and bound to column
//! *indices* once per operator ([`Expr::bind`]), so per-row evaluation never
//! performs string lookups.

use crate::{QdbError, Schema, Value};

/// Binary operators supported in predicates and projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// SQL `LIKE` with `%` and `_` wildcards; operand must evaluate to a string.
    Like {
        /// String operand.
        expr: Box<Expr>,
        /// Pattern with `%` / `_` wildcards.
        pattern: String,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// Tested operand.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested operand.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
    },
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal value.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    fn binary(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(rhs),
        }
    }

    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Eq, rhs)
    }
    /// `self <> rhs`
    pub fn ne(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Ne, rhs)
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Lt, rhs)
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Le, rhs)
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Gt, rhs)
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Ge, rhs)
    }
    /// Logical conjunction.
    pub fn and(self, rhs: Expr) -> Expr {
        self.binary(BinOp::And, rhs)
    }
    /// Logical disjunction.
    pub fn or(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Or, rhs)
    }
    /// Arithmetic `+` (a query-DSL builder, deliberately not `std::ops`
    /// — operands are plan fragments, not values).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Add, rhs)
    }
    /// Arithmetic `-` (a query-DSL builder, deliberately not `std::ops`
    /// — operands are plan fragments, not values).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Sub, rhs)
    }
    /// Arithmetic `*` (a query-DSL builder, deliberately not `std::ops`
    /// — operands are plan fragments, not values).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Mul, rhs)
    }
    /// Arithmetic `/` (a query-DSL builder, deliberately not `std::ops`
    /// — operands are plan fragments, not values).
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Div, rhs)
    }
    /// Logical negation (a query-DSL builder, deliberately not `std::ops`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// SQL `LIKE`.
    pub fn like(self, pattern: impl Into<String>) -> Expr {
        Expr::Like {
            expr: Box::new(self),
            pattern: pattern.into(),
        }
    }
    /// SQL `BETWEEN ... AND ...` (inclusive).
    pub fn between(self, low: Expr, high: Expr) -> Expr {
        Expr::Between {
            expr: Box::new(self),
            low: Box::new(low),
            high: Box::new(high),
        }
    }
    /// SQL `IN (...)`.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
        }
    }
    /// SQL `IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// Column names referenced anywhere in the expression.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Col(c) => out.push(c),
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::Between { expr, low, high } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::InList { expr, .. } => expr.collect_columns(out),
        }
    }

    /// Resolves column names against `schema`, producing an executable
    /// `BoundExpr` (a crate-internal representation).
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr, QdbError> {
        Ok(match self {
            Expr::Col(name) => BoundExpr::Col(schema.index_of(name)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(schema)?)),
            Expr::Like { expr, pattern } => BoundExpr::Like {
                expr: Box::new(expr.bind(schema)?),
                pattern: pattern.clone(),
            },
            Expr::Between { expr, low, high } => BoundExpr::Between {
                expr: Box::new(expr.bind(schema)?),
                low: Box::new(low.bind(schema)?),
                high: Box::new(high.bind(schema)?),
            },
            Expr::InList { expr, list } => BoundExpr::InList {
                expr: Box::new(expr.bind(schema)?),
                list: list.clone(),
            },
            Expr::IsNull(e) => BoundExpr::IsNull(Box::new(e.bind(schema)?)),
        })
    }
}

/// An expression with column references resolved to indices.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// Column by index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Negation.
    Not(Box<BoundExpr>),
    /// LIKE.
    Like {
        /// String operand.
        expr: Box<BoundExpr>,
        /// Wildcard pattern.
        pattern: String,
    },
    /// BETWEEN.
    Between {
        /// Tested operand.
        expr: Box<BoundExpr>,
        /// Lower bound.
        low: Box<BoundExpr>,
        /// Upper bound.
        high: Box<BoundExpr>,
    },
    /// IN list.
    InList {
        /// Tested operand.
        expr: Box<BoundExpr>,
        /// Candidate values.
        list: Vec<Value>,
    },
    /// IS NULL.
    IsNull(Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluates the expression on a row.
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            BoundExpr::Col(i) => row[*i].clone(),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Binary { op, left, right } => {
                let l = left.eval(row);
                let r = right.eval(row);
                eval_binary(*op, &l, &r)
            }
            BoundExpr::Not(e) => Value::Bool(!e.eval(row).is_truthy()),
            BoundExpr::Like { expr, pattern } => {
                let v = expr.eval(row);
                match v.as_str() {
                    Some(s) => Value::Bool(like_match(s, pattern)),
                    None => Value::Bool(false),
                }
            }
            BoundExpr::Between { expr, low, high } => {
                let v = expr.eval(row);
                let lo = low.eval(row);
                let hi = high.eval(row);
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Value::Bool(false);
                }
                Value::Bool(v >= lo && v <= hi)
            }
            BoundExpr::InList { expr, list } => {
                let v = expr.eval(row);
                Value::Bool(list.contains(&v))
            }
            BoundExpr::IsNull(e) => Value::Bool(e.eval(row).is_null()),
        }
    }

    /// Evaluates the expression as a boolean predicate.
    pub fn eval_bool(&self, row: &[Value]) -> bool {
        self.eval(row).is_truthy()
    }

    /// Splits the expression at its top-level `AND`s, left to right. As a
    /// predicate the expression holds exactly when every part does: `eval`
    /// never fails and `AND` is the conjunction of its operands' truthiness.
    pub(crate) fn conjuncts(self) -> Vec<BoundExpr> {
        match self {
            BoundExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut parts = left.conjuncts();
                parts.extend(right.conjuncts());
                parts
            }
            e => vec![e],
        }
    }

    /// Calls `f` on every column index the expression reads.
    pub(crate) fn visit_columns(&mut self, f: &mut impl FnMut(&mut usize)) {
        match self {
            BoundExpr::Col(i) => f(i),
            BoundExpr::Lit(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            BoundExpr::Not(e) | BoundExpr::IsNull(e) => e.visit_columns(f),
            BoundExpr::Like { expr, .. } | BoundExpr::InList { expr, .. } => expr.visit_columns(f),
            BoundExpr::Between { expr, low, high } => {
                expr.visit_columns(f);
                low.visit_columns(f);
                high.visit_columns(f);
            }
        }
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Value {
    use BinOp::*;
    match op {
        And => return Value::Bool(l.is_truthy() && r.is_truthy()),
        Or => return Value::Bool(l.is_truthy() || r.is_truthy()),
        _ => {}
    }
    // NULL propagates through comparisons (as false) and arithmetic (as NULL).
    if l.is_null() || r.is_null() {
        return match op {
            Add | Sub | Mul | Div => Value::Null,
            _ => Value::Bool(false),
        };
    }
    match op {
        Eq => Value::Bool(l == r),
        Ne => Value::Bool(l != r),
        Lt => Value::Bool(l < r),
        Le => Value::Bool(l <= r),
        Gt => Value::Bool(l > r),
        Ge => Value::Bool(l >= r),
        Add | Sub | Mul | Div => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => {
                let x = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => {
                        // float-eq: exact division-by-zero guard (SQL
                        // semantics: x / 0 is NULL, including -0.0).
                        if b == 0.0 {
                            return Value::Null;
                        }
                        a / b
                    }
                    _ => unreachable!(),
                };
                // Preserve integer typing for exact integer arithmetic.
                if matches!((l, r), (Value::Int(_), Value::Int(_)))
                    && !matches!(op, Div)
                    // float-eq: fract() of an integral f64 is exactly 0.0.
                    && x.fract() == 0.0
                    && x.abs() < i64::MAX as f64
                {
                    Value::Int(x as i64)
                } else {
                    Value::Float(x)
                }
            }
            _ => Value::Null,
        },
        And | Or => unreachable!(),
    }
}

/// SQL `LIKE` matcher supporting `%` (any run) and `_` (single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    like_rec(&s, &p)
}

fn like_rec(s: &[char], p: &[char]) -> bool {
    if p.is_empty() {
        return s.is_empty();
    }
    match p[0] {
        '%' => {
            // Try to consume 0..=len(s) characters.
            (0..=s.len()).any(|k| like_rec(&s[k..], &p[1..]))
        }
        '_' => !s.is_empty() && like_rec(&s[1..], &p[1..]),
        c => !s.is_empty() && s[0] == c && like_rec(&s[1..], &p[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnType;

    fn schema() -> Schema {
        Schema::new(vec![
            ("name", ColumnType::Str),
            ("age", ColumnType::Int),
            ("score", ColumnType::Float),
        ])
    }

    fn row() -> Vec<Value> {
        vec!["Alice".into(), Value::Int(30), Value::Float(7.5)]
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let e = Expr::col("age").ge(Expr::lit(18)).bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("age").lt(Expr::lit(18)).bind(&s).unwrap();
        assert!(!e.eval_bool(&row()));
        let e = Expr::col("name").eq(Expr::lit("Alice")).bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("name").ne(Expr::lit("Bob")).bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
    }

    #[test]
    fn logical_connectives() {
        let s = schema();
        let e = Expr::col("age")
            .gt(Expr::lit(18))
            .and(Expr::col("name").eq(Expr::lit("Alice")))
            .bind(&s)
            .unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("age")
            .gt(Expr::lit(100))
            .or(Expr::col("score").gt(Expr::lit(5.0)))
            .bind(&s)
            .unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("age").gt(Expr::lit(100)).not().bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
    }

    #[test]
    fn arithmetic_preserves_int_typing() {
        let s = schema();
        let e = Expr::col("age").add(Expr::lit(5)).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::Int(35));
        let e = Expr::col("age").mul(Expr::lit(2)).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::Int(60));
        let e = Expr::col("score").add(Expr::lit(0.5)).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::Float(8.0));
        // Division always yields float; division by zero yields NULL.
        let e = Expr::col("age").div(Expr::lit(4)).bind(&s).unwrap();
        assert_eq!(e.eval(&row()), Value::Float(7.5));
        let e = Expr::col("age").div(Expr::lit(0)).bind(&s).unwrap();
        assert!(e.eval(&row()).is_null());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Alice", "A%"));
        assert!(like_match("Alice", "%ice"));
        assert!(like_match("Alice", "%lic%"));
        assert!(like_match("Alice", "Al_ce"));
        assert!(!like_match("Alice", "B%"));
        assert!(!like_match("Alice", "A_ce"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        let s = schema();
        let e = Expr::col("name").like("A%").bind(&s).unwrap();
        assert!(e.eval_bool(&row()));
        // LIKE on a non-string evaluates to false rather than erroring.
        let e = Expr::col("age").like("3%").bind(&s).unwrap();
        assert!(!e.eval_bool(&row()));
    }

    #[test]
    fn between_and_in_list() {
        let s = schema();
        let e = Expr::col("age")
            .between(Expr::lit(20), Expr::lit(40))
            .bind(&s)
            .unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("age")
            .between(Expr::lit(31), Expr::lit(40))
            .bind(&s)
            .unwrap();
        assert!(!e.eval_bool(&row()));
        let e = Expr::col("name")
            .in_list(vec!["Bob".into(), "Alice".into()])
            .bind(&s)
            .unwrap();
        assert!(e.eval_bool(&row()));
        let e = Expr::col("name")
            .in_list(vec!["Bob".into()])
            .bind(&s)
            .unwrap();
        assert!(!e.eval_bool(&row()));
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        let null_row = vec![Value::Null, Value::Null, Value::Null];
        let e = Expr::col("age").gt(Expr::lit(5)).bind(&s).unwrap();
        assert!(!e.eval_bool(&null_row));
        let e = Expr::col("age").add(Expr::lit(5)).bind(&s).unwrap();
        assert!(e.eval(&null_row).is_null());
        let e = Expr::col("age").is_null().bind(&s).unwrap();
        assert!(e.eval_bool(&null_row));
        assert!(!e.eval_bool(&row()));
    }

    #[test]
    fn binding_unknown_column_errors() {
        let s = schema();
        assert!(Expr::col("missing").bind(&s).is_err());
    }

    #[test]
    fn referenced_columns_are_collected() {
        let e = Expr::col("a")
            .gt(Expr::lit(1))
            .and(Expr::col("b").like("x%"))
            .or(Expr::col("c").between(Expr::lit(0), Expr::col("d")));
        let mut cols = e.referenced_columns();
        cols.sort();
        assert_eq!(cols, vec!["a", "b", "c", "d"]);
    }
}
