//! Conflict-set computation.
//!
//! For a buyer query `Q`, the conflict set `C_S(Q, D) = {D' ∈ S | Q(D) ≠ Q(D')}`
//! is the bundle of support databases the buyer can rule out after seeing the
//! answer. Conflict sets are the hyperedges handed to the pricing algorithms,
//! and they are represented as [`ItemSet`] bitsets (`qp-core`): one bit per
//! support database, so membership tests are O(1) and the downstream pricing
//! algebra (union, subset, popcount) is block-wise over u64 words.
//!
//! Three engines are provided:
//!
//! * [`NaiveConflictEngine`] re-evaluates the query on every support database
//!   (lazily overlaid, never copied). Always correct; cost `O(|S| · eval)`.
//!   An evaluation error counts as "answers differ" only when **exactly one**
//!   of `Q(D)` / `Q(D')` fails; when both sides fail, the buyer learns
//!   nothing that distinguishes them, so the delta is not a conflict.
//! * [`DeltaConflictEngine`] exploits the fact that every support database
//!   differs from `D` in a *single tuple*. It compiles the query once per
//!   table it reads into a [`DeltaPlan`] (`qp-qdb`): a select-project-join
//!   tree that scans the table once is linear in it under bag semantics, so
//!   the answer changes exactly when the old and the new tuple contribute
//!   different rows. A `DISTINCT` or an aggregate may sit at the root; joins
//!   are probed through hash indexes built once per plan. `LIMIT`,
//!   self-joins, `DISTINCT` or aggregates below a join, and other shapes
//!   fall back to the naive engine. The two engines are checked against
//!   each other by `tests/proptest_conflict.rs` and, on the paper's
//!   workloads, by `tests/workload_oracle.rs`.
//! * [`ParallelConflictEngine`] fans a query batch across workers, the
//!   calling thread included, each running its own [`DeltaConflictEngine`];
//!   workers claim queries through `qp_core::parallel::claim` so expensive
//!   queries do not serialize behind a static partition. Single-query calls
//!   and the degenerate one-thread case take the serial path unchanged.

use qp_core::parallel::{self, claim_map_into};
use qp_core::ItemSet;
use qp_pricing::Hypergraph;
use qp_qdb::{Database, DeltaInstance, DeltaPlan, QdbError, Query, Relation, Tuple};

use crate::support::SupportSet;

/// A conflict-set engine bound to a database and a support set.
pub trait ConflictEngine {
    /// The indices (into the support set) of the databases in conflict with
    /// `query`'s answer on the base database.
    ///
    /// The default allocates a fresh set and delegates to
    /// [`ConflictEngine::conflict_set_into`].
    fn conflict_set(&self, query: &Query) -> ItemSet {
        let mut out = ItemSet::new();
        self.conflict_set_into(query, &mut out);
        out
    }

    /// Computes the conflict set into a caller-owned set, clearing it first.
    ///
    /// `out` keeps any spilled block buffer across calls (see
    /// [`ItemSet::clear`]), so a caller that reuses one set computes
    /// conflict set after conflict set without reallocating.
    fn conflict_set_into(&self, query: &Query, out: &mut ItemSet);

    /// Number of support databases.
    fn support_size(&self) -> usize;

    /// Conflict sets for a batch of queries, in query order.
    ///
    /// The default maps [`ConflictEngine::conflict_set`] serially;
    /// [`ParallelConflictEngine`] overrides it to fan the batch across
    /// threads. `Broker::quote_batch` and the builder's hypergraph both go
    /// through it.
    fn conflict_sets(&self, queries: &[Query]) -> Vec<ItemSet> {
        queries.iter().map(|q| self.conflict_set(q)).collect()
    }
}

/// Builds the pricing hypergraph for a batch of buyer queries: one hyperedge
/// per query, with a placeholder valuation of 0 (valuations are assigned by
/// the caller, typically from one of the paper's generative models). Goes
/// through [`ConflictEngine::conflict_sets`], so a parallel engine
/// parallelizes hypergraph construction for free.
pub fn build_hypergraph<E: ConflictEngine + ?Sized>(engine: &E, queries: &[Query]) -> Hypergraph {
    let mut h = Hypergraph::new(engine.support_size());
    for edge in engine.conflict_sets(queries) {
        h.add_edge_set(edge, 0.0);
    }
    h
}

// ---------------------------------------------------------------------------
// Naive engine
// ---------------------------------------------------------------------------

/// The baseline engine: evaluate `Q` on every (lazily overlaid) support
/// database and compare answers under bag semantics.
pub struct NaiveConflictEngine<'a> {
    db: &'a Database,
    support: &'a SupportSet,
}

impl<'a> NaiveConflictEngine<'a> {
    /// Creates an engine over `db` and `support`.
    pub fn new(db: &'a Database, support: &'a SupportSet) -> Self {
        NaiveConflictEngine { db, support }
    }
}

impl ConflictEngine for NaiveConflictEngine<'_> {
    fn conflict_set(&self, query: &Query) -> ItemSet {
        let mut out = ItemSet::with_capacity(self.support.len());
        self.conflict_set_into(query, &mut out);
        out
    }

    fn conflict_set_into(&self, query: &Query, out: &mut ItemSet) {
        out.clear();
        let base = query.evaluate(self.db);
        let tables = query.tables_referenced();
        for (i, delta) in self.support.deltas().iter().enumerate() {
            if !tables.contains(&delta.table) {
                continue; // the perturbation cannot influence the answer
            }
            let overlay = DeltaInstance::new(self.db, delta);
            if answers_differ(&base, &query.evaluate(&overlay)) {
                out.insert(i);
            }
        }
    }

    fn support_size(&self) -> usize {
        self.support.len()
    }
}

/// Decides `Q(D) ≠ Q(D')` from the two evaluation results, treating
/// evaluation errors symmetrically: an error counts as "answers differ" only
/// when exactly one side fails. When both sides fail, the buyer observes the
/// same failure either way and cannot distinguish the instances.
///
/// (Before this was factored out, a failing base evaluation produced an empty
/// conflict set while a failing overlay evaluation counted as a conflict —
/// the asymmetry fixed by this helper.)
fn answers_differ(base: &Result<Relation, QdbError>, overlay: &Result<Relation, QdbError>) -> bool {
    match (base, overlay) {
        (Ok(b), Ok(o)) => !o.same_answer(b),
        (Err(_), Err(_)) => false,
        _ => true,
    }
}

// ---------------------------------------------------------------------------
// Delta-aware engine
// ---------------------------------------------------------------------------

/// The delta-aware engine: one [`DeltaPlan`] per table the query reads,
/// compiled once per query and applied to every support delta on that table.
pub struct DeltaConflictEngine<'a> {
    db: &'a Database,
    support: &'a SupportSet,
    naive: NaiveConflictEngine<'a>,
}

impl<'a> DeltaConflictEngine<'a> {
    /// Creates an engine over `db` and `support`.
    pub fn new(db: &'a Database, support: &'a SupportSet) -> Self {
        DeltaConflictEngine {
            db,
            support,
            naive: NaiveConflictEngine::new(db, support),
        }
    }
}

impl ConflictEngine for DeltaConflictEngine<'_> {
    fn conflict_set(&self, query: &Query) -> ItemSet {
        let mut out = ItemSet::with_capacity(self.support.len());
        self.conflict_set_into(query, &mut out);
        out
    }

    fn conflict_set_into(&self, query: &Query, out: &mut ItemSet) {
        out.clear();
        let mut plans = Vec::new();
        for table in query.tables_referenced() {
            match DeltaPlan::compile(query, self.db, &table) {
                Ok(Some(plan)) => plans.push(plan),
                Ok(None) => return self.naive.conflict_set_into(query, out),
                // Evaluation errors are schema-driven and overlays share
                // the base schema: when the base evaluation fails too,
                // every support database fails the same way, and under the
                // symmetric rule of `answers_differ` nothing is in conflict.
                Err(_) if query.evaluate(self.db).is_err() => return,
                Err(_) => return self.naive.conflict_set_into(query, out),
            }
        }
        let mut new = Tuple::new();
        for (i, delta) in self.support.deltas().iter().enumerate() {
            let Some(plan) = plans.iter().find(|p| p.table() == delta.table) else {
                continue; // the perturbation cannot influence the answer
            };
            let Ok(old) = delta.old_tuple(self.db) else {
                continue;
            };
            new.clone_from(old);
            delta.patch(&mut new);
            if plan.changes(delta.row, old, &new) {
                out.insert(i);
            }
        }
    }

    fn support_size(&self) -> usize {
        self.support.len()
    }
}

// ---------------------------------------------------------------------------
// Parallel engine
// ---------------------------------------------------------------------------

/// A batch-parallel conflict engine: [`ConflictEngine::conflict_sets`] fans
/// the queries across `qp_core::parallel::claim` workers, the calling
/// thread included, each running its own [`DeltaConflictEngine`] over the
/// shared (read-only) database and support.
///
/// Work distribution is dynamic: workers claim the next unprocessed query
/// from one shared range, so a few expensive queries (e.g. naive-fallback
/// `LIMIT` queries) do not leave the other threads idle. Results land at
/// the query's index, preserving order.
///
/// Batches whose total work (queries × support size) is below a small
/// threshold take the serial path directly — thread spawn and claim
/// round-trips would cost more than they save. Whenever the effective
/// worker count is 1 (single-query calls, one-core machines, tiny
/// batches), the engine is exactly the serial [`DeltaConflictEngine`],
/// regardless of work size.
pub struct ParallelConflictEngine<'a> {
    db: &'a Database,
    support: &'a SupportSet,
    threads: usize,
}

impl<'a> ParallelConflictEngine<'a> {
    /// Creates an engine over `db` and `support` with one worker per
    /// available hardware thread (`qp_core::parallel::available_workers`).
    pub fn new(db: &'a Database, support: &'a SupportSet) -> Self {
        ParallelConflictEngine::with_threads_forced(db, support, parallel::available_workers())
    }

    /// Creates an engine with an *exact* worker count (must be positive)
    /// instead of the machine's.
    ///
    /// This exists for benchmarks that measure threading overhead on
    /// undersized machines and for tests that must exercise the threaded
    /// path regardless of where they run; production callers use
    /// [`ParallelConflictEngine::new`].
    pub fn with_threads_forced(db: &'a Database, support: &'a SupportSet, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        ParallelConflictEngine {
            db,
            support,
            threads,
        }
    }

    /// Number of workers a batch call will run, the caller included (at
    /// most).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Minimum batch work (queries × support databases) before spawning worker
/// threads pays for itself; smaller batches take the serial path.
const PARALLEL_WORK_THRESHOLD: usize = 4096;

impl ConflictEngine for ParallelConflictEngine<'_> {
    /// Single-query calls take the serial delta-engine path; spawning threads
    /// for one conflict set would only add overhead.
    fn conflict_set(&self, query: &Query) -> ItemSet {
        DeltaConflictEngine::new(self.db, self.support).conflict_set(query)
    }

    fn conflict_set_into(&self, query: &Query, out: &mut ItemSet) {
        DeltaConflictEngine::new(self.db, self.support).conflict_set_into(query, out)
    }

    fn support_size(&self) -> usize {
        self.support.len()
    }

    /// One effective worker takes the serial path no matter how large the
    /// batch is — a second thread cannot exist to share the work, so the
    /// spawn and claim overhead would be pure loss. Multi-worker batches
    /// still fall back to serial below the work threshold. On the threaded
    /// path each result lands in its query's slot, so the order is the
    /// queries'.
    fn conflict_sets(&self, queries: &[Query]) -> Vec<ItemSet> {
        let workers = self.threads.min(queries.len());
        if workers <= 1 || queries.len() * self.support.len() < PARALLEL_WORK_THRESHOLD {
            let engine = DeltaConflictEngine::new(self.db, self.support);
            return queries
                .iter()
                .map(|query| {
                    // Not `conflict_set`, which pre-sizes a buffer to the
                    // support: most conflict sets fit inline and never
                    // allocate.
                    let mut set = ItemSet::new();
                    engine.conflict_set_into(query, &mut set);
                    set
                })
                .collect();
        }
        let mut engines: Vec<_> = (0..workers)
            .map(|_| DeltaConflictEngine::new(self.db, self.support))
            .collect();
        let mut slots = Vec::new();
        claim_map_into(
            queries,
            &mut engines,
            |engine, query| engine.conflict_set(query),
            &mut slots,
        );
        slots
            .into_iter()
            .map(|s| s.expect("the workers fill every slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::SupportConfig;
    use qp_qdb::{AggFunc, ColumnType, Expr, Schema, Value};

    fn world_like_db() -> Database {
        let mut rel = Relation::new(Schema::new(vec![
            ("name", ColumnType::Str),
            ("continent", ColumnType::Str),
            ("population", ColumnType::Int),
        ]));
        let continents = ["Asia", "Europe", "Africa"];
        for i in 0..60 {
            rel.push(vec![
                format!("country{i}").into(),
                continents[i % 3].into(),
                Value::Int(1000 + (i as i64) * 37),
            ])
            .unwrap();
        }
        let mut db = Database::new();
        db.add_table("Country", rel);
        db
    }

    fn queries() -> Vec<Query> {
        vec![
            // Selection + projection chain.
            Query::scan("Country")
                .filter(Expr::col("continent").eq(Expr::lit("Asia")))
                .project_cols(&["name"]),
            // Distinct chain.
            Query::scan("Country")
                .project_cols(&["continent"])
                .distinct(),
            // Global aggregate.
            Query::scan("Country")
                .filter(Expr::col("population").gt(Expr::lit(1500)))
                .aggregate(vec![], vec![(AggFunc::Count, None, "c")]),
            // Group-by aggregate.
            Query::scan("Country").aggregate(
                vec!["continent"],
                vec![(AggFunc::Max, Some("population"), "mx")],
            ),
            // Full scan.
            Query::scan("Country"),
        ]
    }

    #[test]
    fn delta_engine_matches_naive_engine() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(120));
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        for q in queries() {
            let a = naive.conflict_set(&q);
            let b = fast.conflict_set(&q);
            assert_eq!(
                a,
                b,
                "engines disagree on {:?}",
                qp_qdb::pretty::render_plan(&q)
            );
        }
    }

    #[test]
    fn join_queries_match_the_naive_engine() {
        let mut db = world_like_db();
        let mut city = Relation::new(Schema::new(vec![
            ("cname", ColumnType::Str),
            ("country", ColumnType::Str),
        ]));
        for i in 0..30 {
            city.push(vec![
                format!("city{i}").into(),
                format!("country{}", i * 2).into(),
            ])
            .unwrap();
        }
        db.add_table("City", city);
        let support = SupportSet::generate(&db, &SupportConfig::with_size(80));
        let q = Query::scan("Country")
            .join(Query::scan("City"), vec![("name", "country")])
            .aggregate(vec![], vec![(AggFunc::Count, None, "c")]);
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        assert_eq!(naive.conflict_set(&q), fast.conflict_set(&q));
    }

    #[test]
    fn deltas_on_unrelated_tables_never_conflict() {
        let mut db = world_like_db();
        let mut other = Relation::new(Schema::new(vec![("x", ColumnType::Int)]));
        for i in 0..20 {
            other.push(vec![Value::Int(i)]).unwrap();
        }
        db.add_table("Other", other);
        let support = SupportSet::generate(&db, &SupportConfig::with_size(100));
        let q = Query::scan("Other").aggregate(vec![], vec![(AggFunc::Sum, Some("x"), "s")]);
        let naive = NaiveConflictEngine::new(&db, &support);
        for i in naive.conflict_set(&q).iter() {
            assert_eq!(support.deltas()[i].table, "Other");
        }
    }

    #[test]
    fn evaluation_errors_are_treated_symmetrically() {
        // Regression: a failing base evaluation used to yield an empty
        // conflict set while a failing overlay evaluation counted as a
        // conflict. The decision is now symmetric — "answers differ" iff
        // exactly one side fails.
        let ok = |v: i64| -> Result<Relation, qp_qdb::QdbError> {
            let mut rel = Relation::new(Schema::new(vec![("x", ColumnType::Int)]));
            rel.push(vec![Value::Int(v)]).unwrap();
            Ok(rel)
        };
        let err = || -> Result<Relation, qp_qdb::QdbError> {
            Err(qp_qdb::QdbError::UnknownColumn("nope".into()))
        };
        assert!(!answers_differ(&ok(1), &ok(1)));
        assert!(answers_differ(&ok(1), &ok(2)));
        assert!(answers_differ(&ok(1), &err()), "only overlay fails");
        assert!(answers_differ(&err(), &ok(1)), "only base fails");
        assert!(!answers_differ(&err(), &err()), "both fail the same way");
    }

    #[test]
    fn queries_that_always_fail_have_empty_conflict_sets_in_both_engines() {
        // An unknown column fails on the base database and on every overlay
        // (deltas never change the schema), so under the symmetric rule the
        // conflict set is empty — and the delta engine agrees.
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(50));
        let q = Query::scan("Country").filter(Expr::col("no_such_column").eq(Expr::lit(1)));
        let naive = NaiveConflictEngine::new(&db, &support);
        let fast = DeltaConflictEngine::new(&db, &support);
        assert!(naive.conflict_set(&q).is_empty());
        assert_eq!(naive.conflict_set(&q), fast.conflict_set(&q));
    }

    #[test]
    fn parallel_engine_matches_serial_engines_query_by_query() {
        let db = world_like_db();
        // Large enough that queries × support clears the serial-fallback
        // threshold: the threaded path itself is under test.
        let support = SupportSet::generate(&db, &SupportConfig::with_size(900));
        let serial = DeltaConflictEngine::new(&db, &support);
        for threads in [1, 2, 5] {
            // Forced thread counts so the threaded path is exercised even on
            // a single-core machine, where `new` would run one worker.
            let parallel = ParallelConflictEngine::with_threads_forced(&db, &support, threads);
            assert_eq!(parallel.support_size(), support.len());
            let qs = queries();
            let batch = parallel.conflict_sets(&qs);
            assert_eq!(batch.len(), qs.len());
            for (q, set) in qs.iter().zip(&batch) {
                assert_eq!(set, &serial.conflict_set(q), "threads={threads}");
                assert_eq!(set, &parallel.conflict_set(q), "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_hypergraph_matches_the_serial_hypergraph() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(850));
        let qs = queries();
        let serial = build_hypergraph(&DeltaConflictEngine::new(&db, &support), &qs);
        let parallel = build_hypergraph(
            &ParallelConflictEngine::with_threads_forced(&db, &support, 4),
            &qs,
        );
        assert_eq!(serial.num_items(), parallel.num_items());
        assert_eq!(serial.num_edges(), parallel.num_edges());
        for i in 0..serial.num_edges() {
            assert_eq!(serial.edge(i).items, parallel.edge(i).items);
        }
    }

    #[test]
    fn requested_threads_are_clamped_to_hardware_parallelism() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(20));
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // `new` lands on the hardware count; `with_threads_forced` keeps the
        // exact request.
        assert_eq!(ParallelConflictEngine::new(&db, &support).threads(), hw);
        assert_eq!(
            ParallelConflictEngine::with_threads_forced(&db, &support, 1).threads(),
            1
        );
        assert_eq!(
            ParallelConflictEngine::with_threads_forced(&db, &support, 64).threads(),
            64
        );
    }

    #[test]
    fn build_hypergraph_has_one_edge_per_query() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(60));
        let engine = DeltaConflictEngine::new(&db, &support);
        let qs = queries();
        let h = build_hypergraph(&engine, &qs);
        assert_eq!(h.num_edges(), qs.len());
        assert_eq!(h.num_items(), 60);
        // The full-table scan conflicts with every delta on Country.
        let full_scan_edge = h.edge(4);
        let country_deltas = support
            .deltas()
            .iter()
            .filter(|d| d.table == "Country")
            .count();
        assert_eq!(full_scan_edge.size(), country_deltas);
    }

    #[test]
    fn selective_queries_have_smaller_conflict_sets() {
        let db = world_like_db();
        let support = SupportSet::generate(&db, &SupportConfig::with_size(150));
        let engine = DeltaConflictEngine::new(&db, &support);
        let narrow = Query::scan("Country")
            .filter(Expr::col("name").eq(Expr::lit("country3")))
            .project_cols(&["population"]);
        let broad = Query::scan("Country");
        let narrow_set = engine.conflict_set(&narrow);
        let broad_set = engine.conflict_set(&broad);
        assert!(narrow_set.len() < broad_set.len());
        // Everything that conflicts with the narrow query also conflicts with
        // the full scan (information monotonicity at the conflict-set level).
        assert!(narrow_set.is_subset(&broad_set));
    }
}
