//! Cache-hot kernel micro-benchmarks → `BENCH_kernels.json`.
//!
//! Pits each rewritten hot kernel against its scalar reference — the
//! pre-optimization implementation kept verbatim in [`qp_core::reference`]
//! and [`qp_pricing::algorithms::reference`] — on the operand shapes the
//! pricing hot paths actually see:
//!
//! * **small_set** — conflict-set algebra on inline-sized sets (≤ 2 blocks,
//!   the overwhelmingly common case in quoting): the reference allocates a
//!   fresh heap `Vec<u64>` per op and walks one block at a time; the fast
//!   path stays on the stack and takes the single-block early arms.
//! * **large_set** — the same algebra on ~32-block sets (wide support
//!   databases): reference scalar walk vs the 4-blocks-per-iteration
//!   chunked loops.
//! * **uip_merge** — the incremental repricer's rate-multiset merge at
//!   m = 10k distinct rates with a 1% delta: reference entry-at-a-time
//!   walk (fresh allocation per merge) vs the galloping, bulk-copying
//!   [`RateTable::merge_batch`] into a reused double buffer.
//! * **telemetry** — the observability zero-overhead contract: the same
//!   inline-set fold bare vs instrumented the way the quote path is — one
//!   `TelemetrySink::Disabled` span + counter touch per 32-op batch (a
//!   quote wraps a whole conflict-set fold in one span, it does not span
//!   each set op). Here `before` is the bare fold and `after` the
//!   instrumented one, so CI can gate on `after_ns <= 1.02 * before_ns`
//!   (the ≤ 2 % overhead budget for the disabled sink).
//! * **tracing** — the live-tracing overhead contract: a broker
//!   quote+settle on the default `Disabled` sink (`before`) vs the same
//!   broker on an `Enabled` sink with a trace id stamped per settle, the
//!   way a `TRACED` frame dispatches (`after`). CI bounds the quotient at
//!   ≤ 3 % (`after_ns <= 1.03 * before_ns`).
//!
//! Every measured pair is also *checked* — each timed round asserts the
//! fast path and the reference produce identical results, so the benchmark
//! cannot drift from the differential test suites it mirrors.
//!
//! ```bash
//! cargo run --release -p qp-bench --bin bench_kernels
//! cargo run --release -p qp-bench --bin bench_kernels -- \
//!     --reps 15 --iters 200 --out BENCH_kernels.json
//! cargo run --release -p qp-bench --bin bench_kernels -- --smoke   # CI-sized
//! ```

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qp_bench::arg_value;
use qp_core::{reference, ItemSet};
use qp_market::{Broker, PurchaseOutcome, SupportConfig};
use qp_pricing::algorithms::{reference as rate_reference, RateTable};
use qp_qdb::{ColumnType, Database, Query, Relation, Schema, Value};
use qp_telemetry::TelemetrySink;

/// Operand pool sizes: enough pairs to defeat branch-predictor lock-in,
/// small enough to stay cache-resident (the kernels, not the RAM, are
/// under test).
const PAIRS: usize = 256;

/// Item universe for the small (inline-sized) sets: 2 blocks.
const SMALL_UNIVERSE: usize = 128;
/// Item universe for the large (chunked-loop) sets: 32 blocks.
const LARGE_UNIVERSE: usize = 2048;

struct Row {
    group: &'static str,
    kernel: &'static str,
    before_ns: f64,
    after_ns: f64,
}

/// A random set of `size` items drawn from `universe`.
fn random_set(rng: &mut StdRng, universe: usize, size: usize) -> ItemSet {
    (0..size).map(|_| rng.gen_range(0..universe)).collect()
}

/// Operand pairs for one group: sizes span the group's range so the pools
/// exercise subset/overlap/disjoint shapes alike.
fn pairs(rng: &mut StdRng, universe: usize, max_size: usize) -> Vec<(ItemSet, ItemSet)> {
    (0..PAIRS)
        .map(|_| {
            let size_a = rng.gen_range(1..=max_size);
            let a = random_set(rng, universe, size_a);
            // Half the pairs share a base with `a` so subset/overlap paths
            // are exercised, not just the disjoint fast exits.
            let size_b = rng.gen_range(1..=max_size);
            let b = if rng.gen_bool(0.5) {
                let mut b = a.clone();
                b.union_with(&random_set(rng, universe, size_b));
                b
            } else {
                random_set(rng, universe, size_b)
            };
            (a, b)
        })
        .collect()
}

/// Median per-op nanoseconds of `f` run over the pool, `iters` sweeps per
/// sample and `reps` samples.
fn time_ns<F: FnMut() -> u64>(reps: usize, iters: usize, ops_per_iter: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(f());
        }
        let per_op = t0.elapsed().as_nanos() as f64 / (iters * ops_per_iter) as f64;
        samples.push(per_op);
    }
    black_box(sink);
    median(&mut samples)
}

/// Times two workloads A/B-interleaved: each rep measures `before` then
/// `after` back to back, so slow drift (CPU frequency, page cache state)
/// lands on both sides of the ratio instead of biasing one. Used by the
/// tracing row, where the gated quantity *is* the after/before quotient.
fn time_ns_paired<F: FnMut() -> u64, G: FnMut() -> u64>(
    reps: usize,
    iters: usize,
    ops_per_iter: usize,
    mut before: F,
    mut after: G,
) -> (f64, f64) {
    let mut before_samples = Vec::with_capacity(reps);
    let mut after_samples = Vec::with_capacity(reps);
    let mut sink = 0u64;
    let ops = (iters * ops_per_iter) as f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(before());
        }
        before_samples.push(t0.elapsed().as_nanos() as f64 / ops);
        let t1 = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(after());
        }
        after_samples.push(t1.elapsed().as_nanos() as f64 / ops);
    }
    black_box(sink);
    (median(&mut before_samples), median(&mut after_samples))
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Measures one set-algebra kernel over an operand pool: `before` is the
/// scalar reference, `after` the fast path; both are folded to a `u64` so
/// results feed the timing sink (and are cross-checked once up front).
fn set_kernel(
    group: &'static str,
    kernel: &'static str,
    pool: &[(ItemSet, ItemSet)],
    reps: usize,
    iters: usize,
    before: impl Fn(&ItemSet, &ItemSet) -> u64,
    after: impl Fn(&ItemSet, &ItemSet) -> u64,
) -> Row {
    for (a, b) in pool {
        assert_eq!(
            before(a, b),
            after(a, b),
            "{group}/{kernel}: fast path diverged from the reference"
        );
    }
    let before_ns = time_ns(reps, iters, pool.len(), || {
        pool.iter()
            .map(|(a, b)| before(black_box(a), black_box(b)))
            .fold(0u64, u64::wrapping_add)
    });
    let after_ns = time_ns(reps, iters, pool.len(), || {
        pool.iter()
            .map(|(a, b)| after(black_box(a), black_box(b)))
            .fold(0u64, u64::wrapping_add)
    });
    Row {
        group,
        kernel,
        before_ns,
        after_ns,
    }
}

/// The set-algebra rows for one operand-shape group.
fn set_rows(
    group: &'static str,
    pool: &[(ItemSet, ItemSet)],
    reps: usize,
    iters: usize,
) -> Vec<Row> {
    // Result sets fold to their stable hash so construction cost (the
    // allocation the fast path avoids) stays inside the timed region.
    vec![
        set_kernel(
            group,
            "union",
            pool,
            reps,
            iters,
            |a, b| reference::union(a, b).stable_hash(),
            |a, b| a.union(b).stable_hash(),
        ),
        set_kernel(
            group,
            "intersection",
            pool,
            reps,
            iters,
            |a, b| reference::intersection(a, b).stable_hash(),
            |a, b| a.intersection(b).stable_hash(),
        ),
        set_kernel(
            group,
            "difference",
            pool,
            reps,
            iters,
            |a, b| reference::difference(a, b).stable_hash(),
            |a, b| a.difference(b).stable_hash(),
        ),
        set_kernel(
            group,
            "intersection_len",
            pool,
            reps,
            iters,
            |a, b| reference::intersection_len(a, b) as u64,
            |a, b| a.intersection_len(b) as u64,
        ),
        set_kernel(
            group,
            "is_subset",
            pool,
            reps,
            iters,
            |a, b| reference::is_subset(a, b) as u64,
            |a, b| a.is_subset(b) as u64,
        ),
        set_kernel(
            group,
            "is_disjoint",
            pool,
            reps,
            iters,
            |a, b| reference::is_disjoint(a, b) as u64,
            |a, b| a.is_disjoint(b) as u64,
        ),
    ]
}

/// The UIP rate-merge row: m distinct rates, `pct`% delta (half fresh
/// insertions, half removals of tracked rates).
fn uip_merge_row(m: usize, pct: usize, reps: usize, iters: usize, seed: u64) -> Row {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<(u64, rate_reference::RateEntry)> = (0..m)
        .map(|i| {
            let count = rng.gen_range(1..4usize);
            let sizes = count * rng.gen_range(1..24usize);
            // Keys spaced out so delta keys can land between them.
            (
                (i as u64 + 1) * 1000,
                rate_reference::RateEntry { count, sizes },
            )
        })
        .collect();
    let k = (m * pct).div_ceil(100).max(1);
    let mut ins: Vec<(u64, usize)> = (0..k)
        .map(|_| {
            let slot = rng.gen_range(0..m as u64);
            (
                slot * 1000 + rng.gen_range(1..1000u64),
                rng.gen_range(1..24usize),
            )
        })
        .collect();
    ins.sort_unstable_by_key(|e| e.0);
    let mut rem: Vec<(u64, usize)> = (0..k)
        .map(|_| {
            let (key, e) = base[rng.gen_range(0..m)];
            // Remove at most one bundle per key; sizes drawn from what the
            // entry holds so the merge never underflows.
            (key, e.sizes / e.count)
        })
        .collect();
    rem.sort_unstable_by_key(|e| e.0);
    // Duplicate removals at one key could exceed its count; thin them out.
    rem.dedup_by_key(|e| e.0);

    let table = rate_reference::table_from_entries(&base);
    let expected = rate_reference::merge_rates(&base, &ins, &rem);
    let mut out = RateTable::new();
    table.merge_batch(&ins, &rem, &mut out);
    assert_eq!(
        rate_reference::entries_from_table(&out),
        expected,
        "uip_merge: batch merge diverged from the reference walk"
    );

    let before_ns = time_ns(reps, iters, 1, || {
        let merged = rate_reference::merge_rates(black_box(&base), &ins, &rem);
        merged.len() as u64
    });
    let after_ns = time_ns(reps, iters, 1, || {
        table.merge_batch(black_box(&ins), &rem, &mut out);
        out.len() as u64
    });
    Row {
        group: "uip_merge",
        kernel: "merge_rates",
        before_ns,
        after_ns,
    }
}

/// The disabled-sink overhead row: the inline-set `intersection_len` fold
/// bare (`before`) vs instrumented at quote-path granularity (`after`) —
/// one span guard + counter increment per 32-op batch, every handle handed
/// out by a [`TelemetrySink::Disabled`] sink. The quotient `after/before`
/// is the overhead the CI telemetry job bounds at 2 %.
fn telemetry_overhead_row(pool: &[(ItemSet, ItemSet)], reps: usize, iters: usize) -> Row {
    let sink = TelemetrySink::default();
    assert!(
        !sink.is_enabled(),
        "overhead row measures the Disabled sink"
    );
    let batch_span = sink.span_handle("bench.batch");
    let batch_ops = sink.counter("bench.ops");
    let before_ns = time_ns(reps, iters, pool.len(), || {
        pool.iter()
            .map(|(a, b)| black_box(a).intersection_len(black_box(b)) as u64)
            .fold(0u64, u64::wrapping_add)
    });
    let after_ns = time_ns(reps, iters, pool.len(), || {
        let mut acc = 0u64;
        for batch in pool.chunks(32) {
            let _guard = batch_span.enter();
            batch_ops.inc();
            for (a, b) in batch {
                acc = acc.wrapping_add(black_box(a).intersection_len(black_box(b)) as u64);
            }
        }
        acc
    });
    Row {
        group: "telemetry",
        kernel: "disabled_sink",
        before_ns,
        after_ns,
    }
}

/// The tracing-enabled overhead row: `Broker::purchase` (quote + settle)
/// on two identically built brokers, one on the default `Disabled` sink
/// (`before`) and one on an `Enabled` sink with a fresh trace id stamped
/// into the thread-local context before every settle — exactly what a
/// `TRACED` envelope does on dispatch (`after`). The broker's one span on
/// this path is `settle.ledger`, so the quotient `after/before` is the
/// cost of that span plus the trace-id stamping; the CI tracing job bounds
/// it at 3 %.
fn tracing_overhead_row(reps: usize, iters: usize) -> Row {
    fn tiny_broker(sink: TelemetrySink) -> Broker {
        let mut rel = Relation::new(Schema::new(vec![
            ("name", ColumnType::Str),
            ("size", ColumnType::Int),
        ]));
        for i in 0..32 {
            rel.push(vec![format!("row{i}").into(), Value::Int(i)])
                .expect("schema matches");
        }
        let mut db = Database::new();
        db.add_table("T", rel);
        Broker::builder(db)
            .support_config(SupportConfig::with_size(40))
            .algorithm("UBP")
            .anticipate(Query::scan("T"), 30.0)
            .telemetry(sink)
            .build()
            .expect("UBP is registered")
    }

    let q = Query::scan("T");
    let bare = tiny_broker(TelemetrySink::default());
    let traced = tiny_broker(TelemetrySink::enabled());
    assert_eq!(
        bare.quote(&q).price.to_bits(),
        traced.quote(&q).price.to_bits(),
        "tracing: the sink must not change pricing"
    );

    let settle_sweep = |broker: &Broker, stamp_trace: bool| {
        let mut acc = 0u64;
        for i in 0..SETTLE_OPS as u64 {
            if stamp_trace {
                // Deterministic worker-style ids, like NetTransport mints.
                qp_telemetry::set_current_trace_id((1u64 << 32) | (i + 1));
            }
            let budget = if i % 2 == 0 { 1e9 } else { 0.0 };
            match broker.purchase(black_box(&q), budget).expect("eval") {
                PurchaseOutcome::Sold { price, .. } => acc = acc.wrapping_add(price.to_bits()),
                PurchaseOutcome::Declined { price } => acc = acc.wrapping_add(!price.to_bits()),
            }
        }
        acc
    };
    // Untimed warmup on both sides: first-touch journal/registry growth is
    // setup cost a live server amortizes, not per-quote tracing cost.
    let bare_acc = black_box(settle_sweep(&bare, false));
    let traced_acc = black_box(settle_sweep(&traced, true));
    // This row gates a ratio of two µs-scale composites: paired
    // interleaving + extra reps keep the median honest.
    let (before_ns, after_ns) = time_ns_paired(
        reps * 2 - 1,
        iters,
        SETTLE_OPS,
        || settle_sweep(&bare, false),
        || settle_sweep(&traced, true),
    );
    assert_eq!(
        bare_acc, traced_acc,
        "tracing: both brokers settled identical traffic"
    );
    Row {
        group: "tracing",
        kernel: "traced_quote_settle",
        before_ns,
        after_ns,
    }
}

/// Settles per timing iteration on the tracing row — alternating
/// sold/declined so both settle outcomes are in the measurement.
const SETTLE_OPS: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps: usize = arg_value(&args, "--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 5 } else { 15 });
    let iters: usize = arg_value(&args, "--iters")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 20 } else { 200 });
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_kernels.json".to_string());

    println!(
        "kernel micro-benchmarks{}: {PAIRS} operand pairs/group, {reps} reps x {iters} iters",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rng = StdRng::seed_from_u64(0x5E7B17);
    let small_pool = pairs(&mut rng, SMALL_UNIVERSE, 24);
    let large_pool = pairs(&mut rng, LARGE_UNIVERSE, 512);

    let mut rows = Vec::new();
    rows.extend(set_rows("small_set", &small_pool, reps, iters));
    rows.extend(set_rows("large_set", &large_pool, reps, iters));
    let (merge_m, merge_iters) = if smoke { (1000, iters) } else { (10_000, 50) };
    rows.push(uip_merge_row(merge_m, 1, reps, merge_iters, 0x0417E5));
    rows.push(telemetry_overhead_row(&small_pool, reps, iters));
    // Fewer sweeps: each op is a full quote+settle with query evaluation.
    rows.push(tracing_overhead_row(reps, if smoke { iters } else { 50 }));

    for r in &rows {
        println!(
            "  {:<10} {:<16}: before {:>9.2} ns   after {:>9.2} ns   speedup {:>5.2}x",
            r.group,
            r.kernel,
            r.before_ns,
            r.after_ns,
            r.before_ns / r.after_ns
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"pricing_kernels\",\n");
    json.push_str(
        "  \"workload\": \"set algebra on inline- and chunked-sized operands; UIP rate-multiset merge\",\n",
    );
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"kernel\": \"{}\", \"before_ns\": {:.2}, \"after_ns\": {:.2}, \"speedup\": {:.2}}}{}\n",
            r.group,
            r.kernel,
            r.before_ns,
            r.after_ns,
            r.before_ns / r.after_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("writing the benchmark artifact");
    println!("wrote {out_path}");
}
