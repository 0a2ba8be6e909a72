//! A small data marketplace over the `world` dataset.
//!
//! ```bash
//! cargo run --release --example data_market
//! ```
//!
//! Recreates the setting that motivates the paper's introduction: a seller
//! lists the `world` database, buyers ask aggregate and lookup queries with
//! different willingness to pay, and the broker A/B-tests registry pricing
//! algorithms — swapping the live pricing through `set_pricing(&self, ...)`
//! — before selling. The example also runs the empirical arbitrage checks
//! and prints its own per-sale tally of bundle sizes and prices.

use query_pricing::market::{check_all, Broker, PurchaseOutcome, SupportConfig};
use query_pricing::pricing::{algorithms, bounds, Hypergraph, ItemSet};
use query_pricing::qdb::pretty;
use query_pricing::qdb::{AggFunc, Expr, Query};
use query_pricing::workloads::world::{self, WorldConfig};
use query_pricing::workloads::Scale;

fn main() {
    // The seller's dataset.
    let db = world::generate(&WorldConfig::at_scale(Scale::Test));
    println!(
        "world dataset: {} tables, {} tuples",
        db.num_tables(),
        db.total_rows()
    );

    // Buyers: a data analyst, a journalist, a hedge fund, a student.
    let buyers: Vec<(&str, Query, f64)> = vec![
        (
            "analyst: population by continent",
            Query::scan("Country").aggregate(
                vec!["Continent"],
                vec![(AggFunc::Sum, Some("Population"), "pop")],
            ),
            40.0,
        ),
        (
            "journalist: Caribbean countries",
            Query::scan("Country")
                .filter(Expr::col("Region").eq(Expr::lit("Caribbean")))
                .project_cols(&["Name", "Population"]),
            15.0,
        ),
        (
            "hedge fund: the full Country table",
            Query::scan("Country"),
            120.0,
        ),
        (
            "student: number of distinct government forms",
            Query::scan("Country").aggregate(
                vec![],
                vec![(AggFunc::CountDistinct, Some("GovernmentForm"), "g")],
            ),
            5.0,
        ),
        (
            "NGO: average life expectancy in Africa",
            Query::scan("Country")
                .filter(Expr::col("Continent").eq(Expr::lit("Africa")))
                .aggregate(vec![], vec![(AggFunc::Avg, Some("LifeExpectancy"), "le")]),
            12.0,
        ),
    ];

    // Broker + conflict sets (one engine pass via quote_batch).
    let broker = Broker::new(db, &SupportConfig::with_size(300));
    let queries: Vec<Query> = buyers.iter().map(|(_, q, _)| q.clone()).collect();
    let conflict_sets: Vec<ItemSet> = broker
        .quote_batch(&queries)
        .into_iter()
        .map(|quote| quote.conflict_set)
        .collect();
    let mut h = Hypergraph::new(broker.support().len());
    for (cs, (_, _, v)) in conflict_sets.iter().zip(&buyers) {
        h.add_edge_set(cs.clone(), *v);
    }

    // A/B the registry roster on the anticipated workload; install the best.
    let sum = bounds::sum_of_valuations(&h);
    println!("\nrevenue (out of {sum:.1}):");
    let mut best: Option<(f64, String, query_pricing::pricing::Pricing)> = None;
    for algo in algorithms::all() {
        let out = algo.run(&h);
        println!("  {:<9} {:>7.2}", algo.name(), out.revenue);
        // The swap happens on a shared broker: set_pricing takes &self, so
        // this could just as well be done while other threads quote.
        broker.set_pricing(out.pricing.clone());
        if best.as_ref().is_none_or(|(r, _, _)| out.revenue > *r) {
            best = Some((out.revenue, algo.name().to_string(), out.pricing));
        }
    }
    let (best_revenue, best_name, best_pricing) = best.expect("registry is not empty");
    let report = check_all(&conflict_sets, &best_pricing);
    println!(
        "installing {best_name} (revenue {best_revenue:.2}); arbitrage-free: {}",
        report.is_arbitrage_free()
    );
    broker.set_pricing(best_pricing);

    // Sell, keeping the books here: the broker records nothing.
    println!();
    let mut sales = Vec::new();
    for (who, q, budget) in &buyers {
        let quote = broker.quote(q);
        match broker.settle(&quote, q, *budget).unwrap() {
            PurchaseOutcome::Sold { price, answer } => {
                sales.push((quote.conflict_set.len(), price));
                println!("SOLD  {who} for {price:.2}");
                if answer.len() <= 4 {
                    print!("{}", pretty::render_relation(&answer, 4));
                }
            }
            PurchaseOutcome::Declined { price } => {
                println!("PASS  {who}: quoted {price:.2} > budget {budget:.2}");
            }
        }
    }
    println!(
        "\nrealized revenue: {:.2} from {}/{} buyers",
        sales.iter().map(|(_, price)| price).sum::<f64>(),
        sales.len(),
        buyers.len()
    );
    for (bundle_size, price) in &sales {
        println!("  sold a bundle of {bundle_size:>3} support DBs at {price:>6.2}");
    }
}
