//! A live data market under a flash crowd.
//!
//! ```bash
//! cargo run --release --example simulate_market
//! ```
//!
//! Builds a broker over the `world` dataset, priced with UIP for a slice of
//! the paper's skewed workload, then replays the `flash_crowd` scenario from
//! the `qp-sim` library: Poisson background traffic, a burst of
//! rubberneckers mid-run, and a repricing policy that re-runs the algorithm
//! on observed demand every five ticks while buyers keep quoting from
//! worker threads. Prints the revenue-over-time table the simulator's
//! `BENCH_sim.json` artifact is built from.

use std::sync::Mutex;

use query_pricing::market::{Broker, SupportConfig};
use query_pricing::pricing::algorithms::PricingPatch;
use query_pricing::pricing::Pricing;
use query_pricing::sim::{
    library, run_with, Buyer, Population, SettleTransport, SettleWorker, SettledQuote, SimConfig,
};
use query_pricing::workloads::queries::skewed;
use query_pricing::workloads::world::{self, WorldConfig};
use query_pricing::workloads::Scale;

fn main() {
    // The seller's dataset and the anticipated buyer queries.
    let cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&cfg);
    let pool = skewed::workload(&db, cfg.countries).queries[..80].to_vec();
    println!(
        "world dataset: {} tables, {} tuples; {} anticipated queries",
        db.num_tables(),
        db.total_rows(),
        pool.len()
    );

    let broker = Broker::builder(db)
        .support_config(SupportConfig::with_size(120))
        .algorithm("UIP")
        .anticipate_all(
            pool.iter()
                .enumerate()
                .map(|(i, q)| (q.clone(), 10.0 + (i % 9) as f64 * 5.0)),
        )
        .build()
        .expect("UIP is a registered algorithm");

    // The flash-crowd scenario: traffic spikes mid-run, pricing follows.
    let scenario = library(&pool, 30)
        .into_iter()
        .find(|s| s.name == "flash_crowd")
        .expect("flash_crowd is in the scenario library");
    println!("scenario: {} — {}\n", scenario.name, scenario.description);

    let declined_prices = Mutex::new(0.0);
    let market = Booked {
        broker: &broker,
        declined_prices: &declined_prices,
    };
    let mut report = run_with(
        &market,
        &scenario.schedule,
        &scenario.arrivals,
        scenario.policy.build().as_mut(),
        &SimConfig {
            seed: 7,
            algorithm: "UIP".to_string(),
            ticks: scenario.ticks,
            ..SimConfig::default()
        },
    );
    report.scenario = scenario.name.to_string();

    println!("tick  arrivals  sold  declined   revenue   cumulative");
    let cumulative = report.cumulative_revenue();
    for (t, cum) in report.ticks.iter().zip(&cumulative) {
        let repriced = if report.repricings.iter().any(|r| r.tick == t.tick) {
            "  <- repriced"
        } else {
            ""
        };
        println!(
            "{:>4}  {:>8}  {:>4}  {:>8}  {:>8.2}  {:>10.2}{repriced}",
            t.tick, t.arrivals, t.sold, t.declined, t.revenue, cum
        );
    }
    println!("\n{}", report.summary());

    // The books: the report's totals plus the prices buyers turned down.
    println!(
        "ledger: {} sales totalling {:.2}, {} declines leaving {:.2} on the table, conversion {:.1}%",
        report.sales(),
        report.total_revenue(),
        report.declines(),
        declined_prices.into_inner().expect("no settle panicked"),
        100.0 * report.conversion_rate()
    );
}

/// The in-process market with the example's own books on top: it settles
/// through the broker and adds up the quoted prices of declined sales (the
/// report tallies declined buyers' budgets instead).
#[derive(Clone, Copy)]
struct Booked<'a> {
    broker: &'a Broker,
    declined_prices: &'a Mutex<f64>,
}

impl<'a> SettleTransport for Booked<'a> {
    type Worker = Booked<'a>;

    fn worker(&self) -> Booked<'a> {
        *self
    }

    fn install_pricing(&self, pricing: Pricing) {
        self.broker.set_pricing(pricing);
    }

    fn apply_patch(&self, patch: &PricingPatch) {
        self.broker.apply_delta(patch);
    }

    fn num_items(&self) -> usize {
        self.broker.support().len()
    }
}

impl SettleWorker for Booked<'_> {
    fn quote_and_settle(
        &mut self,
        population: &Population,
        phase: usize,
        buyer: &Buyer,
        tick: u64,
    ) -> SettledQuote {
        let settled = self.broker.quote_and_settle(population, phase, buyer, tick);
        if !settled.sold {
            *self.declined_prices.lock().expect("no settle panicked") += settled.price;
        }
        settled
    }
}
