//! The repository benchmark.
//!
//! ```text
//! qp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads:
//!
//! * `serve-steady` — read-mostly buyer sessions; cached quotes, no store,
//!   no repricing. Fixed per-request costs dominate.
//! * `serve-churn` — sessions plus a `REPRICE` every 1000 sessions on a
//!   durable server; every reprice invalidates the caches and snapshots
//!   grow with lifetime sales.
//! * `catalog-skewed` — the catalog pipeline where conflict sets dominate.
//! * `catalog-uniform` — the catalog pipeline where the LP-based
//!   algorithms dominate.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that measures the per-layer metrics. The last line of standard
//! output is a JSON result row.

mod catalog;
mod oracle;
mod procfs;
mod report;
mod schedule;
mod serve;
mod stats;
mod timing_store;

use catalog::{CatalogSpec, Family};
use report::Report;
use serve::ServeSpec;

enum Workload {
    Serve(ServeSpec),
    Catalog(CatalogSpec),
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "serve-steady" => Workload::Serve(ServeSpec {
            pool: Some(100),
            support: 120,
            shards: 4,
            rate_per_s: 15_000.0,
            reprice_every: None,
            snapshot_every: None,
        }),
        "serve-churn" => Workload::Serve(ServeSpec {
            pool: None,
            support: 120,
            shards: 4,
            rate_per_s: 15_000.0,
            reprice_every: Some(1000),
            snapshot_every: Some(8),
        }),
        "catalog-skewed" => Workload::Catalog(CatalogSpec {
            family: Family::Skewed,
            support: 1000,
        }),
        "catalog-uniform" => Workload::Catalog(CatalogSpec {
            family: Family::Uniform(300),
            support: 600,
        }),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qp-perfbench: {e}");
            eprintln!(
                "usage: qp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("qp-perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    report.context("workload", &args.workload);
    report.context("seed", args.seed);
    report.context("nproc", procfs::nproc());
    report.context("trace", u8::from(args.trace));
    match (&w, args.trace) {
        (Workload::Serve(spec), false) => {
            serve::run(&args.workload, spec, args.seed, args.seconds, &mut report)
        }
        (Workload::Serve(spec), true) => {
            serve::run_traced(&args.workload, spec, args.seed, args.seconds, &mut report)
        }
        (Workload::Catalog(spec), false) => {
            catalog::run(spec, args.seed, args.seconds, &mut report)
        }
        (Workload::Catalog(spec), true) => catalog::run_traced(spec, args.seed, &mut report),
    }
    report.print();
}
