//! `qp-verify` — a dependency-free, loom-style deterministic-interleaving
//! model checker for this workspace's concurrency protocols.
//!
//! Three layers:
//!
//! * [`sync`] / [`thread`] — instrumented `Mutex` / `RwLock` / atomics /
//!   `spawn` shims, API-compatible with the `parking_lot` vendor facade.
//!   Under `--cfg qp_verify` the facade re-exports these, so production
//!   code can be model-checked without modification; outside a model run
//!   the shims delegate to `std`, so instrumented builds behave normally.
//! * the scheduler ([`explore`] / [`replay`]) — runs a model closure with
//!   every shim operation as a yield point, enumerating interleavings
//!   depth-first up to an optional preemption bound. An assertion failure
//!   on any thread (or a deadlock) stops exploration and is reported with
//!   the exact schedule, which `replay` re-executes deterministically.
//! * [`models`] — the repo-specific invariants rewritten as small checked
//!   models (no-stale-quote epoch protocol, reader-writer atomicity, the
//!   `qp_core::parallel` claim loop, pending-table bounds), each
//!   paired with a seeded-bug variant proving the checker actually catches
//!   the corresponding protocol violation.
//!
//! Run the catalog with `cargo run --release -p qp-verify` (add `--smoke`
//! for the CI-sized budget, `--replay <model> <schedule>` to reproduce a
//! printed counterexample).

mod scheduler;

pub mod models;
pub mod sync;
pub mod thread;

pub use scheduler::{explore, parse_schedule, replay, Config, Failure, Report, Tid};

#[cfg(test)]
mod tests {
    use super::sync::{AtomicU64, Mutex};
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn shims_work_outside_a_model() {
        let m = Mutex::new(3);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 4);
        let a = AtomicU64::new(1);
        a.fetch_add(2, Ordering::SeqCst);
        assert_eq!(a.load(Ordering::SeqCst), 3);
        let h = thread::spawn(|| 7);
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn explores_all_interleavings_of_two_increments() {
        // Two threads, one atomic increment each: the atomic op plus
        // start/join points gives a handful of schedules, all completing.
        let report = explore(&Config::default(), || {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let h = thread::spawn(move || {
                a2.fetch_add(1, Ordering::SeqCst);
            });
            a.fetch_add(1, Ordering::SeqCst);
            h.join().unwrap();
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.schedules >= 2, "only {} schedules", report.schedules);
        assert!(!report.truncated);
    }

    #[test]
    fn catches_unsynchronized_check_then_act() {
        // Classic lost-update: read, then write back read+1 as two separate
        // atomic ops. Some interleaving must lose an update.
        let report = explore(&Config::default(), || {
            let a = Arc::new(AtomicU64::new(0));
            let mut hs = Vec::new();
            for _ in 0..2 {
                let a = Arc::clone(&a);
                hs.push(thread::spawn(move || {
                    let v = a.load(Ordering::SeqCst);
                    a.store(v + 1, Ordering::SeqCst);
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
        });
        let failure = report.failure.expect("lost update must be found");
        assert!(failure.message.contains("lost update"), "{failure}");
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn detects_lock_order_deadlock() {
        let report = explore(&Config::default(), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop((_ga, _gb));
            h.join().unwrap();
        });
        let failure = report.failure.expect("deadlock must be found");
        assert!(failure.message.contains("deadlock"), "{failure}");
    }

    #[test]
    fn replay_reproduces_a_failure() {
        let model = || {
            let a = Arc::new(AtomicU64::new(0));
            let a2 = Arc::clone(&a);
            let h = thread::spawn(move || {
                let v = a2.load(Ordering::SeqCst);
                a2.store(v + 1, Ordering::SeqCst);
            });
            let v = a.load(Ordering::SeqCst);
            a.store(v + 1, Ordering::SeqCst);
            h.join().unwrap();
            assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
        };
        let report = explore(&Config::default(), model);
        let failure = report.failure.expect("lost update must be found");
        let replayed = replay(&failure.schedule, model).expect_err("replay must reproduce");
        assert_eq!(replayed.message, failure.message);
    }

    #[test]
    fn schedule_strings_round_trip() {
        let f = Failure {
            schedule: vec![0, 1, 1, 2, 0],
            message: "m".into(),
        };
        assert_eq!(f.schedule_string(), "0,1,1,2,0");
        assert_eq!(parse_schedule("0,1,1,2,0"), Some(vec![0, 1, 1, 2, 0]));
        assert_eq!(parse_schedule(""), Some(vec![]));
        assert_eq!(parse_schedule("1,x"), None);
    }

    #[test]
    fn preemption_bound_shrinks_the_space() {
        let model = || {
            let a = Arc::new(AtomicU64::new(0));
            let mut hs = Vec::new();
            for _ in 0..2 {
                let a = Arc::clone(&a);
                hs.push(thread::spawn(move || {
                    for _ in 0..3 {
                        a.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
        };
        let unbounded = explore(&Config::default(), model);
        let bounded = explore(
            &Config {
                max_schedules: 2_000,
                preemption_bound: Some(1),
            },
            model,
        );
        assert!(unbounded.failure.is_none());
        assert!(bounded.failure.is_none());
        assert!(
            bounded.schedules < unbounded.schedules,
            "bound {} !< unbounded {}",
            bounded.schedules,
            unbounded.schedules
        );
    }
}
