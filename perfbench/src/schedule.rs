//! Seeded inputs: a small deterministic RNG and the open-loop event
//! schedule of buyer sessions and `REPRICE` events.
//!
//! The schedule is built entirely before the timed window from `--seed`,
//! so the same seed replays the identical sequence of due times, bundles,
//! budgets and patches — over TCP, traced over TCP, and in-process.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What one scheduled event does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// A buyer session: `QUOTE` bundle `bundle`, then `PURCHASE` with
    /// `budget`.
    Session { bundle: u32, budget: f64 },
    /// A `REPRICE` broadcasting patch number `patch`.
    Reprice { patch: u32 },
}

/// One event of the open-loop schedule, due `due_ns` after the start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub due_ns: u64,
    pub action: Action,
}

/// The traffic shape of an open-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    /// Poisson session arrival rate, sessions per second.
    pub rate_per_s: f64,
    /// Length of the schedule.
    pub duration_ns: u64,
    /// Bundles are drawn uniformly from `0..bundles`.
    pub bundles: usize,
    /// Budgets are drawn uniformly from `[0, budget_max)`.
    pub budget_max: f64,
    /// A `REPRICE` follows every this many sessions (`None`: never).
    pub reprice_every: Option<u32>,
}

/// A seeded Poisson schedule: exponential inter-arrival gaps at
/// `rate_per_s`, and a `REPRICE` due together with every
/// `reprice_every`-th session. Patches are numbered in schedule order.
pub fn build(spec: &TrafficSpec, seed: u64) -> Vec<Event> {
    let mut rng = Rng::new(seed);
    let mut events =
        Vec::with_capacity((spec.rate_per_s * spec.duration_ns as f64 / 1e9) as usize + 16);
    let mut t = 0.0f64;
    let mut sessions = 0u32;
    let mut patches = 0u32;
    loop {
        // 1 - unit() lies in (0, 1], so the log is finite.
        t += -(1.0 - rng.unit()).ln() / spec.rate_per_s * 1e9;
        if t >= spec.duration_ns as f64 {
            return events;
        }
        let due_ns = t as u64;
        events.push(Event {
            due_ns,
            action: Action::Session {
                bundle: rng.below(spec.bundles) as u32,
                budget: rng.range(0.0, spec.budget_max),
            },
        });
        sessions += 1;
        if spec
            .reprice_every
            .is_some_and(|every| sessions.is_multiple_of(every))
        {
            events.push(Event {
                due_ns,
                action: Action::Reprice { patch: patches },
            });
            patches += 1;
        }
    }
}

/// The `n`-th action of the closed-loop phase: a pure function of the seed
/// and `n`, so any worker can claim any index. Every `reprice_every + 1`-th
/// claim is a `REPRICE` numbered after the open-loop patches.
pub fn closed_loop_action(spec: &TrafficSpec, seed: u64, n: u64, first_patch: u32) -> Action {
    if let Some(every) = spec.reprice_every {
        let period = u64::from(every) + 1;
        if n % period == u64::from(every) {
            return Action::Reprice {
                patch: first_patch + (n / period) as u32,
            };
        }
    }
    let mut rng = Rng::new(seed ^ n.wrapping_mul(0xD1B5_4A32_D192_ED03));
    Action::Session {
        bundle: rng.below(spec.bundles) as u32,
        budget: rng.range(0.0, spec.budget_max),
    }
}

/// Number of `REPRICE` events in a schedule.
pub fn reprices(events: &[Event]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e.action, Action::Reprice { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(reprice_every: Option<u32>) -> TrafficSpec {
        TrafficSpec {
            rate_per_s: 20_000.0,
            duration_ns: 500_000_000,
            bundles: 100,
            budget_max: 30.0,
            reprice_every,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = build(&spec(Some(1000)), 7);
        let b = build(&spec(Some(1000)), 7);
        assert_eq!(a, b);
        let c = build(&spec(Some(1000)), 8);
        assert_ne!(a, c, "another seed draws another schedule");
        for n in [0u64, 5, 1000, 1001, 123_456] {
            assert_eq!(
                closed_loop_action(&spec(Some(1000)), 7, n, 3),
                closed_loop_action(&spec(Some(1000)), 7, n, 3)
            );
        }
    }

    #[test]
    fn poisson_rate_and_reprice_cadence() {
        let events = build(&spec(Some(1000)), 11);
        let sessions = events.len() - reprices(&events);
        // 10 000 expected; a Poisson count has sd 100.
        assert!((9_500..=10_500).contains(&sessions), "{sessions} sessions");
        assert_eq!(reprices(&events), sessions / 1000);
        assert!(events.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(events.iter().all(|e| e.due_ns < 500_000_000));
        let none = build(&spec(None), 11);
        assert_eq!(reprices(&none), 0);
        // Patches are numbered in order.
        let patches: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.action {
                Action::Reprice { patch } => Some(patch),
                _ => None,
            })
            .collect();
        assert!(patches.iter().enumerate().all(|(i, &p)| p == i as u32));
    }

    #[test]
    fn closed_loop_reprices_on_cadence() {
        let s = spec(Some(4));
        let kinds: Vec<bool> = (0..10)
            .map(|n| matches!(closed_loop_action(&s, 1, n, 0), Action::Reprice { .. }))
            .collect();
        assert_eq!(
            kinds,
            [false, false, false, false, true, false, false, false, false, true]
        );
        assert_eq!(
            closed_loop_action(&s, 1, 9, 5),
            Action::Reprice { patch: 6 }
        );
    }
}
