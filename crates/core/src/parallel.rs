//! The one work-claiming primitive behind every parallel sweep.
//!
//! The pricing pipeline's parallel work is sweeps of independent indices:
//! one conflict set per buyer query, one quote per buyer in `qp-sim`, one
//! LP per LPIP threshold. [`claim`] runs them all the same way:
//!
//! * The caller builds one state per worker, so every buffer a worker
//!   uses is sized on the calling thread (and in its malloc arena).
//! * State 0 runs on the calling thread and claims indices from the front
//!   of one `parking_lot::Mutex<Range<usize>>`; it takes index 0 before
//!   any other worker starts, so the caller always does some of the work.
//! * Every other state runs on a scoped thread that claims from the back.
//!   Each claim is one critical section, so every index is worked exactly
//!   once and the workers meet wherever their speeds put them. The work
//!   closure is told the [`End`] each index came from: the front sees a
//!   prefix in increasing order, and a single back worker the rest in
//!   decreasing order.
//! * One worker, or one item, runs inline: no spawn and no lock.
//! * Should the OS refuse a thread, the other workers (the caller at
//!   least) claim its share.
//!
//! # Placement
//!
//! On Linux each spawned worker first leaves the caller's CPU for the
//! other CPUs it may use. Where the scheduler does not balance load
//! between CPUs (a cpuset with `sched_load_balance` off), a new thread
//! otherwise stays on its parent's CPU, the workers take turns, and two
//! workers are no faster than one. Where it does balance load, the move
//! only places the thread early. The move is best effort: any failure
//! leaves the thread where the scheduler put it.

use std::ops::Range;

use parking_lot::Mutex;

/// The end of the claim range an index came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Claimed by state 0, on the calling thread, in increasing order.
    Front,
    /// Claimed by a spawned worker, in decreasing order.
    Back,
}

/// How many workers the machine runs at once: the number of states the
/// callers of [`claim`] build by default.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Works every index in `0..items` exactly once, on the first
/// `min(states.len(), items)` states as the module docs describe.
///
/// # Panics
///
/// If `states` is empty while `items` is not, or if `work` panics on any
/// worker (the panic resumes on the calling thread once every worker has
/// stopped).
pub fn claim<S, F>(states: &mut [S], items: usize, work: F)
where
    S: Send,
    F: Fn(&mut S, usize, End) + Sync,
{
    let workers = states.len().min(items);
    let Some((front, backs)) = states[..workers].split_first_mut() else {
        assert!(items == 0, "{items} items need at least one state");
        return;
    };
    if backs.is_empty() {
        (0..items).for_each(|i| work(front, i, End::Front));
        return;
    }
    // Index 0 is the caller's.
    let claims: Mutex<Range<usize>> = Mutex::new(1..items);
    let (claims, work) = (&claims, &work);
    let caller_cpu = cpu::current();
    std::thread::scope(|scope| {
        // alloc: one handle per spawned worker.
        let spawned: Vec<_> = backs
            .iter_mut()
            .filter_map(|state| {
                let back = move || {
                    cpu::leave(caller_cpu);
                    loop {
                        let claimed = claims.lock().next_back();
                        let Some(i) = claimed else {
                            return;
                        };
                        work(state, i, End::Back);
                    }
                };
                std::thread::Builder::new().spawn_scoped(scope, back).ok()
            })
            .collect();
        let mut claimed = Some(0);
        while let Some(i) = claimed {
            work(front, i, End::Front);
            claimed = claims.lock().next();
        }
        for handle in spawned {
            handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
}

/// Maps `f` over `items` with [`claim`], leaving `Some(f(state, item))` at
/// every item's index in `slots`.
///
/// `slots` is cleared first; its capacity is what a caller that keeps it
/// reuses from one batch to the next (`qp-sim`'s settle fan-out does). Each
/// result is stored under a lock of its own, taken once per item.
pub fn claim_map_into<T, S, R, F>(items: &[T], states: &mut [S], f: F, slots: &mut Vec<Option<R>>)
where
    T: Sync,
    S: Send,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    slots.clear();
    slots.resize_with(items.len(), || None);
    let out = Mutex::new(&mut slots[..]);
    claim(states, items.len(), |state, i, _| {
        // The work itself runs without holding the lock.
        let result = f(state, &items[i]);
        out.lock()[i] = Some(result);
    });
}

/// Moving a spawned worker off the caller's CPU (see the module docs).
#[cfg(target_os = "linux")]
mod cpu {
    /// glibc's `cpu_set_t`: one bit per CPU, 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPU the calling thread runs on.
    pub(super) fn current() -> Option<usize> {
        // SAFETY: `sched_getcpu` takes no arguments; it returns a CPU
        // number or -1.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// Restricts the calling thread to the CPUs it may use other than
    /// `cpu`; does nothing if `cpu` is the only one.
    pub(super) fn leave(cpu: Option<usize>) {
        let Some(cpu) = cpu else {
            return;
        };
        let mut mask: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `mask` is a live `CpuSet` of `size` bytes, and pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
            return;
        }
        let Some(word) = mask.get_mut(cpu / 64) else {
            return;
        };
        *word &= !(1 << (cpu % 64));
        if mask.iter().any(|&w| w != 0) {
            // SAFETY: as above; the kernel only reads `mask`.
            unsafe { sched_setaffinity(0, size, &mask) };
        }
    }
}

/// No CPU placement outside Linux.
#[cfg(not(target_os = "linux"))]
mod cpu {
    pub(super) fn current() -> Option<usize> {
        None
    }

    pub(super) fn leave(_cpu: Option<usize>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    /// What one state saw: each index it worked, with its end and thread.
    type Log = Vec<(usize, End, ThreadId)>;

    fn run(items: usize, workers: usize) -> Vec<Log> {
        let mut states = vec![Log::new(); workers];
        claim(&mut states, items, |log, i, end| {
            log.push((i, end, thread::current().id()))
        });
        states
    }

    #[test]
    fn every_index_is_worked_exactly_once_by_a_caller_state() {
        for items in 0..=64 {
            for workers in 1..=4 {
                let logs = run(items, workers);
                let mut seen = vec![0; items];
                for (k, log) in logs.iter().enumerate() {
                    let end = if k == 0 { End::Front } else { End::Back };
                    assert!(log.iter().all(|e| e.1 == end), "state {k}: {log:?}");
                    for &(i, ..) in log {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "{items}/{workers}: {seen:?}");
                // The front walks its prefix upwards, a lone back worker
                // its suffix downwards: what LPIP's tie rule relies on.
                let front: Vec<usize> = logs[0].iter().map(|e| e.0).collect();
                assert_eq!(front, (0..front.len()).collect::<Vec<_>>());
                if workers == 2 {
                    let back: Vec<usize> = logs[1].iter().map(|e| e.0).collect();
                    assert_eq!(back, (front.len()..items).rev().collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn the_caller_does_some_of_the_work() {
        let caller = thread::current().id();
        for items in 2..=64 {
            for workers in 2..=4 {
                let logs = run(items, workers);
                assert!(!logs[0].is_empty(), "{items}/{workers}");
                assert!(logs[0].iter().all(|e| e.2 == caller));
                for log in &logs[1..] {
                    assert!(log.iter().all(|e| e.2 != caller), "{log:?}");
                }
            }
        }
    }

    /// Each thread works through one state, built once by the caller.
    #[test]
    fn per_worker_state_is_initialized_once_per_thread() {
        for workers in 2..=4 {
            let logs = run(64, workers);
            let threads: Vec<ThreadId> = logs
                .iter()
                .filter_map(|log| {
                    let first = log.first()?.2;
                    assert!(log.iter().all(|e| e.2 == first), "{log:?}");
                    Some(first)
                })
                .collect();
            for (k, t) in threads.iter().enumerate() {
                assert!(!threads[k + 1..].contains(t), "two states on {t:?}");
            }
        }
    }

    #[test]
    fn single_worker_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        for (items, workers) in [(1, 1), (1, 4), (64, 1)] {
            let logs = run(items, workers);
            assert_eq!(logs[0].len(), items);
            assert!(logs[0].iter().all(|e| e.2 == caller));
            assert!(logs[1..].iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn a_spawned_workers_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            claim(&mut [End::Front, End::Back], 64, |&mut state, _, _| {
                assert!(state == End::Front, "back worker");
                // Slow enough that the back worker claims some indices.
                thread::sleep(std::time::Duration::from_millis(1));
            })
        });
        let payload = caught.expect_err("the back worker's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"back worker"));
    }

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<Option<usize>> = items.iter().map(|x| Some(x * 3)).collect();
        let mut slots = Vec::new();
        for workers in [1, 2, 4, 16] {
            let mut states = vec![(); workers];
            claim_map_into(&items, &mut states, |_, &x| x * 3, &mut slots);
            assert_eq!(slots, expected, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let mut slots = vec![Some(1usize)];
        claim_map_into(&[], &mut [(); 8], |_, &x: &usize| x, &mut slots);
        assert!(slots.is_empty());
        claim_map_into(&[], &mut [(); 0], |_, &x: &usize| x, &mut slots);
        assert!(slots.is_empty());
    }

    #[test]
    fn claim_map_into_reuses_the_slot_buffer_across_batches() {
        let mut slots: Vec<Option<usize>> = Vec::new();
        let items: Vec<usize> = (0..64).collect();
        claim_map_into(&items, &mut [(); 4], |_, &x| x * 2, &mut slots);
        let cap = slots.capacity();
        for workers in [1, 4] {
            let mut states = vec![(); workers];
            claim_map_into(&items, &mut states, |_, &x| x, &mut slots);
            assert_eq!(slots.capacity(), cap, "steady state reallocates nothing");
            assert!(slots.iter().zip(&items).all(|(s, &x)| *s == Some(x)));
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_thread_that_leaves_a_cpu_runs_elsewhere() {
        let caller = cpu::current().unwrap();
        let elsewhere = thread::scope(|scope| {
            scope
                .spawn(|| {
                    cpu::leave(Some(caller));
                    cpu::current().unwrap()
                })
                .join()
                .unwrap()
        });
        if available_workers() > 1 {
            assert_ne!(elsewhere, caller);
        }
    }
}
