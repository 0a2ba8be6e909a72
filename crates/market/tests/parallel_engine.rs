//! Equivalence of the parallel and serial conflict engines on the paper's
//! world workload: `ParallelConflictEngine` must produce the exact same
//! hypergraph (edge by edge, bit by bit) as the serial `DeltaConflictEngine`,
//! regardless of worker count or batch interleaving.

use qp_market::{
    build_hypergraph, ConflictEngine, DeltaConflictEngine, ParallelConflictEngine, SupportConfig,
    SupportSet,
};
use qp_workloads::queries::skewed;
use qp_workloads::world::{self, WorldConfig};
use qp_workloads::Scale;

#[test]
fn parallel_and_serial_engines_build_identical_world_hypergraphs() {
    let cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&cfg);
    let workload = skewed::workload(&db, cfg.countries);
    // The first 60 queries cover every template family of the skewed
    // workload while keeping the test fast.
    let queries = &workload.queries[..60];
    let support = SupportSet::generate(&db, &SupportConfig::with_size(150));

    let serial = DeltaConflictEngine::new(&db, &support);
    let h_serial = build_hypergraph(&serial, queries);

    // 2 is the caller plus one spawned worker, the shape of a 2-CPU machine.
    for threads in [1usize, 2, 3, 8] {
        // Forced counts: `new` takes the machine's parallelism, which would
        // silently reduce this to a serial-vs-serial comparison on a
        // single-core runner.
        let parallel = ParallelConflictEngine::with_threads_forced(&db, &support, threads);
        let h_parallel = build_hypergraph(&parallel, queries);
        assert_eq!(h_serial.num_items(), h_parallel.num_items());
        assert_eq!(h_serial.num_edges(), h_parallel.num_edges());
        for i in 0..h_serial.num_edges() {
            assert_eq!(
                h_serial.edge(i).items,
                h_parallel.edge(i).items,
                "edge {i} diverges at {threads} threads"
            );
        }
        // Aggregate index queries agree too (they are derived purely from
        // the edge structure).
        assert_eq!(h_serial.max_degree(), h_parallel.max_degree());
        assert_eq!(h_serial.item_degrees(), h_parallel.item_degrees());
        assert_eq!(
            h_serial.edges_with_unique_item(),
            h_parallel.edges_with_unique_item()
        );
    }
}

#[test]
fn default_thread_count_matches_available_parallelism() {
    let cfg = WorldConfig::at_scale(Scale::Test);
    let db = world::generate(&cfg);
    let support = SupportSet::generate(&db, &SupportConfig::with_size(20));
    let engine = ParallelConflictEngine::new(&db, &support);
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    assert_eq!(engine.threads(), hw);
    assert_eq!(engine.support_size(), support.len());
}
