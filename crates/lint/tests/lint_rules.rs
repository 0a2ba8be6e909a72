//! qp-lint acceptance tests: each rule fires exactly where the fixtures
//! seed a violation (and nowhere else), and the real workspace is clean.

use qp_lint::{lint_source, lint_workspace, Violation};
use std::path::Path;

/// (rule, line) pairs of `violations`, sorted.
fn fired(violations: &[Violation]) -> Vec<(&'static str, usize)> {
    let mut v: Vec<_> = violations.iter().map(|x| (x.rule, x.line)).collect();
    v.sort();
    v
}

#[test]
fn std_sync_rule_fires_exactly_where_seeded() {
    let src = include_str!("fixtures/std_sync.rs");
    let v = lint_source("crates/market/src/fixture.rs", src);
    assert_eq!(
        fired(&v),
        vec![
            ("std-sync", 4),
            ("std-sync", 5),
            ("std-sync", 6),
            ("std-sync", 13),
        ]
    );
}

#[test]
fn std_sync_rule_exempts_the_checker_crate() {
    let src = include_str!("fixtures/std_sync.rs");
    assert!(lint_source("crates/verify/src/fixture.rs", src).is_empty());
}

#[test]
fn ordering_rule_fires_exactly_where_seeded() {
    let src = include_str!("fixtures/ordering.rs");
    let v = lint_source("crates/market/src/fixture.rs", src);
    assert_eq!(
        fired(&v),
        vec![("ordering-comment", 8), ("ordering-comment", 16)]
    );
}

#[test]
fn unwrap_rule_fires_only_on_server_request_paths() {
    let src = include_str!("fixtures/unwrap_server.rs");
    let v = lint_source("crates/server/src/fixture.rs", src);
    assert_eq!(
        fired(&v),
        vec![("unwrap-in-server", 6), ("unwrap-in-server", 7)]
    );
    // The same source is fine outside qp-server, in the loadgen transport,
    // and in CLI binaries.
    assert!(lint_source("crates/market/src/fixture.rs", src).is_empty());
    assert!(lint_source("crates/server/src/transport.rs", src).is_empty());
    assert!(lint_source("crates/server/src/bin/loadgen.rs", src).is_empty());
}

#[test]
fn float_eq_rule_fires_exactly_where_seeded() {
    let src = include_str!("fixtures/float_eq.rs");
    let v = lint_source("crates/qdb/src/fixture.rs", src);
    assert_eq!(fired(&v), vec![("float-eq", 4), ("float-eq", 12)]);
}

#[test]
fn alloc_kernel_rule_fires_exactly_where_seeded() {
    let src = include_str!("fixtures/alloc_kernel.rs");
    // As a kernel module: unjustified allocations fire; `// alloc:`
    // comments (same line or directly above), type-annotated collects,
    // non-Vec `::new()`s, and test code stay quiet.
    let v = lint_source("crates/core/src/set.rs", src);
    assert_eq!(
        fired(&v),
        vec![
            ("alloc-in-kernel", 4),
            ("alloc-in-kernel", 10),
            ("alloc-in-kernel", 11),
        ]
    );
    for kernel in [
        "crates/pricing/src/algorithms/incremental.rs",
        "crates/lp/src/simplex.rs",
        "crates/lp/src/kernel.rs",
        "crates/pricing/src/algorithms/lpip.rs",
        "crates/core/src/parallel.rs",
    ] {
        let v = lint_source(kernel, src);
        assert_eq!(fired(&v).len(), 3, "{kernel} is a kernel module");
    }
    // The same source is fine anywhere outside the kernel modules.
    assert!(lint_source("crates/core/src/arena.rs", src).is_empty());
    assert!(lint_source("crates/market/src/broker.rs", src).is_empty());
    assert!(lint_source("crates/pricing/src/algorithms/cip.rs", src).is_empty());
}

#[test]
fn unsafe_rule_fires_exactly_where_seeded() {
    let src = include_str!("fixtures/unsafe_safety.rs");
    let v = lint_source("crates/lp/src/fixture.rs", src);
    assert_eq!(
        fired(&v),
        vec![
            ("unsafe-safety", 5),
            ("unsafe-safety", 11),
            ("unsafe-safety", 14),
            ("unsafe-safety", 19),
        ]
    );
    // Every crate's source is in scope, the CPU placement's FFI module
    // included; tests are not.
    assert_eq!(lint_source("crates/server/src/fixture.rs", src).len(), 4);
    assert_eq!(lint_source("crates/core/src/parallel.rs", src).len(), 4);
    assert!(lint_source("crates/lp/tests/fixture.rs", src).is_empty());
}

#[test]
fn epoch_rule_respects_the_broker_write_lock_region() {
    let src = include_str!("fixtures/epoch.rs");
    // As broker.rs: the mutation after pricing.write() is legal.
    let v = lint_source("crates/market/src/broker.rs", src);
    assert_eq!(
        fired(&v),
        vec![("epoch-outside-lock", 8), ("epoch-outside-lock", 21)]
    );
    // As any other file: every epoch mutation fires.
    let v = lint_source("crates/sim/src/fixture.rs", src);
    assert_eq!(
        fired(&v),
        vec![
            ("epoch-outside-lock", 8),
            ("epoch-outside-lock", 17),
            ("epoch-outside-lock", 21),
        ]
    );
}

#[test]
fn wallclock_rule_fires_outside_telemetry_and_bench() {
    let src = include_str!("fixtures/wallclock.rs");
    let v = lint_source("crates/sim/src/fixture.rs", src);
    assert_eq!(fired(&v), vec![("wallclock", 5), ("wallclock", 9)]);
    // The telemetry crate, the bench harnesses, and CLI binaries own
    // their clocks.
    assert!(lint_source("crates/telemetry/src/histogram.rs", src).is_empty());
    assert!(lint_source("crates/bench/src/fixture.rs", src).is_empty());
    assert!(lint_source("crates/server/src/bin/loadgen.rs", src).is_empty());
}

#[test]
fn out_of_scope_paths_are_ignored() {
    let src = include_str!("fixtures/std_sync.rs");
    assert!(lint_source("vendor/parking_lot/src/lib.rs", src).is_empty());
    assert!(lint_source("crates/server/tests/races.rs", src).is_empty());
    assert!(lint_source("crates/server/src/notes.md", src).is_empty());
}

#[test]
fn real_workspace_is_clean() {
    // CARGO_MANIFEST_DIR = crates/lint; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let violations = lint_workspace(root).expect("lint run");
    assert!(
        violations.is_empty(),
        "workspace not lint-clean:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
