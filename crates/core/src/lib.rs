//! # qp-core — core data structures of the query-pricing workspace
//!
//! The whole pipeline of *Revenue Maximization for Query Pricing* operates on
//! subsets of the `n` support databases: conflict sets `C_S(Q, D)` are such
//! subsets, hyperedges of the bundle hypergraph are such subsets, and every
//! pricing algorithm unions, intersects, and counts them in its inner loops.
//! [`ItemSet`] is the one representation they all share: a compact bitset
//! over item indices (u64 blocks) with O(1) membership, popcount-based size,
//! and block-wise set algebra — `union`, `intersect`, `difference`,
//! `is_subset` — that runs at 64 items per machine word.
//!
//! Because these ops are the product's hot path (every quote builds and
//! consumes conflict sets), the crate carries the performance kernels too:
//!
//! * [`set`](ItemSet) — inline small-set representation (1–2 blocks without
//!   heap allocation, spilling transparently) plus single-block fast paths
//!   and chunked autovectorization-friendly loops;
//! * [`mod@reference`] — the scalar, allocate-per-call kernels kept as the
//!   differential-test oracle and benchmark baseline;
//! * [`ring`](RingBuffer) — the bounded overwrite-oldest buffer backing
//!   per-thread telemetry journals and other fixed-size histories;
//! * [`codec`] — CRC-32 and the little-endian byte-cursor primitives the
//!   `qp-store` WAL/snapshot record formats are framed with;
//! * [`parallel`] — the one work-claiming primitive every parallel sweep
//!   (conflict sets, `qp-sim`'s settles, LPIP's thresholds) runs on, and
//!   the placement of its workers on CPUs.

pub mod codec;
pub mod parallel;
pub mod reference;
mod ring;
mod set;

pub use ring::RingBuffer;
pub use set::{ItemSet, Iter, INLINE_BLOCKS};
