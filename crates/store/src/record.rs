//! Encodings of WAL records and snapshots, and of the two domain types they
//! carry: [`put_pricing`]/[`take_pricing`] and [`put_patch`]/[`take_patch`]
//! are the only pricing and patch codecs in the workspace, which the
//! `qp-server` wire protocol calls as well.
//!
//! Everything here is framed with the `qp-core` codec primitives: fields are
//! little-endian, floats travel as raw `to_bits()` patterns (recovery must
//! reproduce revenue *bit-identically*, so no float is ever reformatted),
//! and every count field is sanity-checked against the bytes remaining so a
//! corrupt length cannot drive an allocation. The byte-level layout is
//! specified in `STORAGE.md` at the repository root; the round-trip tests
//! below pin it.

use qp_core::codec::{put_f64, put_u32, put_u64, ByteReader, CodecError};
use qp_pricing::algorithms::PricingPatch;
use qp_pricing::Pricing;

/// Record tags (first payload byte of a WAL frame).
const REC_SALE: u8 = 1;
const REC_DECLINE: u8 = 2;
const REC_REPRICE: u8 = 3;

/// Pricing class tags, shared by snapshots and `Replace` patches.
const PRICING_UNIFORM_BUNDLE: u8 = 0;
const PRICING_ITEM: u8 = 1;
const PRICING_XOS: u8 = 2;

/// `PricingPatch` variant tags.
const PATCH_KEEP: u8 = 0;
const PATCH_REPLACE: u8 = 1;
const PATCH_SET_UNIFORM_PRICE: u8 = 2;
const PATCH_SET_UNIFORM_WEIGHT: u8 = 3;

/// One logged event. The WAL is the authoritative sequence of every
/// revenue-relevant state change a broker shard set makes: each settle
/// (sale or decline, including pressure evictions) and each repricing.
///
/// Records carry the quote id so recovery can restore the id allocator past
/// every id ever settled, and the shard index so per-shard ledgers rebuild
/// exactly — [`LedgerSnapshot::total`] is a running sum in log order, and
/// float addition is order-sensitive, so replay must fold every sale back
/// onto the shard it originally landed on, in log order.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A settled purchase within budget: revenue was recorded.
    Sale {
        /// Quote id the buyer settled.
        quote_id: u64,
        /// Shard whose ledger recorded the sale.
        shard: u32,
        /// Conflict-set size of the quoted bundle (ledger provenance).
        bundle_len: u32,
        /// The sale price (exact bits).
        price: f64,
        /// Sim tick at which the settle landed.
        tick: u64,
    },
    /// A declined purchase (over budget) or a pressure-evicted quote.
    Decline {
        /// Quote id that was declined or evicted.
        quote_id: u64,
        /// Shard whose ledger recorded the decline.
        shard: u32,
        /// The quoted price (exact bits) — forgone revenue.
        price: f64,
        /// Sim tick of the settle, or of the eviction.
        tick: u64,
        /// True when the quote was evicted under `MAX_PENDING_QUOTES`
        /// pressure rather than declined by its buyer.
        evicted: bool,
    },
    /// A repricing applied to every shard. All patch variants are absolute
    /// (idempotent), so replaying one after a crash is always safe.
    Reprice {
        /// The patch the broadcast applied.
        patch: PricingPatch,
    },
}

impl WalRecord {
    /// Serialized payload (the CRC frame is added by the store).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(40);
        match self {
            WalRecord::Sale {
                quote_id,
                shard,
                bundle_len,
                price,
                tick,
            } => {
                buf.push(REC_SALE);
                put_u64(&mut buf, *quote_id);
                put_u32(&mut buf, *shard);
                put_u32(&mut buf, *bundle_len);
                put_f64(&mut buf, *price);
                put_u64(&mut buf, *tick);
            }
            WalRecord::Decline {
                quote_id,
                shard,
                price,
                tick,
                evicted,
            } => {
                buf.push(REC_DECLINE);
                put_u64(&mut buf, *quote_id);
                put_u32(&mut buf, *shard);
                put_f64(&mut buf, *price);
                put_u64(&mut buf, *tick);
                buf.push(u8::from(*evicted));
            }
            WalRecord::Reprice { patch } => {
                buf.push(REC_REPRICE);
                put_patch(&mut buf, patch);
            }
        }
        buf
    }

    /// Decodes one record payload, requiring exact consumption.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = ByteReader::new(payload);
        let record = match r.u8()? {
            REC_SALE => WalRecord::Sale {
                quote_id: r.u64()?,
                shard: r.u32()?,
                bundle_len: r.u32()?,
                price: r.f64()?,
                tick: r.u64()?,
            },
            REC_DECLINE => WalRecord::Decline {
                quote_id: r.u64()?,
                shard: r.u32()?,
                price: r.f64()?,
                tick: r.u64()?,
                evicted: r.bool()?,
            },
            REC_REPRICE => WalRecord::Reprice {
                patch: take_patch(&mut r)?,
            },
            other => return Err(CodecError::BadTag(other)),
        };
        r.finish()?;
        Ok(record)
    }

    /// Quote id carried by settle records (`None` for repricings).
    pub fn quote_id(&self) -> Option<u64> {
        match self {
            WalRecord::Sale { quote_id, .. } | WalRecord::Decline { quote_id, .. } => {
                Some(*quote_id)
            }
            WalRecord::Reprice { .. } => None,
        }
    }
}

/// A shard's realized sales as running totals: how many, and the revenue
/// they brought in. [`SaleTally::push`] adds each price as it is booked, in
/// WAL order, which is the same sequence of float additions `Iterator::sum`
/// makes over those prices, so the total is bit-identical to summing a list
/// of every sale while the tally stays the same size however many there are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaleTally {
    pub(crate) count: u64,
    pub(crate) revenue: f64,
}

impl Default for SaleTally {
    /// No sales. Revenue starts at `-0.0`, the identity `f64`'s `Sum` folds
    /// from, so an idle shard reports the bits a sum over no sales gives.
    fn default() -> Self {
        SaleTally {
            count: 0,
            revenue: -0.0,
        }
    }
}

impl SaleTally {
    /// Books one sale at `price` (exact bits).
    pub fn push(&mut self, price: f64) {
        self.count += 1;
        self.revenue += price;
    }

    /// Number of sales booked.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when no sale has been booked.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The full revenue state of one shard's ledger at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerSnapshot {
    /// Sales booked, as running totals.
    pub sales: SaleTally,
    /// Number of declines (buyer declines + pressure evictions).
    pub declined_count: u64,
    /// Sum of declined quote prices (exact bits).
    pub declined_total: f64,
}

/// A consistent point-in-time image of a shard set's durable state.
///
/// `wal_seq` keys the snapshot into the log: every WAL record with sequence
/// number ≤ `wal_seq` is already reflected here, and recovery replays only
/// the records after it. The pricing epoch is stored alongside so recovery
/// restores the epoch counter exactly (quote caches re-validate against it,
/// and CI asserts all shards agree on it).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Pricing epoch at snapshot time.
    pub epoch: u64,
    /// Number of WAL records reflected in this snapshot.
    pub wal_seq: u64,
    /// Next quote id the shard set would issue.
    pub next_quote_id: u64,
    /// Highest quote id evicted under pending-table pressure by a record
    /// ≤ `wal_seq` (0 when none), so a restored set still reports those
    /// quotes as expired.
    pub evicted_watermark: u64,
    /// The installed pricing function (exact bits).
    pub pricing: Pricing,
    /// Per-shard ledger state, indexed by shard.
    pub shards: Vec<LedgerSnapshot>,
}

impl Snapshot {
    /// Serialized payload (the CRC frame is added by the store).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.shards.len() * 32);
        put_u64(&mut buf, self.epoch);
        put_u64(&mut buf, self.wal_seq);
        put_u64(&mut buf, self.next_quote_id);
        put_u64(&mut buf, self.evicted_watermark);
        put_pricing(&mut buf, &self.pricing);
        put_u64(&mut buf, self.shards.len() as u64);
        for shard in &self.shards {
            put_u64(&mut buf, shard.sales.count);
            put_f64(&mut buf, shard.sales.revenue);
            put_u64(&mut buf, shard.declined_count);
            put_f64(&mut buf, shard.declined_total);
        }
        buf
    }

    /// Decodes one snapshot payload, requiring exact consumption.
    pub fn decode(payload: &[u8]) -> Result<Snapshot, CodecError> {
        let mut r = ByteReader::new(payload);
        let epoch = r.u64()?;
        let wal_seq = r.u64()?;
        let next_quote_id = r.u64()?;
        let evicted_watermark = r.u64()?;
        let pricing = take_pricing(&mut r)?;
        let num_shards = r.checked_count(32)?;
        let mut shards = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            shards.push(LedgerSnapshot {
                sales: SaleTally {
                    count: r.u64()?,
                    revenue: r.f64()?,
                },
                declined_count: r.u64()?,
                declined_total: r.f64()?,
            });
        }
        r.finish()?;
        Ok(Snapshot {
            epoch,
            wal_seq,
            next_quote_id,
            evicted_watermark,
            pricing,
            shards,
        })
    }
}

/// Bytes a snapshot spends besides its pricing's weights and its shards'
/// ledgers: four `u64` header fields, the pricing tag and weight count, and
/// the shard count.
const SNAPSHOT_FIXED_BYTES: usize = 4 * 8 + 1 + 8 + 8;

/// The most items a `SetUniformWeight` patch may name: as many 8-byte
/// weights as fit one snapshot frame beside the snapshot's fixed fields and
/// the ledgers of the most shards replay accepts. The patch expands to a
/// weight per item, so a bigger count could never be snapshotted, and
/// decoding refuses it before the shard set logs it or allocates the
/// weights.
const MAX_UNIFORM_ITEMS: u64 =
    ((crate::file::MAX_FRAME - SNAPSHOT_FIXED_BYTES - 32 * crate::MAX_REPLAY_SHARDS) / 8) as u64;

/// Appends a pricing function: class tag + parameters, floats as bits.
pub fn put_pricing(buf: &mut Vec<u8>, pricing: &Pricing) {
    match pricing {
        Pricing::UniformBundle { price } => {
            buf.push(PRICING_UNIFORM_BUNDLE);
            put_f64(buf, *price);
        }
        Pricing::Item { weights } => {
            buf.push(PRICING_ITEM);
            put_u64(buf, weights.len() as u64);
            for w in weights {
                put_f64(buf, *w);
            }
        }
        Pricing::Xos { components } => {
            buf.push(PRICING_XOS);
            put_u64(buf, components.len() as u64);
            for comp in components {
                put_u64(buf, comp.len() as u64);
                for w in comp {
                    put_f64(buf, *w);
                }
            }
        }
    }
}

/// Reads a pricing function written by [`put_pricing`].
pub fn take_pricing(r: &mut ByteReader<'_>) -> Result<Pricing, CodecError> {
    match r.u8()? {
        PRICING_UNIFORM_BUNDLE => Ok(Pricing::UniformBundle { price: r.f64()? }),
        PRICING_ITEM => {
            let n = r.checked_count(8)?;
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                weights.push(r.f64()?);
            }
            Ok(Pricing::Item { weights })
        }
        PRICING_XOS => {
            let n = r.checked_count(8)?;
            let mut components = Vec::with_capacity(n);
            for _ in 0..n {
                let m = r.checked_count(8)?;
                let mut comp = Vec::with_capacity(m);
                for _ in 0..m {
                    comp.push(r.f64()?);
                }
                components.push(comp);
            }
            Ok(Pricing::Xos { components })
        }
        other => Err(CodecError::BadTag(other)),
    }
}

/// Appends a pricing patch: variant tag + parameters.
pub fn put_patch(buf: &mut Vec<u8>, patch: &PricingPatch) {
    match patch {
        PricingPatch::Keep => buf.push(PATCH_KEEP),
        PricingPatch::Replace(pricing) => {
            buf.push(PATCH_REPLACE);
            put_pricing(buf, pricing);
        }
        PricingPatch::SetUniformPrice(price) => {
            buf.push(PATCH_SET_UNIFORM_PRICE);
            put_f64(buf, *price);
        }
        PricingPatch::SetUniformWeight { weight, num_items } => {
            buf.push(PATCH_SET_UNIFORM_WEIGHT);
            put_f64(buf, *weight);
            put_u64(buf, *num_items as u64);
        }
    }
}

/// Reads a pricing patch written by [`put_patch`]. A `SetUniformWeight`
/// over more items than one snapshot frame could price (8,126,457) is
/// [`CodecError::BadLength`].
pub fn take_patch(r: &mut ByteReader<'_>) -> Result<PricingPatch, CodecError> {
    match r.u8()? {
        PATCH_KEEP => Ok(PricingPatch::Keep),
        PATCH_REPLACE => Ok(PricingPatch::Replace(take_pricing(r)?)),
        PATCH_SET_UNIFORM_PRICE => Ok(PricingPatch::SetUniformPrice(r.f64()?)),
        PATCH_SET_UNIFORM_WEIGHT => {
            let weight = r.f64()?;
            let num_items = r.u64()?;
            if num_items > MAX_UNIFORM_ITEMS {
                return Err(CodecError::BadLength(num_items));
            }
            Ok(PricingPatch::SetUniformWeight {
                weight,
                num_items: num_items as usize,
            })
        }
        other => Err(CodecError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Sale {
                quote_id: 42,
                shard: 3,
                bundle_len: 7,
                price: 12.375,
                tick: 9,
            },
            WalRecord::Decline {
                quote_id: 43,
                shard: 0,
                price: f64::MIN_POSITIVE,
                tick: 10,
                evicted: false,
            },
            WalRecord::Decline {
                quote_id: 1,
                shard: 1,
                price: -0.0,
                tick: 0,
                evicted: true,
            },
            WalRecord::Reprice {
                patch: PricingPatch::Keep,
            },
            WalRecord::Reprice {
                patch: PricingPatch::SetUniformPrice(0.1 + 0.2),
            },
            WalRecord::Reprice {
                patch: PricingPatch::SetUniformWeight {
                    weight: 1.5,
                    num_items: 40,
                },
            },
            WalRecord::Reprice {
                patch: PricingPatch::Replace(Pricing::Xos {
                    components: vec![vec![1.0, 0.5], vec![], vec![2.0]],
                }),
            },
        ]
    }

    #[test]
    fn wal_records_round_trip_bit_exactly() {
        for record in sample_records() {
            let bytes = record.encode();
            let back = WalRecord::decode(&bytes).unwrap();
            // Compare re-encodings: byte equality is bit equality for every
            // float field, with no reliance on float PartialEq semantics.
            assert_eq!(back.encode(), bytes, "{record:?}");
        }
    }

    fn ledger(prices: &[f64], declined_count: u64, declined_total: f64) -> LedgerSnapshot {
        let mut ledger = LedgerSnapshot {
            declined_count,
            declined_total,
            ..LedgerSnapshot::default()
        };
        for &price in prices {
            ledger.sales.push(price);
        }
        ledger
    }

    fn snapshot(shards: Vec<LedgerSnapshot>) -> Snapshot {
        Snapshot {
            epoch: 17,
            wal_seq: 1005,
            next_quote_id: 4096,
            evicted_watermark: 4000,
            pricing: Pricing::Item {
                weights: vec![0.1, 0.2, 0.30000000000000004],
            },
            shards,
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let snap = snapshot(vec![
            ledger(&[5.5, 0.125], 3, 11.25),
            LedgerSnapshot::default(),
        ]);
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.evicted_watermark, 4000);
        assert_eq!(back.shards.len(), 2);
        assert_eq!(back.shards[0].sales.len(), 2);
        assert_eq!(back.shards[0].total().to_bits(), 5.625f64.to_bits());
        // An idle shard keeps the `-0.0` of an empty sum through the codec.
        assert_eq!(back.shards[1].total().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn snapshot_size_does_not_grow_with_sales() {
        let idle = snapshot(vec![LedgerSnapshot::default(); 4]);
        let prices: Vec<f64> = (0..100_000).map(|i| f64::from(i) * 0.25).collect();
        let busy = snapshot(vec![ledger(&prices, 7, 3.5); 4]);
        assert_eq!(busy.shards[0].sales.len(), 100_000);
        assert_eq!(idle.encode().len(), busy.encode().len());
    }

    #[test]
    fn decode_rejects_bad_tags_truncation_and_trailing_bytes() {
        assert_eq!(WalRecord::decode(&[99]), Err(CodecError::BadTag(99)));
        let mut bytes = sample_records()[0].encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(WalRecord::decode(&bytes), Err(CodecError::Truncated));
        let mut bytes = sample_records()[0].encode();
        bytes.push(0);
        assert_eq!(WalRecord::decode(&bytes), Err(CodecError::Trailing));
        // Decline's evicted flag must be 0 or 1.
        let mut bytes = sample_records()[1].encode();
        let last = bytes.len() - 1;
        bytes[last] = 7;
        assert_eq!(WalRecord::decode(&bytes), Err(CodecError::BadTag(7)));
    }

    #[test]
    fn uniform_weight_patches_are_capped_at_one_snapshot_frame() {
        // A snapshot is its fixed fields, 8 bytes per weight and 32 per
        // shard, so the cap's Item pricing fits one frame at the most
        // shards replay accepts.
        for (weights, shards) in [(0, 0), (3, 1), (5, 4)] {
            let snap = Snapshot {
                epoch: 1,
                wal_seq: 0,
                next_quote_id: 0,
                evicted_watermark: 0,
                pricing: Pricing::Item {
                    weights: vec![1.0; weights],
                },
                shards: vec![LedgerSnapshot::default(); shards],
            };
            assert_eq!(
                snap.encode().len(),
                SNAPSHOT_FIXED_BYTES + 8 * weights + 32 * shards
            );
        }
        assert_eq!(MAX_UNIFORM_ITEMS, 8_126_457);
        let largest = SNAPSHOT_FIXED_BYTES as u64
            + 8 * MAX_UNIFORM_ITEMS
            + 32 * crate::MAX_REPLAY_SHARDS as u64;
        assert!(largest <= crate::file::MAX_FRAME as u64);
        assert!(largest + 8 > crate::file::MAX_FRAME as u64);

        for (num_items, ok) in [(MAX_UNIFORM_ITEMS, true), (MAX_UNIFORM_ITEMS + 1, false)] {
            let mut buf = Vec::new();
            put_patch(
                &mut buf,
                &PricingPatch::SetUniformWeight {
                    weight: 1.0,
                    num_items: num_items as usize,
                },
            );
            let got = take_patch(&mut ByteReader::new(&buf));
            assert_eq!(got.is_ok(), ok, "{num_items}: {got:?}");
        }
    }

    #[test]
    fn corrupt_counts_do_not_allocate() {
        // An Item pricing claiming 2^61 weights inside a 41-byte snapshot.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1); // epoch
        put_u64(&mut buf, 0); // wal_seq
        put_u64(&mut buf, 0); // next_quote_id
        put_u64(&mut buf, 0); // evicted_watermark
        buf.push(super::PRICING_ITEM);
        put_u64(&mut buf, 1 << 61);
        assert!(matches!(
            Snapshot::decode(&buf),
            Err(CodecError::BadLength(_))
        ));
    }
}
