//! Golden bytes of the durable record formats. Each case pins the exact
//! payload a `WalRecord` or `Snapshot` encodes to, so a change to a shared
//! encoder that would alter what is on disk fails here, and the pinned
//! bytes still decode to the same value.

use qp_pricing::algorithms::PricingPatch;
use qp_pricing::Pricing;
use qp_store::{LedgerSnapshot, Snapshot, WalRecord};

/// Parses a golden hex string, ignoring whitespace.
fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn golden_records() -> Vec<(WalRecord, &'static str)> {
    vec![
        (
            WalRecord::Sale {
                quote_id: 42,
                shard: 3,
                bundle_len: 7,
                price: 12.375,
                tick: 9,
            },
            "01 2a00000000000000 03000000 07000000 0000000000c02840 0900000000000000",
        ),
        (
            WalRecord::Decline {
                quote_id: 43,
                shard: 1,
                price: 0.1 + 0.2,
                tick: 10,
                evicted: true,
            },
            "02 2b00000000000000 01000000 343333333333d33f 0a00000000000000 01",
        ),
        (
            WalRecord::Reprice {
                patch: PricingPatch::Keep,
            },
            "03 00",
        ),
        (
            WalRecord::Reprice {
                patch: PricingPatch::SetUniformPrice(-0.0),
            },
            "03 02 0000000000000080",
        ),
        (
            WalRecord::Reprice {
                patch: PricingPatch::SetUniformWeight {
                    weight: 1.5,
                    num_items: 40,
                },
            },
            "03 03 000000000000f83f 2800000000000000",
        ),
        (
            WalRecord::Reprice {
                patch: PricingPatch::Replace(Pricing::UniformBundle { price: 9.0 }),
            },
            "03 01 00 0000000000002240",
        ),
        (
            WalRecord::Reprice {
                patch: PricingPatch::Replace(Pricing::Item {
                    weights: vec![0.25, 3.0],
                }),
            },
            "03 01 01 0200000000000000 000000000000d03f 0000000000000840",
        ),
        (
            WalRecord::Reprice {
                patch: PricingPatch::Replace(Pricing::Xos {
                    components: vec![vec![1.0, 0.5], vec![], vec![2.0]],
                }),
            },
            "03 01 02 0300000000000000 0200000000000000 000000000000f03f 000000000000e03f 0000000000000000 0100000000000000 0000000000000040",
        ),
    ]
}

#[test]
fn wal_records_encode_to_their_golden_bytes() {
    for (record, golden) in golden_records() {
        assert_eq!(record.encode(), unhex(golden), "{record:?}");
        assert_eq!(WalRecord::decode(&unhex(golden)).unwrap(), record);
    }
}

#[test]
fn snapshot_encodes_to_its_golden_bytes() {
    let mut busy = LedgerSnapshot {
        declined_count: 3,
        declined_total: 11.25,
        ..LedgerSnapshot::default()
    };
    busy.sales.push(5.5);
    busy.sales.push(0.125);
    let snapshot = Snapshot {
        epoch: 17,
        wal_seq: 1005,
        next_quote_id: 4096,
        evicted_watermark: 4000,
        pricing: Pricing::Xos {
            components: vec![vec![0.1, 0.2], vec![4.0]],
        },
        shards: vec![busy, LedgerSnapshot::default()],
    };
    let golden = "
        1100000000000000 ed03000000000000 0010000000000000 a00f000000000000
        02 0200000000000000
           0200000000000000 9a9999999999b93f 9a9999999999c93f
           0100000000000000 0000000000001040
        0200000000000000
        0200000000000000 0000000000801640 0300000000000000 0000000000802640
        0000000000000000 0000000000000080 0000000000000000 0000000000000000
    ";
    assert_eq!(snapshot.encode(), unhex(golden));
    assert_eq!(Snapshot::decode(&unhex(golden)).unwrap(), snapshot);
}
