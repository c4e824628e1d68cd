//! Property-style tests for the micro-benchmark suite, run over seeded
//! case grids (the workspace carries no external test dependencies).

use mapreduce::partition::Partitioner;
use mrbench::partitioners::{AvgPartitioner, RandPartitioner, SkewPartitioner, ZipfPartitioner};
use mrbench::{DataType, KvGenerator};
use simcore::rng::SplitMix64;

fn no_keys(_: u64, _: &mut Vec<u8>) {}

/// Every partitioner conserves the record mass for any workload shape.
#[test]
fn partitioners_conserve_mass() {
    let mut rng = SplitMix64::new(0x3A55);
    for _ in 0..64 {
        let n_records = 1 + rng.next_below(49_999);
        let n_reducers = 1 + rng.next_below(63) as u32;
        let seed = rng.next_u64() as i64;
        let mut no_keys = no_keys;
        for counts in [
            AvgPartitioner.assign_counts(n_records, n_reducers, &mut no_keys),
            RandPartitioner::new(seed).assign_counts(n_records, n_reducers, &mut no_keys),
            SkewPartitioner::new(seed).assign_counts(n_records, n_reducers, &mut no_keys),
        ] {
            assert_eq!(counts.len(), n_reducers as usize);
            assert_eq!(counts.iter().sum::<u64>(), n_records);
        }
    }
}

/// MR-AVG's closed form equals the per-record loop exactly.
#[test]
fn avg_closed_form_equals_loop() {
    let mut rng = SplitMix64::new(0xA7612);
    for _ in 0..32 {
        let n_records = 1 + rng.next_below(9_999);
        let n_reducers = 1 + rng.next_below(31) as u32;
        let mut p = AvgPartitioner;
        let closed = p.assign_counts(n_records, n_reducers, &mut no_keys);
        let mut looped = vec![0u64; n_reducers as usize];
        let mut q = AvgPartitioner;
        for i in 0..n_records {
            looped[q.partition(&[], i, n_reducers) as usize] += 1;
        }
        assert_eq!(closed, looped);
    }
}

/// Every bulk `assign_counts` (AVG's closed form included) equals the
/// per-record `partition` loop it replaces, and leaves the partitioner
/// where that loop would: the next `partition` calls agree too. Record
/// counts straddle the bulk paths' lane and buffer boundaries; reducer
/// counts cover 1–64, powers of two (`nextInt`'s one-draw path) and not
/// (its rejection path), and SKEW's clamped 1/2/3.
#[test]
fn bulk_counts_equal_the_per_record_loop() {
    type Make = fn(i64) -> Box<dyn Partitioner>;
    let makes: [(&str, Make); 5] = [
        ("avg", |_| Box::new(AvgPartitioner)),
        ("rand", |s| Box::new(RandPartitioner::new(s))),
        ("skew", |s| Box::new(SkewPartitioner::new(s))),
        ("zipf-1.0", |s| Box::new(ZipfPartitioner::new(s, 1.0))),
        ("zipf-0.7", |s| Box::new(ZipfPartitioner::new(s, 0.7))),
    ];
    let mut rng = SplitMix64::new(0xB01C);
    for n_reducers in 1..=64u32 {
        let random = rng.next_below(3_000);
        for n_records in [0, 1, 3, 5, 255, 256, 257, 1_029, random] {
            let seed = rng.next_u64() as i64;
            for (name, make) in &makes {
                let mut bulk = make(seed);
                let counts = bulk.assign_counts(n_records, n_reducers, &mut no_keys);
                let mut scalar = make(seed);
                let mut looped = vec![0u64; n_reducers as usize];
                for i in 0..n_records {
                    looped[scalar.partition(&[], i, n_reducers) as usize] += 1;
                }
                assert_eq!(
                    counts, looped,
                    "{name}: seed {seed}, {n_records} records, {n_reducers} reducers"
                );
                for i in n_records..n_records + 9 {
                    assert_eq!(
                        bulk.partition(&[], i, n_reducers),
                        scalar.partition(&[], i, n_reducers),
                        "{name}: generator position after {n_records} records, \
                         {n_reducers} reducers"
                    );
                }
            }
        }
    }
}

/// MR-SKEW's head reducers dominate in the documented order for any
/// seed, once the sample is large enough for the law of large numbers.
#[test]
fn skew_orders_head_reducers() {
    let mut rng = SplitMix64::new(0x5EE1);
    for _ in 0..24 {
        let seed = rng.next_u64() as i64;
        let n_reducers = 4 + rng.next_below(28) as u32;
        let n = 200_000u64;
        let counts = SkewPartitioner::new(seed).assign_counts(n, n_reducers, &mut no_keys);
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
        for r in 3..n_reducers as usize {
            assert!(
                counts[2] > counts[r],
                "r2 {} vs tail {}",
                counts[2],
                counts[r]
            );
        }
        // Reducer 0 carries roughly half the load.
        let frac0 = counts[0] as f64 / n as f64;
        assert!((0.47..0.57).contains(&frac0), "frac0 = {frac0}");
    }
}

/// MR-RAND is reproducible per seed and near-uniform.
#[test]
fn rand_reproducible_per_seed() {
    let mut rng = SplitMix64::new(0x2A4D);
    for _ in 0..24 {
        let seed = rng.next_u64() as i64;
        let a = RandPartitioner::new(seed).assign_counts(50_000, 8, &mut no_keys);
        let b = RandPartitioner::new(seed).assign_counts(50_000, 8, &mut no_keys);
        assert_eq!(&a, &b);
        for c in &a {
            let dev = (*c as f64 - 6_250.0).abs() / 6_250.0;
            assert!(dev < 0.10, "counts {a:?}");
        }
    }
}

/// The generator's serialized records always match the wire-length
/// formula the simulator charges, for any geometry and both types.
#[test]
fn generator_wire_length_exact() {
    let mut rng = SplitMix64::new(0x3174);
    for _ in 0..128 {
        let key = 1 + rng.next_below(4095) as usize;
        let value = 1 + rng.next_below(4095) as usize;
        let reducers = 1 + rng.next_below(31) as u32;
        let ordinal = rng.next_below(1_000_000);
        let dt = if rng.next_below(2) == 0 {
            DataType::BytesWritable
        } else {
            DataType::Text
        };
        let gen = KvGenerator::new(key, value, reducers, dt);
        let mut out = Vec::new();
        gen.serialize_record(ordinal, &mut out);
        assert_eq!(out.len(), gen.key_wire_len() + gen.value_wire_len());
    }
}

/// Generated IFile streams always validate and parse back.
#[test]
fn generator_streams_round_trip() {
    let mut rng = SplitMix64::new(0x121D);
    for _ in 0..64 {
        let key = 1 + rng.next_below(255) as usize;
        let value = 1 + rng.next_below(255) as usize;
        let n = rng.next_below(200);
        let dt = if rng.next_below(2) == 0 {
            DataType::BytesWritable
        } else {
            DataType::Text
        };
        let gen = KvGenerator::new(key, value, 4, dt);
        let stream = gen.build_ifile(n);
        let mut reader = mapreduce::ifile::IFileReader::new(&stream).expect("valid crc");
        let mut count = 0u64;
        while reader.next().expect("well-formed").is_some() {
            count += 1;
        }
        assert_eq!(count, n);
    }
}
