//! Synthetic key/value generation.
//!
//! The suite's map tasks fabricate their intermediate data in memory
//! (paper Sect. 4.1): a user-specified number of key/value pairs of
//! user-specified sizes and type. To avoid any additional overhead the
//! number of *unique* pairs is restricted to the number of reducers
//! (Sect. 4.2) — key content is a pure function of `ordinal % reducers`.
//!
//! The generator produces *real* serialized records through the engine's
//! `Writable` implementations; [`KvGenerator::record_wire_len`] is the
//! exact byte count the simulator charges per record, and tests verify
//! the two agree.

use mapreduce::ifile;
use mapreduce::io::writable::{BytesWritable, Text, Writable};
use mapreduce::io::DataType;

/// Generates the synthetic records of one map task.
#[derive(Clone, Debug)]
pub struct KvGenerator {
    key_size: usize,
    value_size: usize,
    n_reducers: u32,
    data_type: DataType,
}

impl KvGenerator {
    /// Generator for keys/values of the given payload sizes and type.
    pub fn new(key_size: usize, value_size: usize, n_reducers: u32, data_type: DataType) -> Self {
        assert!(n_reducers > 0, "need at least one reducer");
        KvGenerator {
            key_size,
            value_size,
            n_reducers,
            data_type,
        }
    }

    /// Generator matching a job spec.
    #[cfg(test)]
    pub fn for_spec(spec: &mapreduce::job::JobSpec) -> Self {
        KvGenerator::new(
            spec.key_size,
            spec.value_size,
            spec.conf.num_reduces,
            spec.data_type,
        )
    }

    /// Fill `buf` with the key payload of record `ordinal` (the unique-id
    /// pattern the suite uses: content repeats every `n_reducers`
    /// records).
    pub fn key_payload(&self, ordinal: u64, buf: &mut Vec<u8>) {
        buf.clear();
        let uid = ordinal % u64::from(self.n_reducers);
        fill_payload(uid, self.key_size, self.data_type, buf);
    }

    /// Fill `buf` with the value payload of record `ordinal`.
    pub fn value_payload(&self, ordinal: u64, buf: &mut Vec<u8>) {
        buf.clear();
        let uid = ordinal % u64::from(self.n_reducers);
        // Values reuse the key pattern shifted, as the suite only cares
        // about sizes, not content.
        fill_payload(
            uid.wrapping_add(0x9E37),
            self.value_size,
            self.data_type,
            buf,
        );
    }

    /// Serialize record `ordinal` exactly as the map output collector
    /// would (Writable framing, no IFile framing).
    pub fn serialize_record(&self, ordinal: u64, out: &mut Vec<u8>) {
        let mut k = Vec::new();
        let mut v = Vec::new();
        self.key_payload(ordinal, &mut k);
        self.value_payload(ordinal, &mut v);
        match self.data_type {
            DataType::BytesWritable => {
                BytesWritable::new(k).write(out);
                BytesWritable::new(v).write(out);
            }
            DataType::Text => {
                Text::new(String::from_utf8(k).expect("ascii payload")).write(out);
                Text::new(String::from_utf8(v).expect("ascii payload")).write(out);
            }
        }
    }

    /// Exact wire length of one serialized key (Writable framing
    /// included).
    pub fn key_wire_len(&self) -> usize {
        self.data_type.wire_len(self.key_size)
    }

    /// Exact wire length of one serialized value.
    pub fn value_wire_len(&self) -> usize {
        self.data_type.wire_len(self.value_size)
    }

    /// Exact IFile bytes of one record — the unit the simulator charges.
    pub fn record_wire_len(&self) -> u64 {
        ifile::record_len(self.key_wire_len(), self.value_wire_len())
    }

    /// Build a real IFile stream of `n` records (for tests and examples;
    /// not used on the simulation hot path).
    pub fn build_ifile(&self, n: u64) -> Vec<u8> {
        let mut w = ifile::IFileWriter::new();
        let mut k = Vec::new();
        let mut v = Vec::new();
        let mut kw = Vec::new();
        let mut vw = Vec::new();
        for ordinal in 0..n {
            self.key_payload(ordinal, &mut k);
            self.value_payload(ordinal, &mut v);
            kw.clear();
            vw.clear();
            match self.data_type {
                DataType::BytesWritable => {
                    BytesWritable::new(k.clone()).write(&mut kw);
                    BytesWritable::new(v.clone()).write(&mut vw);
                }
                DataType::Text => {
                    Text::new(String::from_utf8(k.clone()).expect("ascii")).write(&mut kw);
                    Text::new(String::from_utf8(v.clone()).expect("ascii")).write(&mut vw);
                }
            }
            w.append(&kw, &vw);
        }
        w.close()
    }
}

/// Deterministic payload fill. `Text` payloads stay ASCII so they are
/// valid UTF-8; `BytesWritable` uses the full byte range.
fn fill_payload(uid: u64, size: usize, data_type: DataType, buf: &mut Vec<u8>) {
    buf.reserve(size);
    let seed = uid.to_be_bytes();
    match data_type {
        DataType::BytesWritable => {
            for i in 0..size {
                let b = seed[i % 8] ^ (i as u8).wrapping_mul(31);
                buf.push(b);
            }
        }
        DataType::Text => {
            for i in 0..size {
                let b = seed[i % 8] ^ (i as u8).wrapping_mul(31);
                buf.push(b'a' + (b % 26));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_keys_repeat_every_n_reducers() {
        let g = KvGenerator::new(64, 64, 8, DataType::BytesWritable);
        let mut a = Vec::new();
        let mut b = Vec::new();
        g.key_payload(3, &mut a);
        g.key_payload(11, &mut b);
        assert_eq!(a, b);
        g.key_payload(4, &mut b);
        assert_ne!(a, b);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn serialized_record_matches_simulator_charge() {
        for dt in DataType::ALL {
            for (ks, vs) in [(10, 100), (1024, 1024), (100, 100), (10240, 10240)] {
                let g = KvGenerator::new(ks, vs, 8, dt);
                let mut out = Vec::new();
                g.serialize_record(0, &mut out);
                // Writable framing only; add IFile vints for the full
                // record length.
                let expect = g.key_wire_len() + g.value_wire_len();
                assert_eq!(out.len(), expect, "{dt} {ks}/{vs}");
            }
        }
    }

    #[test]
    fn ifile_stream_len_matches_formula() {
        let g = KvGenerator::new(100, 1000, 4, DataType::BytesWritable);
        let stream = g.build_ifile(25);
        assert_eq!(
            stream.len() as u64,
            ifile::stream_len(25, g.key_wire_len(), g.value_wire_len())
        );
        // And it reads back.
        let mut r = ifile::IFileReader::new(&stream).unwrap();
        let mut n = 0;
        while r.next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 25);
    }

    #[test]
    fn text_payloads_are_utf8() {
        let g = KvGenerator::new(333, 777, 5, DataType::Text);
        let mut k = Vec::new();
        g.key_payload(2, &mut k);
        assert!(std::str::from_utf8(&k).is_ok());
        assert_eq!(k.len(), 333);
        let mut out = Vec::new();
        g.serialize_record(2, &mut out); // would panic on invalid UTF-8
    }

    #[test]
    fn spec_roundtrip_consistency() {
        let spec = mapreduce::job::JobSpec::default();
        let g = KvGenerator::for_spec(&spec);
        assert_eq!(g.record_wire_len(), spec.record_ifile_len());
    }
}
