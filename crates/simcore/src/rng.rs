//! Deterministic random number generation.
//!
//! Three generators live here:
//!
//! * [`SplitMix64`] — the canonical 64-bit mixer; used to derive seeds and
//!   for cheap internal randomness.
//! * [`Xoshiro256pp`] — a high-quality general-purpose generator used by
//!   workload synthesis.
//! * [`JavaRandom`] — a bit-exact port of `java.util.Random`'s 48-bit
//!   linear congruential generator. The paper's MR-RAND micro-benchmark
//!   picks reducers with Java's `Random`, and notes that its limited range
//!   makes runs reproducible; this port preserves that behaviour exactly.
//!   A bulk fill of its raw states over exact jump-ahead lanes serves the
//!   per-record partitioners; [`JavaDraws`] hands those states out one
//!   draw at a time.
//!
//! All generators are plain state machines: no global state, no OS entropy,
//! so the whole simulation is a pure function of its master seed.

/// SplitMix64 (Steele, Lea, Flood 2014). Passes BigCrush when used as a
/// stream; primarily used here to expand one master seed into independent
/// per-component seeds.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`. `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna). General-purpose workhorse.
#[derive(Clone, Debug)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64, as the authors recommend.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Simple rejection from the top 64 bits; bias is negligible for the
        // small bounds used by workloads, but keep it exact anyway.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Fill `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

const JAVA_MULTIPLIER: i64 = 0x5DEECE66D;
const JAVA_ADDEND: i64 = 0xB;
const JAVA_MASK: i64 = (1 << 48) - 1;

/// Bit-exact reimplementation of `java.util.Random`.
///
/// The MR-RAND partitioner in the paper calls
/// `new Random().nextInt(numReducers)`; this type reproduces the exact
/// Java semantics, including the power-of-two fast path and the rejection
/// loop of `nextInt(int)`.
///
/// Besides the scalar API it exposes the raw 48-bit states behind the
/// draws: [`JavaRandom::fill_states`] computes the next states in bulk
/// over interleaved lanes, landing on exactly the states the scalar loop
/// would.
#[derive(Clone, Debug)]
pub struct JavaRandom {
    seed: i64,
}

/// Interleaved lanes [`JavaRandom::fill_states`] steps at once.
const JAVA_LANES: usize = 4;

/// The affine map of `k` LCG steps, `x -> a_k * x + c_k (mod 2^48)`, as
/// `(a_k, c_k)`, composed by repeated doubling in `O(log k)`.
fn java_jump_coeffs(mut k: u64) -> (u64, u64) {
    let mask = JAVA_MASK as u64;
    let (mut acc_a, mut acc_c) = (1u64, 0u64);
    let (mut a, mut c) = (JAVA_MULTIPLIER as u64, JAVA_ADDEND as u64);
    while k > 0 {
        if k & 1 == 1 {
            acc_a = acc_a.wrapping_mul(a) & mask;
            acc_c = acc_c.wrapping_mul(a).wrapping_add(c) & mask;
        }
        // Square the step: (a, c) applied twice is (a^2, (a + 1) c).
        c = a.wrapping_add(1).wrapping_mul(c) & mask;
        a = a.wrapping_mul(a) & mask;
        k >>= 1;
    }
    (acc_a, acc_c)
}

impl JavaRandom {
    /// Equivalent to `new java.util.Random(seed)`.
    pub fn new(seed: i64) -> Self {
        JavaRandom {
            seed: (seed ^ JAVA_MULTIPLIER) & JAVA_MASK,
        }
    }

    /// What `next(bits)` returns for the draw that stepped the generator
    /// to the raw 48-bit `state`: its top `bits` bits.
    #[inline]
    fn state_bits(state: u64, bits: u32) -> i32 {
        (state >> (48 - bits)) as i32
    }

    fn next(&mut self, bits: u32) -> i32 {
        self.seed = self
            .seed
            .wrapping_mul(JAVA_MULTIPLIER)
            .wrapping_add(JAVA_ADDEND)
            & JAVA_MASK;
        Self::state_bits(self.seed as u64, bits)
    }

    /// Fill `out` with the raw 48-bit states of the next `out.len()`
    /// draws, in draw order, leaving the generator at the last of them —
    /// exactly where `out.len()` scalar draws leave it. A state's top
    /// `bits` bits are what Java's `next(bits)` returned for that draw.
    ///
    /// The serial LCG chain is split into four interleaved lanes, each
    /// stepped by the four-step map `(a^4, c_4)`, so four independent
    /// multiplies are in flight instead of one.
    pub fn fill_states(&mut self, out: &mut [u64]) {
        let mask = JAVA_MASK as u64;
        let (a, c) = (JAVA_MULTIPLIER as u64, JAVA_ADDEND as u64);
        let (a4, c4) = java_jump_coeffs(JAVA_LANES as u64);
        // The lanes run unmasked: the low 48 bits of a 64-bit product
        // depend only on the low 48 bits of its factors, so masking once
        // per output is exact and keeps the masks off the chains.
        let mut lanes = [0u64; JAVA_LANES];
        let mut s = self.seed as u64;
        for lane in &mut lanes {
            s = a.wrapping_mul(s).wrapping_add(c) & mask;
            *lane = s;
        }
        let mut chunks = out.chunks_exact_mut(JAVA_LANES);
        for chunk in &mut chunks {
            for (o, lane) in chunk.iter_mut().zip(&mut lanes) {
                *o = *lane & mask;
                *lane = a4.wrapping_mul(*lane).wrapping_add(c4);
            }
        }
        let rem = chunks.into_remainder();
        for (o, lane) in rem.iter_mut().zip(&lanes) {
            *o = *lane & mask;
        }
        if let Some(&last) = out.last() {
            self.seed = last as i64;
        }
    }

    /// Equivalent to `nextInt()`.
    pub fn next_int(&mut self) -> i32 {
        self.next(32)
    }

    /// Equivalent to `nextInt(bound)`; panics if `bound <= 0` exactly as
    /// Java throws `IllegalArgumentException`.
    pub fn next_int_bound(&mut self, bound: i32) -> i32 {
        java_int_bound(bound, || self.next(31))
    }

    /// Equivalent to `nextLong()`.
    pub fn next_long(&mut self) -> i64 {
        ((self.next(32) as i64) << 32).wrapping_add(self.next(32) as i64)
    }

    /// Equivalent to `nextDouble()`.
    pub fn next_double(&mut self) -> f64 {
        let high = self.next(26);
        java_double(high, self.next(27))
    }

    /// Equivalent to `nextBoolean()`.
    pub fn next_boolean(&mut self) -> bool {
        self.next(1) != 0
    }
}

/// `nextInt(bound)` over a source of `next(31)` draws: Java's
/// power-of-two fast path (one draw) and its rejection loop.
#[inline]
fn java_int_bound(bound: i32, mut next31: impl FnMut() -> i32) -> i32 {
    assert!(bound > 0, "bound must be positive");
    if (bound & -bound) == bound {
        // Power of two: take high bits.
        return (((bound as i64).wrapping_mul(next31() as i64)) >> 31) as i32;
    }
    loop {
        let bits = next31();
        let val = bits % bound;
        if bits.wrapping_sub(val).wrapping_add(bound - 1) >= 0 {
            return val;
        }
    }
}

/// `nextDouble()` from its `next(26)` and `next(27)` draws. The 53-bit
/// sum converts to `f64` exactly.
#[inline]
fn java_double(high26: i32, low27: i32) -> f64 {
    (((high26 as i64) << 27) + low27 as i64) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Raw states buffered per [`JavaDraws`] refill.
const JAVA_DRAW_BUF: usize = 256;

/// A cursor over a [`JavaRandom`]'s draws for consumers that take a
/// varying number of draws per item (`nextInt(bound)`'s rejection loop,
/// `nextDouble`'s two draws). It fills raw states in bulk with
/// [`JavaRandom::fill_states`] and hands them out one at a time. When
/// the cursor is dropped it resets the generator to the last state it
/// handed out, so the generator ends exactly where the same scalar calls
/// would have left it.
#[derive(Debug)]
pub struct JavaDraws<'a> {
    rng: &'a mut JavaRandom,
    buf: [u64; JAVA_DRAW_BUF],
    pos: usize,
}

impl<'a> JavaDraws<'a> {
    /// A cursor starting at `rng`'s next draw.
    pub fn new(rng: &'a mut JavaRandom) -> Self {
        JavaDraws {
            rng,
            buf: [0; JAVA_DRAW_BUF],
            pos: JAVA_DRAW_BUF,
        }
    }

    /// The raw 48-bit state of the next draw.
    #[inline]
    pub fn next_state(&mut self) -> u64 {
        if self.pos == JAVA_DRAW_BUF {
            self.rng.fill_states(&mut self.buf);
            self.pos = 0;
        }
        let state = self.buf[self.pos];
        self.pos += 1;
        state
    }

    /// Pass the raw states of the next `n` draws to `f`, in draw order:
    /// the states `n` calls of [`JavaDraws::next_state`] return, walked a
    /// buffer at a time so the per-draw refill check leaves the loop.
    #[inline]
    pub fn for_each_state(&mut self, mut n: u64, mut f: impl FnMut(u64)) {
        while n > 0 {
            if self.pos == JAVA_DRAW_BUF {
                self.rng.fill_states(&mut self.buf);
                self.pos = 0;
            }
            let take = n.min((JAVA_DRAW_BUF - self.pos) as u64) as usize;
            for &state in &self.buf[self.pos..self.pos + take] {
                f(state);
            }
            self.pos += take;
            n -= take as u64;
        }
    }

    /// Equivalent to [`JavaRandom::next_int_bound`].
    #[inline]
    pub fn next_int_bound(&mut self, bound: i32) -> i32 {
        java_int_bound(bound, || JavaRandom::state_bits(self.next_state(), 31))
    }

    /// Equivalent to [`JavaRandom::next_double`].
    #[inline]
    pub fn next_double(&mut self) -> f64 {
        let high = JavaRandom::state_bits(self.next_state(), 26);
        java_double(high, JavaRandom::state_bits(self.next_state(), 27))
    }
}

impl Drop for JavaDraws<'_> {
    fn drop(&mut self) {
        // A scalar draw leaves the generator at its own state. With the
        // buffer fully handed out (or never filled) it is already there.
        if self.pos < JAVA_DRAW_BUF {
            self.rng.seed = self.buf[self.pos - 1] as i64;
        }
    }
}

/// Derives independent, labelled random streams from one master seed, so
/// adding a consumer never perturbs the randomness other components see.
#[derive(Clone, Debug)]
pub struct SeedFactory {
    master: u64,
}

impl SeedFactory {
    /// Create a factory for `master` seed.
    pub fn new(master: u64) -> Self {
        SeedFactory { master }
    }

    /// The seed for the stream identified by `label`.
    pub fn seed_for(&self, label: &str) -> u64 {
        // FNV-1a over the label, mixed with the master through SplitMix64.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut sm = SplitMix64::new(self.master ^ h);
        sm.next_u64()
    }

    /// A ready-made xoshiro stream for `label`.
    pub fn stream(&self, label: &str) -> Xoshiro256pp {
        Xoshiro256pp::new(self.seed_for(label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn java_random_known_vectors() {
        // Values cross-checked against OpenJDK's java.util.Random.
        let mut r = JavaRandom::new(0);
        assert_eq!(r.next_int(), -1155484576);
        assert_eq!(r.next_int(), -723955400);
        let mut r = JavaRandom::new(42);
        assert_eq!(r.next_int(), -1170105035);
        let mut r = JavaRandom::new(0);
        r.next_int();
        r.next_int();
        // nextLong consumes two next(32) calls.
        let mut r2 = JavaRandom::new(0);
        let l = r2.next_long();
        assert_eq!(l, (-1155484576i64 << 32).wrapping_add(-723955400i64));
        let _ = r;
    }

    #[test]
    fn java_next_int_bound_range() {
        let mut r = JavaRandom::new(123456789);
        for bound in [1, 2, 3, 7, 8, 10, 16, 100] {
            for _ in 0..1000 {
                let v = r.next_int_bound(bound);
                assert!((0..bound).contains(&v), "v={v} bound={bound}");
            }
        }
    }

    #[test]
    fn java_next_int_bound_reasonably_uniform() {
        let mut r = JavaRandom::new(7);
        let bound = 8;
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.next_int_bound(bound) as usize] += 1;
        }
        let expect = n as f64 / bound as f64;
        for c in counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.05,
                "counts={counts:?}"
            );
        }
    }

    #[test]
    fn java_next_double_in_unit_interval() {
        let mut r = JavaRandom::new(99);
        for _ in 0..10_000 {
            let d = r.next_double();
            assert!((0.0..1.0).contains(&d));
        }
    }

    /// The state after each of `n` scalar draws: the jump/fill oracle.
    fn scalar_states(r: &mut JavaRandom, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                r.next(32);
                r.seed as u64
            })
            .collect()
    }

    /// The raw state `k` draws after `state`, by one affine map.
    fn jump(state: u64, k: u64) -> u64 {
        let (a, c) = java_jump_coeffs(k);
        a.wrapping_mul(state).wrapping_add(c) & JAVA_MASK as u64
    }

    #[test]
    fn java_jump_matches_scalar_draws_and_composes() {
        let mut seeds = SplitMix64::new(0x1A4B);
        for _ in 0..16 {
            let seed = JavaRandom::new(seeds.next_u64() as i64).seed as u64;
            // jump(0) is the identity.
            assert_eq!(jump(seed, 0), seed);
            // jump(k) lands where k scalar draws land.
            for k in [1u64, 2, 3, 4, 5, 17, 1000] {
                let states = scalar_states(&mut JavaRandom { seed: seed as i64 }, k as usize);
                assert_eq!(jump(seed, k), states[k as usize - 1], "k={k}");
            }
            // jump(a) then jump(b) equals jump(a + b), for huge counts too.
            let (a, b) = (seeds.next_u64() >> 17, seeds.next_u64() >> 17);
            assert_eq!(jump(jump(seed, a), b), jump(seed, a + b));
            // The period is 2^48: a full jump is the identity, and
            // jumping the rest of the period undoes a step.
            assert_eq!(jump(seed, 1 << 48), seed);
            assert_eq!(jump(jump(seed, 5), (1 << 48) - 5), seed);
        }
    }

    #[test]
    fn java_fill_states_matches_scalar_draws() {
        let mut seeds = SplitMix64::new(0xF111);
        let mut lengths: Vec<usize> = (0..=9).collect();
        lengths.extend([13, 255, 256, 257, 1023, 4099]);
        for _ in 0..8 {
            lengths.push(seeds.next_below(5000) as usize);
        }
        for &n in &lengths {
            let seed = seeds.next_u64() as i64;
            let mut scalar = JavaRandom::new(seed);
            let want = scalar_states(&mut scalar, n);
            let mut bulk = JavaRandom::new(seed);
            let mut got = vec![0u64; n];
            bulk.fill_states(&mut got);
            assert_eq!(got, want, "n={n}");
            // The generator ends exactly where the scalar loop ends, and
            // a second fill continues the same stream.
            assert_eq!(bulk.seed, scalar.seed, "n={n}");
            let mut more = [0u64; 7];
            bulk.fill_states(&mut more);
            assert_eq!(more.to_vec(), scalar_states(&mut scalar, 7), "n={n}");
        }
        // state_bits reproduces what next(bits) returned.
        let mut r = JavaRandom::new(42);
        let mut states = [0u64; 3];
        r.clone().fill_states(&mut states);
        assert_eq!(JavaRandom::state_bits(states[0], 32), r.next_int());
        assert_eq!(JavaRandom::state_bits(states[1], 31), r.next(31));
        assert_eq!(JavaRandom::state_bits(states[2], 1), r.next(1));
    }

    #[test]
    fn java_draws_match_scalar_calls_and_restore_the_generator() {
        let mut seeds = SplitMix64::new(0xD7A5);
        for _ in 0..32 {
            let seed = seeds.next_u64() as i64;
            // A random mix of calls, long enough to span several refills
            // and to hit nextInt's rejection path at a large bound.
            let calls = seeds.next_below(2000) as usize;
            let ops: Vec<(u64, i32)> = (0..calls)
                .map(|_| {
                    let bound = 1 + seeds.next_below(i32::MAX as u64) as i32;
                    (seeds.next_below(4), bound)
                })
                .collect();
            let mut scalar = JavaRandom::new(seed);
            let mut bulk = JavaRandom::new(seed);
            {
                let mut draws = JavaDraws::new(&mut bulk);
                for &(op, bound) in &ops {
                    match op {
                        0 => assert_eq!(draws.next_int_bound(bound), scalar.next_int_bound(bound)),
                        1 => assert_eq!(
                            draws.next_double().to_bits(),
                            scalar.next_double().to_bits()
                        ),
                        2 => {
                            scalar.next(32);
                            assert_eq!(draws.next_state(), scalar.seed as u64);
                        }
                        _ => {
                            // A run of states, up to a buffer and a half.
                            let n = bound as u64 % 400;
                            let mut got = Vec::new();
                            draws.for_each_state(n, |s| got.push(s));
                            assert_eq!(got, scalar_states(&mut scalar, n as usize));
                        }
                    }
                }
            }
            // Dropping the cursor leaves the generator at the last state
            // it handed out, not at the end of its buffer.
            assert_eq!(bulk.seed, scalar.seed, "calls={calls}");
            assert_eq!(bulk.next_int(), scalar.next_int());
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let mut c = SplitMix64::new(2);
        let va = a.next_u64();
        assert_eq!(va, b.next_u64());
        assert_ne!(va, c.next_u64());
    }

    #[test]
    fn splitmix_next_below_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn xoshiro_deterministic_and_fills() {
        let mut a = Xoshiro256pp::new(5);
        let mut b = Xoshiro256pp::new(5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut buf = [0u8; 19];
        a.fill_bytes(&mut buf);
        // 19 bytes should not be all zeros with overwhelming probability.
        assert!(buf.iter().any(|&x| x != 0));
        for _ in 0..10_000 {
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(a.next_below(97) < 97);
        }
    }

    #[test]
    fn seed_factory_streams_are_independent_and_stable() {
        let f = SeedFactory::new(0xDEADBEEF);
        assert_eq!(f.seed_for("net"), f.seed_for("net"));
        assert_ne!(f.seed_for("net"), f.seed_for("cpu"));
        let mut s1 = f.stream("workload");
        let mut s2 = f.stream("workload");
        assert_eq!(s1.next_u64(), s2.next_u64());
    }
}
