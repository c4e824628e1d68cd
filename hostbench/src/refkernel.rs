//! The reference kernel: a fixed amount of CPU work, timed next to
//! every pass so that pass times can be expressed in reference-host
//! seconds.
//!
//! It uses the standard library only and calls no crate of the
//! simulator workspace, so no change to the program can make it faster
//! or slower (a unit test reads this file and checks that). Its work mix
//! follows the program's hot paths: integer RNG steps with a data-
//! dependent branch and 1 KiB buffer fills (per-record partitioning and
//! key synthesis), dependent loads over a table larger than L1 (event
//! queues and flow tables), floating-point division (the fair-share
//! solve), a small sort (ordered flow lists) and short-lived heap
//! allocations of mixed sizes (engine and config construction).

use std::hint::black_box;

/// Entries in the dependent-load table: 256 KiB of `u32`, larger than
/// L1 but small enough to refill quickly after the program evicts it.
const TABLE_LEN: usize = 1 << 16;
/// RNG steps per unit.
const RNG_STEPS: u32 = 16_000;
/// 1 KiB buffer fills per unit.
const FILLS: u32 = 1_500;
/// Dependent loads per unit.
const CHASE_STEPS: u32 = 12_000;
/// Floating-point steps per unit.
const FLOAT_STEPS: u32 = 6_000;
/// Elements sorted per unit.
const SORT_LEN: usize = 2_048;
/// Object graphs built and dropped per unit.
const GRAPHS: u32 = 60;
/// Heap allocations per object graph.
const GRAPH_ALLOCS: u64 = 30;

/// Object graphs per unit of the allocation mix.
const ALLOC_MIX_GRAPHS: u32 = 300;

/// Host seconds one unit of either mix takes on the reference host (a
/// 2-vCPU Intel Xeon container): the nominal duration that normalized
/// times are expressed in.
pub const REF_UNIT_S: f64 = 0.000_25;

/// Which work a kernel unit does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every component: the reference for whole passes.
    Full,
    /// Only the object graphs: the reference for job construction, which
    /// is allocation-bound and slows with the allocator rather than with
    /// the host's arithmetic speed.
    Alloc,
}

/// The kernel's state. The table and buffers are built once; within a
/// unit only the object graphs allocate.
#[derive(Debug)]
pub struct RefKernel {
    table: Vec<u32>,
    sort_buf: Vec<u32>,
    fill_buf: Vec<u8>,
    state: u64,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    /// Build the kernel: a single-cycle permutation for the dependent
    /// loads (Sattolo's shuffle) and the sort buffer.
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..TABLE_LEN).rev() {
            rng = xorshift(rng);
            let j = (rng % i as u64) as usize;
            table.swap(i, j);
        }
        RefKernel {
            table,
            sort_buf: vec![0; SORT_LEN],
            fill_buf: Vec::with_capacity(1024),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Run `units` units of `mix` and return a checksum, which callers
    /// pass through `black_box` so the work cannot be elided.
    pub fn run(&mut self, mix: Mix, units: u32) -> u64 {
        let mut acc = 0u64;
        for _ in 0..units {
            acc = acc.wrapping_add(match mix {
                Mix::Full => self.full_unit(),
                Mix::Alloc => self.graphs(ALLOC_MIX_GRAPHS),
            });
        }
        black_box(acc)
    }

    fn full_unit(&mut self) -> u64 {
        // Integer RNG with a data-dependent branch.
        let mut x = self.state;
        let mut buckets = [0u32; 8];
        for _ in 0..RNG_STEPS {
            x = x.wrapping_mul(0x5DEE_CE66D).wrapping_add(0xB) & ((1 << 48) - 1);
            let r = (x >> 17) as u32;
            if r & 0x100 == 0 {
                buckets[(r & 7) as usize] += 1;
            } else {
                buckets[((r >> 3) & 7) as usize] += 2;
            }
        }
        self.state = x;

        // Fill a reused 1 KiB buffer, as key synthesis does per record.
        let mut filled = 0u64;
        for i in 0..FILLS {
            self.fill_buf.clear();
            self.fill_buf
                .extend_from_slice(&u64::from(i ^ (x as u32)).to_be_bytes());
            self.fill_buf.resize(1024, i as u8);
            filled = filled.wrapping_add(u64::from(self.fill_buf[(i as usize * 7) & 1023]));
        }

        // Dependent loads around the permutation cycle.
        let mut at = (x as usize) & (TABLE_LEN - 1);
        for _ in 0..CHASE_STEPS {
            at = self.table[at] as usize;
        }

        // Floating-point division chain.
        let mut f = 1.0f64 + (x & 0xFF) as f64;
        for i in 0..FLOAT_STEPS {
            f = f / (1.000_001 + f64::from(i & 15) * 1e-7) + 0.5;
        }

        // Sort a freshly scrambled buffer.
        let mut y = x | 1;
        for v in &mut self.sort_buf {
            y = xorshift(y);
            *v = y as u32;
        }
        self.sort_buf.sort_unstable();
        let touched = self.graphs(GRAPHS);

        let spread: u32 = buckets.iter().sum();
        (at as u64)
            ^ f.to_bits()
            ^ u64::from(self.sort_buf[SORT_LEN / 2])
            ^ u64::from(spread)
            ^ filled
            ^ touched
    }
}

impl RefKernel {
    /// Build and drop `n` small object graphs, as constructing an engine
    /// allocates a few dozen vectors of mixed sizes and frees them.
    fn graphs(&mut self, n: u32) -> u64 {
        let mut y = self.state | 1;
        let mut touched = 0u64;
        for _ in 0..n {
            y = xorshift(y);
            let graph: Vec<Vec<u64>> = (0..GRAPH_ALLOCS)
                .map(|j| vec![j ^ y; 4 + ((j * 7 + (y & 7)) % 60) as usize])
                .collect();
            touched = touched.wrapping_add(black_box(&graph)[7][2]);
        }
        self.state = y;
        touched
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_touches_no_workspace_crate() {
        let source = include_str!("refkernel.rs");
        let code = source
            .split("#[cfg(test)]")
            .next()
            .expect("split yields at least one piece");
        for krate in [
            "mrbench",
            "mapreduce",
            "simcore",
            "simnet",
            "cluster",
            "crate::",
            "super::",
        ] {
            assert!(
                !code.contains(krate),
                "the reference kernel must not reference `{krate}`"
            );
        }
        for line in code.lines().filter(|l| l.trim_start().starts_with("use ")) {
            assert!(
                line.trim_start().starts_with("use std::"),
                "non-std import in the reference kernel: {line}"
            );
        }
    }

    #[test]
    fn kernel_is_deterministic() {
        for mix in [Mix::Full, Mix::Alloc] {
            let a = RefKernel::new().run(mix, 3);
            assert_eq!(a, RefKernel::new().run(mix, 3));
            assert_ne!(RefKernel::new().run(mix, 1), RefKernel::new().run(mix, 2));
        }
    }
}
