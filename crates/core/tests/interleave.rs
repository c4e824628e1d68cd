//! Interleaving coverage for the parallel sweep's slot-claim path.
//!
//! `Sweep::run_grid_with` farms cells to workers through a shared
//! `AtomicUsize` claim counter plus a mutex-guarded row-major slot
//! vector. Two complementary checks live here:
//!
//! * a **loom-style exhaustive model**: the claim protocol (poll
//!   cancel → `fetch_add` claim → write slot) is re-stated as a small
//!   state machine and *every* thread interleaving is enumerated by
//!   DFS, asserting each slot is written exactly once by its claimer —
//!   including runs where cancellation lands between any two steps;
//! * a **real-thread stress**: the actual `run_grid_with` at several
//!   worker counts, with the `make` callback counting invocations per
//!   cell, asserting each cell is built exactly once and the artifact
//!   bytes do not depend on the worker count;
//! * the sweep's **shared counts memo**: cells of one grid mixing
//!   benchmarks and Zipf exponents must each equal the same config run
//!   alone, at one worker and at four racing on the memo's mutex.
//!
//! The model is exhaustive where real threads are probabilistic; the
//! stress run ties the model back to the shipping code. CI additionally
//! runs this file (and the multijob suite) under ThreadSanitizer.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mrbench::{
    run, Artifacts, BenchConfig, Interconnect, MicroBenchmark, ShuffleVolume, Sweep, SweepOptions,
};
use simcore::units::ByteSize;

// ---------------------------------------------------------------------
// Exhaustive schedule enumeration over a model of the claim protocol
// ---------------------------------------------------------------------

/// Where one model worker is in the claim loop. Each variant boundary
/// is an atomic step in the real code: the cancel poll, the
/// `next.fetch_add`, and the slot write under the mutex.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Worker {
    /// About to poll the cancellation hook.
    Poll,
    /// About to claim an index from the shared counter.
    Claim,
    /// Claimed this index; about to write its slot.
    Write(usize),
    /// Exited the loop.
    Done,
}

/// One global state of the model: claim counter, cancel flag, slot
/// writers, and every worker's position. `Ord` so visited-state
/// memoization can use a `BTreeSet` (deterministic iteration, per the
/// workspace lint rules).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct State {
    next: usize,
    cancelled: bool,
    /// `slots[i]` = Some(worker that wrote it).
    slots: Vec<Option<usize>>,
    workers: Vec<Worker>,
}

impl State {
    fn initial(n_workers: usize, cells: usize) -> State {
        State {
            next: 0,
            cancelled: false,
            slots: vec![None; cells],
            workers: vec![Worker::Poll; n_workers],
        }
    }

    fn terminal(&self) -> bool {
        self.workers.iter().all(|w| *w == Worker::Done)
    }

    /// Apply worker `w`'s next atomic step. Panics on any write-once
    /// violation, which is exactly the race the protocol must exclude.
    fn step(&self, w: usize) -> State {
        let mut s = self.clone();
        match s.workers[w] {
            Worker::Poll => {
                s.workers[w] = if s.cancelled {
                    Worker::Done
                } else {
                    Worker::Claim
                };
            }
            Worker::Claim => {
                let i = s.next;
                s.next += 1;
                s.workers[w] = if i < s.slots.len() {
                    Worker::Write(i)
                } else {
                    Worker::Done
                };
            }
            Worker::Write(i) => {
                assert!(
                    s.slots[i].is_none(),
                    "slot {i} written twice (second writer: worker {w}, first: {:?})",
                    s.slots[i]
                );
                s.slots[i] = Some(w);
                s.workers[w] = Worker::Poll;
            }
            Worker::Done => unreachable!("done workers are never scheduled"),
        }
        s
    }
}

/// Enumerate every interleaving from `start` by DFS, checking the
/// terminal invariant on each maximal run. `allow_cancel` adds a
/// one-shot cancellation event that can fire between any two steps.
/// Returns (states visited, terminals reached).
fn explore(start: State, allow_cancel: bool) -> (usize, usize) {
    let mut visited: BTreeSet<State> = BTreeSet::new();
    let mut stack = vec![start];
    let mut terminals = 0usize;
    while let Some(s) = stack.pop() {
        if !visited.insert(s.clone()) {
            continue;
        }
        if s.terminal() {
            terminals += 1;
            check_terminal(&s);
            continue;
        }
        for w in 0..s.workers.len() {
            if s.workers[w] != Worker::Done {
                stack.push(s.step(w));
            }
        }
        if allow_cancel && !s.cancelled {
            let mut c = s.clone();
            c.cancelled = true;
            stack.push(c);
        }
    }
    (visited.len(), terminals)
}

/// Terminal invariant: without cancellation every slot is written
/// exactly once (write-once itself is asserted inside [`State::step`]);
/// with cancellation, unwritten slots are permitted only if the cancel
/// flag actually fired — exactly the `Error::Deadline` arm in
/// `run_grid_with`.
fn check_terminal(s: &State) {
    let unwritten = s.slots.iter().filter(|x| x.is_none()).count();
    if !s.cancelled {
        assert_eq!(unwritten, 0, "lost cell without cancellation: {s:?}");
        // The counter can overshoot (each worker's final empty claim)
        // but never undershoots the cell count.
        assert!(s.next >= s.slots.len());
    }
}

#[test]
fn claim_protocol_is_race_free_under_every_interleaving() {
    // 2 workers × 3 cells and 3 workers × 2 cells: small enough to
    // enumerate fully, large enough that claims outnumber workers in
    // one direction and workers outnumber claims in the other.
    for (workers, cells) in [(2, 3), (3, 2)] {
        let (states, terminals) = explore(State::initial(workers, cells), false);
        assert!(
            states > 100 && terminals > 0,
            "expected a nontrivial exhaustive walk, got {states} states / {terminals} terminals"
        );
    }
}

#[test]
fn claim_protocol_tolerates_cancellation_at_every_step() {
    for (workers, cells) in [(2, 3), (3, 2)] {
        let (states, terminals) = explore(State::initial(workers, cells), true);
        assert!(
            states > 200 && terminals > 0,
            "expected a nontrivial exhaustive walk, got {states} states / {terminals} terminals"
        );
    }
}

// ---------------------------------------------------------------------
// Real-thread stress over the shipping claim loop
// ---------------------------------------------------------------------

const SIZES: [ByteSize; 2] = [ByteSize::from_mib(128), ByteSize::from_mib(256)];
const NETS: [Interconnect; 2] = [Interconnect::GigE1, Interconnect::IpoibQdr];

fn small(size: ByteSize, ic: Interconnect) -> BenchConfig {
    let mut c = BenchConfig::cluster_a_default(MicroBenchmark::Avg, ic, size);
    c.slaves = 2;
    c.num_maps = 4;
    c.num_reduces = 4;
    c
}

fn artifact_bytes(sweep: Sweep) -> String {
    let mut artifacts = Artifacts::new("interleave-test");
    artifacts.record_sweep("panel", sweep);
    artifacts.to_json().to_pretty()
}

#[test]
fn every_cell_is_claimed_exactly_once_at_any_worker_count() {
    let mut reference: Option<String> = None;
    for threads in [1, 2, 4] {
        // Count `make` invocations per cell: work stealing may hand any
        // cell to any worker, but each cell must be built exactly once.
        let counts: Mutex<Vec<usize>> = Mutex::new(vec![0; SIZES.len() * NETS.len()]);
        let make = |size: ByteSize, ic: Interconnect| {
            let row = SIZES.iter().position(|&s| s == size).expect("known size");
            let col = NETS.iter().position(|&n| n == ic).expect("known net");
            counts.lock().unwrap()[row * NETS.len() + col] += 1;
            small(size, ic)
        };
        let opts = SweepOptions {
            threads,
            store: None,
            cancel: None,
        };
        let sweep = Sweep::run_grid_with(&SIZES, &NETS, make, &opts).expect("sweep completes");

        let counts = counts.into_inner().unwrap();
        assert!(
            counts.iter().all(|&c| c == 1),
            "threads={threads}: every cell exactly once, got {counts:?}"
        );

        // And the artifact must not depend on the worker count.
        let bytes = artifact_bytes(sweep);
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "threads={threads} changed the artifact"),
        }
    }
}

#[test]
fn cancellation_before_any_claim_reports_deadline() {
    // A cancel hook that fires immediately: the poll-before-claim order
    // in the protocol means zero cells complete and the sweep reports
    // how far it got instead of hanging or panicking.
    let fired = AtomicUsize::new(0);
    let cancel = || {
        fired.fetch_add(1, Ordering::Relaxed);
        true
    };
    let opts = SweepOptions {
        threads: 4,
        store: None,
        cancel: Some(&cancel),
    };
    let err = Sweep::run_grid_with(&SIZES, &NETS, small, &opts).expect_err("must cancel");
    let text = format!("{err}");
    assert!(text.contains("0"), "zero completed cells in: {text}");
    assert!(fired.load(Ordering::Relaxed) >= 1);
}

#[test]
fn memoized_counts_never_leak_between_partitioners() {
    // One grid whose cells mix benchmarks and two Zipf exponents, with
    // the same seed, maps, reducers and records in every cell: the memo
    // may share counts only between cells that would compute the same
    // ones, so each cell must equal its config run alone.
    const CELL_SIZES: [ByteSize; 3] = [
        ByteSize::from_mib(64),
        ByteSize::from_mib(128),
        ByteSize::from_mib(256),
    ];
    const CELL_NETS: [Interconnect; 3] = [
        Interconnect::GigE1,
        Interconnect::GigE10,
        Interconnect::IpoibQdr,
    ];
    let make = |size: ByteSize, ic: Interconnect| {
        let row = CELL_SIZES
            .iter()
            .position(|&s| s == size)
            .expect("known size");
        let col = CELL_NETS.iter().position(|&n| n == ic).expect("known net");
        let (bench, exponent) = match (row + col) % 4 {
            0 => (MicroBenchmark::Rand, 1.0),
            1 => (MicroBenchmark::Skew, 1.0),
            2 => (MicroBenchmark::Zipf, 0.5),
            _ => (MicroBenchmark::Zipf, 1.5),
        };
        let mut c = small(size, ic);
        c.benchmark = bench;
        c.zipf_exponent = exponent;
        c.volume = ShuffleVolume::PairsPerMap(5_000);
        c
    };
    let mut reference: Option<String> = None;
    for threads in [1, 4] {
        let opts = SweepOptions {
            threads,
            store: None,
            cancel: None,
        };
        let sweep =
            Sweep::run_grid_with(&CELL_SIZES, &CELL_NETS, make, &opts).expect("sweep completes");
        for cell in &sweep.cells {
            let alone = run(&make(cell.shuffle, cell.interconnect)).expect("cell runs");
            assert_eq!(
                alone.to_json().to_compact(),
                cell.report.to_json().to_compact(),
                "threads={threads}: {} {:?} differs from its config run alone",
                cell.report.config.benchmark,
                cell.interconnect
            );
        }
        let bytes = artifact_bytes(sweep);
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "threads={threads} changed the artifact"),
        }
    }
}
