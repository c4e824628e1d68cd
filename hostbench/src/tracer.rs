//! Span recording for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions, and kept in memory until the run ends.
//! A layer's self time is its spans' durations minus the parts their
//! child spans cover. Partition spans come from [`TimedFactory`], which
//! wraps every partitioner the engine creates and times each
//! `assign_counts` call (key synthesis plus partitioning).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mapreduce::job::PartitionerFactory;
use mapreduce::partition::Partitioner;
use simcore::jobj;
use simcore::json::Json;

use crate::host::now;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to (its index in the pass).
    pub job: u32,
    /// Records partitioned (partition spans only).
    pub records: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Collects nested spans on one thread. Cloning shares the span list,
/// so the partitioners the engine owns record into the same trace.
#[derive(Clone, Debug)]
pub struct Tracer {
    origin: Instant,
    state: Arc<Mutex<State>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: now(),
            state: Arc::default(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Open a span; it nests under the innermost open span.
    pub fn begin(&self, name: &'static str, job: u32) -> usize {
        let start_ns = self.elapsed_ns();
        let mut st = self.state.lock().expect("tracer lock poisoned");
        let parent = st.open.last().copied();
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
            records: 0,
        });
        let id = st.spans.len() - 1;
        st.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&self, id: usize) {
        let end_ns = self.elapsed_ns();
        let mut st = self.state.lock().expect("tracer lock poisoned");
        assert_eq!(st.open.pop(), Some(id), "spans must close innermost first");
        st.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &'static str, job: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, job);
        let out = f();
        self.end(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone()
    }

    fn add_records(&self, id: usize, records: u64) {
        self.state.lock().expect("tracer lock poisoned").spans[id].records += records;
    }
}

/// Per-layer totals of a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Self nanoseconds per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span count per name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Records per name (partition spans carry them).
    pub records: BTreeMap<&'static str, u64>,
}

impl LayerTotals {
    /// Self time of layer `name` in nanoseconds (0 when absent).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }
}

/// Sum self times, call counts and records by span name.
pub fn layer_totals(spans: &[Span]) -> LayerTotals {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut totals = LayerTotals::default();
    for (s, children) in spans.iter().zip(child_ns) {
        *totals.self_ns.entry(s.name).or_default() += s.duration_ns() - children;
        *totals.calls.entry(s.name).or_default() += 1;
        *totals.records.entry(s.name).or_default() += s.records;
    }
    totals
}

/// The spans as Chrome trace-event JSON (complete `X` events in
/// microseconds), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            jobj! {
                "name": s.name,
                "cat": "hostbench",
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.duration_ns() as f64 / 1e3,
                "pid": 1u64,
                "tid": 1u64,
                "args": jobj! { "job": s.job, "records": s.records },
            }
        })
        .collect::<Vec<_>>();
    jobj! {
        "displayTimeUnit": "ms",
        "otherData": jobj! { "workload": workload },
        "traceEvents": Json::Arr(events),
    }
}

/// A partitioner factory that delegates to `inner` and records one
/// `partition` span per `assign_counts` call.
pub struct TimedFactory<'a> {
    inner: &'a dyn PartitionerFactory,
    tracer: Tracer,
    job: u32,
}

impl std::fmt::Debug for TimedFactory<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedFactory")
            .field("inner", &self.inner.name())
            .field("job", &self.job)
            .finish()
    }
}

impl<'a> TimedFactory<'a> {
    /// Wrap `inner`, recording into `tracer` under job `job`.
    pub fn new(inner: &'a dyn PartitionerFactory, tracer: &Tracer, job: u32) -> Self {
        TimedFactory {
            inner,
            tracer: tracer.clone(),
            job,
        }
    }
}

impl PartitionerFactory for TimedFactory<'_> {
    fn create(&self, map_index: u32, seed: u64) -> Box<dyn Partitioner> {
        Box::new(TimedPartitioner {
            inner: self.inner.create(map_index, seed),
            tracer: self.tracer.clone(),
            job: self.job,
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct TimedPartitioner {
    inner: Box<dyn Partitioner>,
    tracer: Tracer,
    job: u32,
}

impl Partitioner for TimedPartitioner {
    fn partition(&mut self, key: &[u8], ordinal: u64, n_reducers: u32) -> u32 {
        self.inner.partition(key, ordinal, n_reducers)
    }

    fn assign_counts(
        &mut self,
        n_records: u64,
        n_reducers: u32,
        key_of: &mut dyn FnMut(u64, &mut Vec<u8>),
    ) -> Vec<u64> {
        let id = self.tracer.begin("partition", self.job);
        let counts = self.inner.assign_counts(n_records, n_reducers, key_of);
        self.tracer.end(id);
        self.tracer.add_records(id, n_records);
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbench::MicroBenchmark;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
            records: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("engine.run", 10, 60, Some(0)),
            span("partition", 20, 30, Some(1)),
            span("partition", 40, 45, Some(1)),
            span("artifact.write", 70, 90, Some(0)),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t.self_ns("pass"), 30);
        assert_eq!(t.self_ns("engine.run"), 35);
        assert_eq!(t.self_ns("partition"), 15);
        assert_eq!(t.self_ns("artifact.write"), 20);
        assert_eq!(t.self_ns.values().sum::<u64>(), 100);
        assert_eq!(t.calls["partition"], 2);
    }

    #[test]
    fn tracer_nests_spans() {
        let tr = Tracer::new();
        tr.span("pass", 0, || tr.span("engine.run", 3, || ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].job, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let chrome = chrome_trace(&spans, "paper-grid");
        assert_eq!(chrome.field_arr("traceEvents").unwrap().len(), 2);
    }

    #[test]
    fn timed_factory_counts_equal_plain_factory_counts() {
        let key_of = |ordinal: u64, buf: &mut Vec<u8>| {
            buf.extend_from_slice(&ordinal.to_le_bytes());
        };
        for bench in [
            MicroBenchmark::Avg,
            MicroBenchmark::Rand,
            MicroBenchmark::Skew,
        ] {
            let plain = bench.factory();
            let tracer = Tracer::new();
            let timed = TimedFactory::new(plain.as_ref(), &tracer, 0);
            for map in 0..4u32 {
                let seed = 0xABCD + u64::from(map);
                let want = plain
                    .create(map, seed)
                    .assign_counts(5_000, 8, &mut { key_of });
                let got = timed
                    .create(map, seed)
                    .assign_counts(5_000, 8, &mut { key_of });
                assert_eq!(want, got, "{bench:?} map {map}");
            }
            let t = layer_totals(&tracer.spans());
            assert_eq!(t.calls["partition"], 4);
            assert_eq!(t.records["partition"], 20_000);
            assert_eq!(timed.name(), plain.name());
        }
    }
}
