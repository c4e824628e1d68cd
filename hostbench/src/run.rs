//! Timed passes, the traced pass and the metrics they produce.
//!
//! Each workload is a closed loop on one thread: a pass is the
//! workload's full job list and the next job starts when the previous
//! one returns. Slices of the reference kernel run between jobs, outside
//! the timed intervals, and each job's time is expressed in
//! reference-host seconds using the slices on either side of it (see
//! `meter`).

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Duration;

use mapreduce::engine::Engine;
use mapreduce::multijob::{self, MultiJobResult, MultiJobSpec};
use mrbench::{Artifacts, BenchConfig, Panel, Sweep, SweepOptions};
use simcore::jobj;
use simcore::json::Json;

use crate::golden::{des_output, multi_output, Golden};
use crate::host::now;
use crate::meter::{Meter, Timing};
use crate::refkernel::Mix;
use crate::stats::median;
use crate::tracer::{chrome_trace, layer_totals, TimedFactory, Tracer};
use crate::workload::{multijob_topology, plan, ring_seed, GridPanel, Plan, Workload, RING};

/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: u64 = 3;

/// Chunks of set-up work per `setup_s` sample, each between two slices.
const SETUP_CHUNKS: u32 = 10;

/// `setup_s` samples per run; each constructs the jobs of one ring seed.
const SETUP_SAMPLES: u64 = 11;

/// Allocation-mix reference-kernel units per slice between set-up chunks.
const SETUP_SLICE_UNITS: u32 = 20;

/// Set-up work run untimed before the first sample, until allocator and
/// clock-frequency warm-up are over.
const SETUP_WARMUP: Duration = Duration::from_secs(1);

/// Per-workload sizes of the measurement, fixed so that every commit
/// measures the same work.
#[derive(Clone, Copy, Debug)]
struct Tuning {
    /// Full-mix reference-kernel units per slice between jobs.
    slice_units: u32,
    /// Times the pass's jobs are constructed between two kernel slices;
    /// one `setup_s` sample spans `SETUP_CHUNKS` such chunks.
    setup_reps: u32,
}

fn tuning(workload: Workload) -> Tuning {
    match workload {
        Workload::PaperGrid => Tuning {
            slice_units: 20,
            setup_reps: 100,
        },
        Workload::WideAvg => Tuning {
            slice_units: 100,
            setup_reps: 300,
        },
        Workload::MultijobRack => Tuning {
            slice_units: 40,
            setup_reps: 40_000,
        },
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// What one pass produced.
#[derive(Debug)]
enum Produced {
    Jobs(Artifacts),
    Stream(MultiJobResult),
}

/// Build every job of `plan` without running it, as `setup_s` defines:
/// config validation and conversion plus engine construction, or the
/// multijob topology plus spec validation.
fn construct(plan: &Plan) {
    match plan {
        Plan::Multi(spec) => {
            let spec = MultiJobSpec {
                topology: multijob_topology(),
                ..(**spec).clone()
            };
            black_box(spec.validate().is_ok());
        }
        _ => {
            for config in plan.configs() {
                black_box(config.validate().is_ok());
                let factory = config.factory();
                let engine = Engine::with_topology(
                    config.job_spec(),
                    factory.as_ref(),
                    config.node_spec(),
                    config.topology(),
                );
                drop(black_box(engine));
            }
        }
    }
}

/// Run one pass through the entry points users reach, serializing its
/// artifact as `--json` would. `between` runs before every job.
fn run_pass(
    workload: Workload,
    plan: &Plan,
    between: &(dyn Fn() + Sync),
) -> Result<Produced, String> {
    let mut artifacts = Artifacts::new(workload.name());
    match plan {
        Plan::Grid(panels) => {
            let opts = SweepOptions {
                threads: 1,
                ..SweepOptions::default()
            };
            for panel in panels {
                let sweep = Sweep::run_grid_with(
                    &panel.sizes,
                    &panel.interconnects,
                    |s, ic| {
                        between();
                        panel.cell(s, ic)
                    },
                    &opts,
                )
                .map_err(|e| e.to_string())?;
                artifacts.record_sweep(panel.benchmark.label(), sweep);
            }
        }
        Plan::Runs(configs) => {
            for (i, config) in configs.iter().enumerate() {
                between();
                let report = mrbench::run(config).map_err(|e| e.to_string())?;
                artifacts.record_report(&format!("job-{i}"), report);
            }
        }
        Plan::Multi(spec) => {
            between();
            let result = multijob::run(spec);
            black_box(result.to_json().to_pretty());
            return Ok(Produced::Stream(result));
        }
    }
    black_box(artifacts.to_json().to_pretty());
    Ok(Produced::Jobs(artifacts))
}

/// Canonical output of every job, `None` for a job that did not succeed.
fn outputs(produced: &Produced) -> Vec<Option<String>> {
    let des = |r: &mapreduce::JobResult| r.succeeded().then(|| des_output(r));
    match produced {
        Produced::Jobs(artifacts) => artifacts
            .panels
            .iter()
            .flat_map(|p| match p {
                Panel::Sweep { sweep, .. } => {
                    sweep.cells.iter().map(|c| des(&c.report.result)).collect()
                }
                Panel::Report { report, .. } => vec![des(&report.result)],
            })
            .collect(),
        Produced::Stream(result) => vec![Some(multi_output(result))],
    }
}

/// Jobs of the pass at ring seed `ring` that failed or whose outputs
/// differ from the golden ones.
fn failed_jobs(plan: &Plan, produced: Option<&Produced>, golden: &Golden, ring: u64) -> u64 {
    let Some(produced) = produced else {
        return plan.jobs();
    };
    let outs = outputs(produced);
    let bad = |j: usize| {
        !outs[j]
            .as_deref()
            .is_some_and(|o| golden.matches(ring, j, o))
    };
    match plan {
        Plan::Multi(spec) => {
            if bad(0) {
                spec.n_jobs as u64
            } else {
                0
            }
        }
        _ => {
            let mut failed = (0..outs.len()).filter(|&j| bad(j)).count() as u64;
            failed += plan.jobs().saturating_sub(outs.len() as u64);
            failed
        }
    }
}

/// Command-line options of one benchmark run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the first pass.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where the traced pass's Chrome trace goes.
    pub trace_out: std::path::PathBuf,
}

/// The result of a run: the contract's final line plus host context.
#[derive(Debug)]
pub struct Report {
    /// Whether every output matched and the trace accounted for its pass.
    pub correct: bool,
    /// Jobs attempted across every pass.
    pub attempted: u64,
    /// Jobs that failed or mismatched their golden output.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host description and raw per-pass times.
    pub context: Json,
}

/// Run the timed passes and, with `trace`, the traced pass.
pub fn run(opts: &Options) -> Result<Report, String> {
    let workload = opts.workload;
    let golden = Golden::committed(workload)?;
    let tune = tuning(workload);
    let meter = Mutex::new(Meter::new(Mix::Full, tune.slice_units));
    let lock = || meter.lock().expect("meter lock poisoned");

    // Set-up samples come first, after a warm-up, so every run takes
    // them in the same process state.
    let warm = now();
    let first = plan(workload, ring_seed(opts.seed, 0));
    while warm.elapsed() < SETUP_WARMUP {
        construct(&first);
    }
    let per_sample = f64::from(SETUP_CHUNKS * tune.setup_reps);
    let mut setup_meter = Meter::new(Mix::Alloc, SETUP_SLICE_UNITS);
    let mut setups: Vec<Timing> = Vec::new();
    for sample in 0..SETUP_SAMPLES {
        let plan = plan(workload, ring_seed(opts.seed, sample));
        setup_meter.start();
        for _ in 0..SETUP_CHUNKS {
            for _ in 0..tune.setup_reps {
                construct(&plan);
            }
            setup_meter.mark();
        }
        let t = setup_meter.finish();
        setups.push(Timing {
            raw_s: t.raw_s / per_sample,
            host_s: t.host_s / per_sample,
            ..t
        });
    }

    let mut samples: Vec<Timing> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let start = now();
    let mut last_pass = Duration::ZERO;
    for pass in 0..RING {
        if pass >= MIN_PASSES && secs(start.elapsed() + last_pass) > opts.seconds {
            break;
        }
        let pass_start = now();
        let ring = ring_seed(opts.seed, pass);
        let plan = plan(workload, ring);
        lock().start();
        let produced = run_pass(workload, &plan, &|| lock().mark());
        samples.push(lock().finish());

        attempted += plan.jobs();
        failed += failed_jobs(&plan, produced.as_ref().ok(), &golden, ring);
        if let Err(e) = &produced {
            eprintln!("hostbench: pass {pass} failed: {e}");
        }
        last_pass = pass_start.elapsed();
    }

    let pick = |v: &[Timing], f: fn(&Timing) -> f64| v.iter().map(f).collect::<Vec<f64>>();
    let arr = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::from).collect());
    let host_s = median(&pick(&samples, |t| t.host_s));
    let setup_s = median(&pick(&setups, |t| t.host_s));
    let kernel_unit_s = median(&pick(&samples, |t| t.kernel_unit_s));
    let mut correct = failed == 0;
    let context = jobj! {
        "host": crate::host::context(),
        "workload": workload.name(),
        "seed": opts.seed,
        "passes": samples.len(),
        "ref_unit_nominal_s": crate::refkernel::REF_UNIT_S,
        "ref_kernel_unit_s": kernel_unit_s,
        "ref_alloc_unit_s": median(&pick(&setups, |t| t.kernel_unit_s)),
        "pass_raw_s": arr(pick(&samples, |t| t.raw_s)),
        "pass_host_s": arr(pick(&samples, |t| t.host_s)),
        "setup_raw_s": arr(pick(&setups, |t| t.raw_s)),
        "setup_host_s": arr(pick(&setups, |t| t.host_s)),
    };

    let metrics = if opts.trace {
        let traced = traced_pass(workload, ring_seed(opts.seed, 0), &golden, tune)?;
        attempted += traced.jobs;
        failed += traced.failed;
        correct &= traced.failed == 0 && traced.self_sum_matches;
        let chrome = chrome_trace(&traced.spans, workload.name());
        if let Some(dir) = opts.trace_out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&opts.trace_out, chrome.to_compact())
            .map_err(|e| format!("{}: {e}", opts.trace_out.display()))?;
        eprintln!("hostbench: spans written to {}", opts.trace_out.display());
        traced.metrics(host_s, kernel_unit_s)
    } else {
        let rss = crate::host::peak_rss_mb().ok_or("VmHWM unavailable in /proc/self/status")?;
        vec![
            ("host_s", host_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
            ("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio"),
        ]
    };
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        context,
    })
}

/// What the traced pass measured.
#[derive(Debug)]
struct Traced {
    spans: Vec<crate::tracer::Span>,
    jobs: u64,
    failed: u64,
    self_sum_matches: bool,
    sim_work: u64,
    fetches: u64,
    flows: u64,
    artifact_bytes: u64,
    /// Reference-host seconds per host second around the traced pass.
    host_per_raw: f64,
}

impl Traced {
    fn metrics(&self, host_s: f64, kernel_unit_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let t = layer_totals(&self.spans);
        let norm = |ns: u64| ns as f64 / 1e9 * self.host_per_raw;
        let per = |ns: u64, n: u64| {
            if n == 0 {
                0.0
            } else {
                norm(ns) * 1e9 / n as f64
            }
        };
        let records = t.records.get("partition").copied().unwrap_or(0);
        let pass_ns: u64 = t.self_ns.values().sum();
        let read_ns = t.self_ns("artifact.read");
        vec![
            ("config.build_s", norm(t.self_ns("config.build")), "s"),
            ("engine.build_s", norm(t.self_ns("engine.build")), "s"),
            ("partition.self_s", norm(t.self_ns("partition")), "s"),
            (
                "partition.calls",
                t.calls.get("partition").copied().unwrap_or(0) as f64,
                "count",
            ),
            ("partition.records", records as f64, "count"),
            (
                "partition.ns_per_record",
                per(t.self_ns("partition"), records),
                "ns/record",
            ),
            ("engine.run_self_s", norm(t.self_ns("engine.run")), "s"),
            ("engine.sim_work", self.sim_work as f64, "count"),
            ("engine.fetches", self.fetches as f64, "count"),
            (
                "engine.ns_per_work",
                per(t.self_ns("engine.run"), self.sim_work),
                "ns/work",
            ),
            ("multijob.run_s", norm(t.self_ns("multijob.run")), "s"),
            ("multijob.flows", self.flows as f64, "count"),
            (
                "multijob.ns_per_flow",
                per(t.self_ns("multijob.run"), self.flows),
                "ns/flow",
            ),
            ("artifact.write_s", norm(t.self_ns("artifact.write")), "s"),
            ("artifact.bytes", self.artifact_bytes as f64, "bytes"),
            ("artifact.read_s", norm(read_ns), "s"),
            ("pass.self_s", norm(t.self_ns("pass")), "s"),
            ("ref.kernel_s", kernel_unit_s, "s"),
            (
                "trace.overhead_frac",
                norm(pass_ns - read_ns) / host_s - 1.0,
                "ratio",
            ),
        ]
    }
}

/// Config conversion, engine construction and the run of one DES job,
/// each in its own span, with every partitioner timed.
fn traced_job(
    tracer: &Tracer,
    job: u32,
    config: &BenchConfig,
) -> Result<mapreduce::JobResult, String> {
    let (spec, factory, node, topology) = tracer.span("config.build", job, || {
        config.validate()?;
        Ok::<_, String>((
            config.job_spec(),
            config.factory(),
            config.node_spec(),
            config.topology(),
        ))
    })?;
    let timed = TimedFactory::new(factory.as_ref(), tracer, job);
    let engine = tracer.span("engine.build", job, || {
        Engine::with_topology(spec, &timed, node, topology)
    });
    Ok(tracer.span("engine.run", job, || engine.run()))
}

/// The traced pass: the same jobs as a timed pass at ring seed `ring`,
/// driven through `Engine` directly so construction and run split, plus
/// a parse-back of the artifact.
fn traced_pass(
    workload: Workload,
    ring: u64,
    golden: &Golden,
    tune: Tuning,
) -> Result<Traced, String> {
    let plan = plan(workload, ring);
    let mut meter = Meter::new(Mix::Full, tune.slice_units);
    meter.start();
    let tracer = Tracer::new();
    let root = tracer.begin("pass", 0);
    let mut sim_work = 0;
    let mut fetches = 0;
    let mut flows = 0;
    let (produced, text) = match &plan {
        Plan::Multi(spec) => {
            let spec = tracer.span("config.build", 0, || {
                let spec = MultiJobSpec {
                    topology: multijob_topology(),
                    ..(**spec).clone()
                };
                spec.validate().map(|()| spec)
            })?;
            let result = tracer.span("multijob.run", 0, || multijob::run(&spec));
            flows = (spec.n_jobs * spec.maps_per_job * spec.reduces_per_job) as u64;
            let text = tracer.span("artifact.write", 0, || result.to_json().to_pretty());
            tracer.span("artifact.read", 0, || Json::parse(&text).map(drop))?;
            (Produced::Stream(result), text)
        }
        _ => {
            let mut artifacts = Artifacts::new(workload.name());
            let mut job = 0u32;
            let mut run = |config: &BenchConfig| {
                let result = traced_job(&tracer, job, config)?;
                job += 1;
                sim_work += result.sim_work;
                fetches += result.counters.shuffled_fetches;
                Ok::<_, String>(mrbench::BenchReport {
                    config: config.clone(),
                    result,
                })
            };
            match &plan {
                Plan::Grid(panels) => {
                    for panel in panels {
                        artifacts
                            .record_sweep(panel.benchmark.label(), traced_sweep(panel, &mut run)?);
                    }
                }
                _ => {
                    for (i, config) in plan.configs().iter().enumerate() {
                        artifacts.record_report(&format!("job-{i}"), run(config)?);
                    }
                }
            }
            let text = tracer.span("artifact.write", 0, || artifacts.to_json().to_pretty());
            tracer.span("artifact.read", 0, || {
                Json::parse(&text)
                    .and_then(|j| Artifacts::from_json(&j).map_err(|e| e.to_string()))
                    .map(drop)
            })?;
            (Produced::Jobs(artifacts), text)
        }
    };
    tracer.end(root);
    let timing = meter.finish();

    let spans = tracer.spans();
    let totals = layer_totals(&spans);
    let root_ns = spans[root].end_ns - spans[root].start_ns;
    Ok(Traced {
        jobs: plan.jobs(),
        failed: failed_jobs(&plan, Some(&produced), golden, ring),
        self_sum_matches: totals.self_ns.values().sum::<u64>() == root_ns,
        spans,
        sim_work,
        fetches,
        flows,
        artifact_bytes: text.len() as u64,
        host_per_raw: timing.host_s / timing.raw_s,
    })
}

/// One figure panel, cell by cell in the sweep's row-major order.
fn traced_sweep(
    panel: &GridPanel,
    run: &mut impl FnMut(&BenchConfig) -> Result<mrbench::BenchReport, String>,
) -> Result<Sweep, String> {
    let mut cells = Vec::new();
    for &shuffle in &panel.sizes {
        for &interconnect in &panel.interconnects {
            cells.push(mrbench::sweep::SweepCell {
                shuffle,
                interconnect,
                report: run(&panel.cell(shuffle, interconnect))?,
            });
        }
    }
    Ok(Sweep {
        sizes: panel.sizes.clone(),
        interconnects: panel.interconnects.clone(),
        cells,
    })
}

/// Run every ring seed of `workload` once and return the golden file.
pub fn golden_file(workload: Workload) -> Result<Json, String> {
    let mut all = Vec::new();
    for ring in 0..RING {
        let produced = run_pass(workload, &plan(workload, ring), &|| ())?;
        let outs = outputs(&produced)
            .into_iter()
            .collect::<Option<Vec<String>>>()
            .ok_or_else(|| format!("a job failed at ring seed {ring}"))?;
        eprintln!("hostbench: {} ring seed {ring} done", workload.name());
        all.push(outs);
    }
    Golden::from_outputs(&all).to_json(workload)
}
