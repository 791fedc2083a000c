//! `oneshot_suite`: cold, in-process one-shot sizing of the Table-1
//! suite, following the `mft size` call sequence exactly.

use crate::plan::{self, Job, SUITE};
use crate::report::{Metrics, Provenance};
use crate::rng::Rng;
use crate::stats::{geomean, median, summarize};
use crate::trace::Tracer;
use crate::{peak_rss_mb, RunOutcome};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each job's one-shot what-if.
const RETIMES: usize = 5;
/// Relative slack of the timing check.
const DELAY_TOL: f64 = 1e-6;

/// What one job produced.
#[derive(Debug, Clone)]
struct JobResult {
    job: Job,
    seconds: f64,
    retime_seconds: f64,
    area: f64,
    area_ratio: f64,
    ok: bool,
    tilos_bumps: usize,
    iterations: usize,
    flow_seconds: f64,
    dphase: mft_flow::SolverStats,
    wphase: mft_core::WPhaseStats,
    timing: mft_sta::TimingStats,
    sens_hits: usize,
    sens_misses: usize,
}

/// Runs one job: `parse_bench` → `SizingProblem::prepare` →
/// `problem.tilos(target)` → `problem.minflotransit(target)`, then the
/// what-if re-time of the sized design that checks it.
fn run_job(texts: &[String], job: Job, tracer: &mut Tracer, request: usize) -> JobResult {
    let name = SUITE[job.circuit].name();
    let start = Instant::now();
    let root = tracer.open("job", None, request);
    let netlist = tracer.span("circuit.parse", Some(root), request, || {
        plan::parse(name, &texts[job.circuit])
    });
    let problem = tracer.span("pipeline.prepare", Some(root), request, || {
        plan::prepare(&netlist)
    });
    let target = job.spec * problem.dmin();
    let seed = tracer.span("tilos.seed", Some(root), request, || problem.tilos(target));
    let solution = tracer.span("optimizer.mft", Some(root), request, || {
        problem.minflotransit(target)
    });
    tracer.close(root);
    let seconds = start.elapsed().as_secs_f64();
    let (Ok(seed), Ok(solution)) = (seed, solution) else {
        return JobResult::failed(job, seconds);
    };
    // The what-if: a one-shot re-time of the sized design from scratch
    // (parse, prepare, then delay, area and power of the final sizes),
    // the cold analogue of a served `what_if`. The first re-time after
    // a sizing runs against whatever state the sizing left the
    // allocator in (freshly mapped pages or not), which flips between
    // runs; the median of a few repetitions reads the settled cost.
    let mut retimes = [0.0; RETIMES];
    let mut delay = 0.0;
    for slot in &mut retimes {
        let retime = Instant::now();
        delay = tracer.span("what_if.oneshot", None, request, || {
            let problem = plan::prepare(&plan::parse(name, &texts[job.circuit]));
            let delay = problem.delay_of(black_box(&solution.sizes));
            black_box(problem.area_of(&solution.sizes));
            black_box(problem.power_of(&solution.sizes));
            delay
        });
        *slot = retime.elapsed().as_secs_f64();
    }
    let retime_seconds = median(&retimes);
    let limit = target * (1.0 + DELAY_TOL);
    JobResult {
        job,
        seconds,
        retime_seconds,
        area: solution.area,
        area_ratio: solution.area / problem.min_area(),
        ok: solution.achieved_delay <= limit && delay <= limit,
        tilos_bumps: seed.bumps,
        iterations: solution.iterations,
        flow_seconds: solution.dphase_stats.total_time.as_secs_f64(),
        dphase: solution.dphase_stats.flow,
        wphase: solution.wphase_stats,
        timing: solution.timing_stats,
        sens_hits: solution.sensitivity_stats.hits,
        sens_misses: solution.sensitivity_stats.misses,
    }
}

impl JobResult {
    fn failed(job: Job, seconds: f64) -> Self {
        JobResult {
            job,
            seconds,
            retime_seconds: 0.0,
            area: 0.0,
            area_ratio: 1.0,
            ok: false,
            tilos_bumps: 0,
            iterations: 0,
            flow_seconds: 0.0,
            dphase: Default::default(),
            wphase: Default::default(),
            timing: Default::default(),
            sens_hits: 0,
            sens_misses: 0,
        }
    }
}

/// One set-up: the suite's `.bench` texts, every one parsed and
/// prepared once (checking the inputs), and the untimed warm-up job.
fn set_up() -> (Vec<String>, f64) {
    let start = Instant::now();
    let texts: Vec<String> = SUITE.iter().map(|b| plan::bench_text(*b)).collect();
    for (bench, text) in SUITE.iter().zip(&texts) {
        let problem = plan::prepare(&plan::parse(bench.name(), text));
        assert!(problem.dmin() > 0.0, "{} prepares", bench.name());
    }
    let warmup = Job {
        circuit: plan::ONESHOT_WARMUP_CIRCUIT,
        spec: plan::ONESHOT_WARMUP_SPEC,
    };
    let ok = run_job(&texts, warmup, &mut Tracer::new(false), 0).ok;
    assert!(ok, "the warm-up job meets its target");
    (texts, start.elapsed().as_secs_f64())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunOutcome {
    // A fixed number of whole passes for the run length, each after a
    // set-up of its own, so the set-ups are spread over the run and
    // their median reads the host's speed over the whole run.
    let passes = ((seconds / plan::PASS_SECONDS).round() as usize).max(1);
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut texts = Vec::new();
    let mut results: Vec<JobResult> = Vec::new();
    let mut elapsed = 0.0;
    for pass in plan::oneshot_jobs(seed, passes) {
        let (t, s) = set_up();
        texts = t;
        setups.push(s);
        let start = Instant::now();
        for job in pass {
            results.push(run_job(&texts, job, &mut off, results.len()));
        }
        elapsed += start.elapsed().as_secs_f64();
    }
    let rss = peak_rss_mb(std::process::id());

    // Checks: every job met its target (above); a seeded job per
    // circuit re-sized by a second in-process call gives the same area.
    let mut failed = results.iter().filter(|r| !r.ok).count();
    let mut mismatches = 0;
    let mut rng = Rng::new(seed, 9);
    for circuit in 0..SUITE.len() {
        let mine: Vec<&JobResult> = results
            .iter()
            .filter(|r| r.job.circuit == circuit)
            .collect();
        let pick = mine[rng.below(mine.len())];
        let problem = plan::prepare(&plan::parse(SUITE[circuit].name(), &texts[circuit]));
        match problem.minflotransit(pick.job.spec * problem.dmin()) {
            Ok(again) if again.area.to_bits() == pick.area.to_bits() => {}
            Ok(again) => {
                eprintln!(
                    "oneshot_suite: {} at spec {} sized to area {} then {}",
                    SUITE[circuit].name(),
                    pick.job.spec,
                    pick.area,
                    again.area
                );
                mismatches += 1;
            }
            Err(e) => {
                eprintln!("oneshot_suite: re-sizing failed: {e}");
                failed += 1;
            }
        }
    }

    // Latency percentiles run across the suite's circuits, over each
    // circuit's mean job: the suite mixes 40 ms and 1.4 s jobs, so a
    // percentile over raw jobs lands on whichever circuit straddles it;
    // and a circuit's specs are stratified, so its median job is simply
    // its middle-spec job, exposed to any blip during that one job,
    // where the mean spreads it over all of them.
    let mut m = Metrics::default();
    let per_circuit = |f: &dyn Fn(&JobResult) -> f64, reduce: &dyn Fn(&[f64]) -> f64| {
        (0..SUITE.len())
            .map(|c| {
                let values: Vec<f64> = results
                    .iter()
                    .filter(|r| r.job.circuit == c)
                    .map(f)
                    .collect();
                reduce(&values)
            })
            .collect::<Vec<f64>>()
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let latencies = per_circuit(&|r| r.seconds * 1e3, &mean);
    let retimes = per_circuit(&|r| r.retime_seconds * 1e3, &mean);
    let sweeps = per_circuit(&|r| r.seconds * 1e3, &|v| v.iter().sum());
    let jobs = results.len() as f64;
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", rss);
    m.set("jobs_per_s", jobs / elapsed);
    m.set("req_per_s", jobs / elapsed);
    m.set(
        "area_ratio",
        geomean(&results.iter().map(|r| r.area_ratio).collect::<Vec<_>>()),
    );
    let size = summarize(&latencies);
    let what_if = summarize(&retimes);
    let sweep = summarize(&sweeps);
    m.set("size_p50_ms", size.p50);
    m.set("size_p90_ms", size.p90);
    m.set("sweep_p50_ms", sweep.p50);
    m.set("what_if_p50_ms", what_if.p50);
    m.set("what_if_p90_ms", what_if.p90);
    // Diagnostics over the raw samples.
    let raw = |f: &dyn Fn(&JobResult) -> f64| summarize(&results.iter().map(f).collect::<Vec<_>>());
    for (kind, s) in [
        ("size", raw(&|r| r.seconds * 1e3)),
        ("sweep", sweep),
        ("what_if", raw(&|r| r.retime_seconds * 1e3)),
    ] {
        m.set(format!("latency_p99_ms.{kind}"), s.p99);
        m.set(
            format!("latency_top_pct.{kind}"),
            s.highest_valid_percentile,
        );
        m.set(format!("samples.{kind}"), s.samples as f64);
    }
    m.set("server.errors", failed as f64);

    let mut spans_json = None;
    if trace {
        // The traced run replays the same jobs with spans around each
        // layer call; its extra time over the untimed jobs above is the
        // tracing overhead.
        let mut tracer = Tracer::new(true);
        let traced: Vec<JobResult> = results
            .iter()
            .enumerate()
            .map(|(i, r)| run_job(&texts, r.job, &mut tracer, i))
            .collect();
        let untraced_total: f64 = results.iter().map(|r| r.seconds).sum();
        let traced_total: f64 = traced.iter().map(|r| r.seconds).sum();
        layer_metrics(&mut m, &tracer, &traced);
        m.set_as(
            "trace.overhead_ratio",
            traced_total / untraced_total - 1.0,
            Provenance::Derived,
        );
        spans_json = Some(tracer.to_json());
    }

    RunOutcome {
        correct: failed == 0 && mismatches == 0,
        attempted: results.len(),
        failed,
        metrics: m,
        spans_json,
    }
}

fn mean_ms(tracer: &Tracer, name: &str) -> f64 {
    let d = tracer.durations(name);
    if d.is_empty() {
        0.0
    } else {
        d.iter().sum::<f64>() / d.len() as f64 * 1e3
    }
}

fn layer_metrics(m: &mut Metrics, tracer: &Tracer, jobs: &[JobResult]) {
    let n = jobs.len() as f64;
    let per_job = |f: &dyn Fn(&JobResult) -> f64| jobs.iter().map(f).sum::<f64>() / n;
    m.set("circuit.parse_ms", mean_ms(tracer, "circuit.parse"));
    m.set("pipeline.prepare_ms", mean_ms(tracer, "pipeline.prepare"));
    m.set("tilos.seed_ms", mean_ms(tracer, "tilos.seed"));
    m.set("tilos.bumps", per_job(&|r| r.tilos_bumps as f64));
    let hits = per_job(&|r| r.sens_hits as f64);
    let misses = per_job(&|r| r.sens_misses as f64);
    m.set_as(
        "tilos.sens_hit_ratio",
        hits / (hits + misses).max(1.0),
        Provenance::Derived,
    );
    let mft_ms = mean_ms(tracer, "optimizer.mft");
    let flow_ms = per_job(&|r| r.flow_seconds) * 1e3;
    m.set("optimizer.mft_ms", mft_ms);
    m.set("optimizer.iterations", per_job(&|r| r.iterations as f64));
    // No W-phase timer exists, so the non-flow optimizer time (TILOS
    // re-seed inside `minflotransit`, W-phase, STA checks) is derived.
    m.set_as("optimizer.rest_ms", mft_ms - flow_ms, Provenance::Derived);
    m.set("flow.solve_ms", flow_ms);
    m.set_as("flow.share", flow_ms / mft_ms, Provenance::Derived);
    m.set(
        "flow.cold_solves",
        per_job(&|r| r.dphase.cold_solves as f64),
    );
    m.set(
        "flow.warm_solves",
        per_job(&|r| r.dphase.warm_solves as f64),
    );
    // The SSP backend `mft size` uses reports no pivot work: a zero
    // here is a missing counter, not an absence of work.
    for (name, value) in [
        ("flow.pivots", per_job(&|r| r.dphase.pivots as f64)),
        (
            "flow.arcs_scanned",
            per_job(&|r| r.dphase.arcs_scanned as f64),
        ),
    ] {
        let provenance = if value == 0.0 {
            Provenance::NotInstrumented
        } else {
            Provenance::Measured
        };
        m.set_as(name, value, provenance);
    }
    let solves = per_job(&|r| r.wphase.solves as f64);
    m.set("smp.solves", solves);
    m.set_as(
        "smp.seeded_ratio",
        per_job(&|r| r.wphase.seeded_solves as f64) / solves.max(1e-12),
        Provenance::Derived,
    );
    m.set("smp.updates", per_job(&|r| r.wphase.updates as f64));
    m.set("smp.fallbacks", per_job(&|r| r.wphase.fallbacks as f64));
    m.set("sta.full_passes", per_job(&|r| r.timing.full_passes as f64));
    m.set(
        "sta.incremental_passes",
        per_job(&|r| r.timing.incremental_passes as f64),
    );
    m.set(
        "sta.arrival_evals",
        per_job(&|r| r.timing.vertices_touched as f64),
    );
    m.set(
        "sta.rebase_sparse",
        per_job(&|r| r.timing.rebase_sparse as f64),
    );
    m.set("sta.rebase_full", per_job(&|r| r.timing.rebase_full as f64));
}
