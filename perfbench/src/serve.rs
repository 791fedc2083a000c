//! `what_if_10k`: the sizing service in a child process (the same
//! `CircuitServer` `mft serve --listen` runs), driven over TCP by one
//! closed-loop connection of this process, then replayed in-process to
//! check the wire bytes and to attribute time to layers.
//!
//! A run is cut into [`SEGMENTS`] equal segments, each with a server of
//! its own: start, load, warm up (the set-up), then the timed stream.
//! The set-ups are thereby spread over the run, so their median reads
//! the host's speed over the whole run rather than over one instant.

use crate::plan::{self, Kind, Line, BIG, COMPANION};
use crate::report::{Metrics, Provenance};
use crate::rng::Rng;
use crate::stats::{geomean, median, summarize};
use crate::trace::Tracer;
use crate::{peak_rss_mb, RunOutcome};
use mft_core::{
    CircuitServer, LineClient, LoadRequest, ReadView, Request, RequestFrame, Response,
    ServerConfig, ServerListener, SessionConfig, SessionStats, SizingProblem, SizingSession,
};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Segments per run, each with its own server set-up; `setup_s` is the
/// median of their set-ups.
const SEGMENTS: usize = 5;
/// Relative slack of the timing check.
const DELAY_TOL: f64 = 1e-6;
/// Request lines generated per second of run time (an upper bound on
/// what the closed-loop connection can send).
const LINES_PER_SECOND: usize = 2000;
/// `rand10k` lines replayed on a fresh `ReadView` in the byte check,
/// per segment.
const WHAT_IF_SAMPLE: usize = 40;
/// Bound on any single response wait.
const READ_TIMEOUT: Duration = Duration::from_secs(150);

type Client = LineClient<TcpStream>;

/// The child process: installs `rand10k` into a `CircuitServer` with
/// one read replica, prints `listening on ADDR`, and serves until a
/// `shutdown` request.
pub fn serve_child() -> Result<(), String> {
    let server = CircuitServer::new(ServerConfig {
        replicas: 1,
        ..Default::default()
    });
    let problem = plan::prepare(&plan::big_netlist());
    match server.install(BIG, problem, SessionConfig::warm()) {
        Response::Loaded { .. } => {}
        other => return Err(format!("loading {BIG}: {}", other.to_json_line())),
    }
    let (listener, addr) = ServerListener::bind_tcp("127.0.0.1:0").map_err(|e| e.to_string())?;
    println!("listening on {addr}");
    // The parent holds this child's stdin open; end of file means the
    // parent is gone, so shut down instead of lingering.
    let watchdog = Arc::clone(&server);
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
        watchdog.begin_shutdown();
    });
    server.run(vec![listener]).map_err(|e| e.to_string())?;
    server.join_workers();
    Ok(())
}

/// A running server child and this process's connection to it. The
/// child is killed and reaped on drop if it is still running (a panic
/// here never leaves it behind).
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    client: Option<Client>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Server {
    fn start() -> Server {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the server child");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .expect("read the listening banner");
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected server banner `{banner}`"));
        let client = LineClient::connect(addr).expect("connect to the server");
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("set read timeout");
        Server {
            child,
            _stdout: stdout,
            client: Some(client),
        }
    }

    fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("connected until stopped")
    }

    /// Asks the server to shut down and waits (bounded) for the child
    /// to exit; `Drop` kills it past the bound.
    fn stop(mut self) {
        let _ = self.client().send_raw("{\"type\":\"shutdown\"}");
        let _ = self.client().recv();
        self.client = None;
        let deadline = Instant::now() + Duration::from_secs(20);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn call(client: &mut Client, line: &str) -> String {
    client.send_raw(line).expect("send a request");
    client
        .recv()
        .expect("read a response")
        .expect("server closed the connection")
}

/// The set-up lines and the timed lines.
struct Plan {
    /// The companion's `load` line, sent first in each set-up (not
    /// replayed: the replay builds its problems directly).
    load: String,
    /// Untimed warm-up lines ending each set-up, one of each kind the
    /// stream sends; the replay serves them before the timed lines.
    warmups: Vec<Line>,
    lines: Vec<Line>,
}

fn make_plan(seed: u64, seconds: f64, big: &SizingProblem) -> Plan {
    let count = (seconds * LINES_PER_SECOND as f64) as usize + 50;
    let (warmup, lines) = plan::what_if_10k_lines(seed, big.dag().num_vertices(), count);
    let load = RequestFrame::new(Request::Load(LoadRequest {
        bench: Some(plan::bench_text(plan::COMPANION_BENCH)),
        replicas: Some(0),
        ..Default::default()
    }))
    .for_circuit(COMPANION)
    .to_json_line();
    Plan {
        load,
        warmups: vec![
            warmup,
            plan::size_line(COMPANION, plan::SERVE_WARMUP_SPEC),
            plan::sweep_line(COMPANION, &plan::SERVE_WARMUP_SWEEP),
        ],
        lines,
    }
}

/// One timed exchange.
struct Exchange {
    kind: Kind,
    seconds: f64,
    response: String,
}

/// One segment: its set-up, then its stream, which starts at line
/// `from` of the plan.
struct Segment {
    setup_seconds: f64,
    elapsed: f64,
    from: usize,
    exchanges: Vec<Exchange>,
    /// `stats` responses per circuit, before and after the stream.
    stats: [[String; 2]; 2],
    rss: f64,
}

fn stats_line(circuit: &str) -> String {
    RequestFrame::new(Request::Stats)
        .for_circuit(circuit)
        .to_json_line()
}

fn read_stats(client: &mut Client) -> [String; 2] {
    [BIG, COMPANION].map(|c| call(client, &stats_line(c)))
}

fn run_segment(plan: &Plan, from: usize, seconds: f64) -> Segment {
    let start = Instant::now();
    let mut server = Server::start();
    for line in std::iter::once(&*plan.load).chain(plan.warmups.iter().map(|l| &*l.text)) {
        let response = call(server.client(), line);
        assert!(
            !response.contains("\"type\":\"error\""),
            "set-up request failed: {response}"
        );
    }
    let setup_seconds = start.elapsed().as_secs_f64();
    let before = read_stats(server.client());

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let client = server.client();
    let mut exchanges = Vec::new();
    for line in &plan.lines[from..] {
        if Instant::now() >= deadline {
            break;
        }
        let sent = Instant::now();
        let response = call(client, &line.text);
        exchanges.push(Exchange {
            kind: line.kind,
            seconds: sent.elapsed().as_secs_f64(),
            response,
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    if from + exchanges.len() == plan.lines.len() {
        eprintln!("warning: the stream ran out of request lines before its time was spent");
    }
    let after = read_stats(server.client());
    let rss = peak_rss_mb(server.child.id());
    server.stop();
    Segment {
        setup_seconds,
        elapsed,
        from,
        exchanges,
        stats: [0, 1].map(|c| [before[c].clone(), after[c].clone()]),
        rss,
    }
}

// --- response fields --------------------------------------------------------

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn num(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// Checks one response; returns the sized designs' area ratios it
/// carries, or `None` when the operation failed.
fn check_response(kind: Kind, response: &str) -> Option<Vec<f64>> {
    if field(response, "type") != Some(kind.name()) {
        return None;
    }
    match kind {
        Kind::Size => {
            let target = num(response, "target")?;
            (num(response, "achieved_delay")? <= target * (1.0 + DELAY_TOL))
                .then(|| vec![num(response, "area_ratio").unwrap_or(0.0)])
        }
        Kind::Sweep => {
            // Sweep points carry no delay on the wire: each must be
            // `ok`, and MINFLOTRANSIT's area can only improve on its
            // TILOS seed.
            let mut ratios = Vec::new();
            for point in response.split("{\"spec\":").skip(1) {
                let tilos = num(point, "tilos_area_ratio")?;
                let mft = num(point, "mft_area_ratio")?;
                if field(point, "status") != Some("ok")
                    || mft > tilos * (1.0 + 1e-9)
                    || mft < 1.0 - 1e-9
                {
                    return None;
                }
                ratios.push(mft);
            }
            (!ratios.is_empty()).then_some(ratios)
        }
        Kind::WhatIf => num(response, "critical_path").map(|_| Vec::new()),
    }
}

/// The delta of a numeric `stats` field over each segment's stream,
/// summed over segments and circuits.
fn stats_delta_sum(segments: &[Segment], key: &str) -> f64 {
    segments
        .iter()
        .flat_map(|s| &s.stats)
        .map(|[before, after]| num(after, key).unwrap_or(0.0) - num(before, key).unwrap_or(0.0))
        .sum()
}

// --- in-process replay -------------------------------------------------------

/// What the in-process replay of one request measured.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayTimes {
    parse: f64,
    serve: f64,
    serialize: f64,
}

/// In-process replicas of one server's state: a `ReadView` for
/// `rand10k`'s what-ifs and a warm session for the companion.
struct Replayer {
    view: ReadView,
    session: SizingSession,
    diff_hits: usize,
    full_timings: usize,
}

impl Replayer {
    fn new(big: &Arc<SizingProblem>, companion: &SizingProblem) -> Self {
        Replayer {
            view: ReadView::new(Arc::clone(big)),
            session: SizingSession::new(companion.clone(), SessionConfig::warm()),
            diff_hits: 0,
            full_timings: 0,
        }
    }

    /// Replays one line as the server would answer it.
    fn replay(
        &mut self,
        line: &Line,
        tracer: &mut Tracer,
        request: usize,
    ) -> (String, ReplayTimes) {
        let root = tracer.open("request", None, request);
        let parse = tracer.open("protocol.parse", Some(root), request);
        let frame = RequestFrame::from_json_line(&line.text).expect("benchmark lines parse");
        tracer.close(parse);
        let response = if line.circuit == BIG {
            let serve = tracer.open("readview.what_if", Some(root), request);
            let Request::WhatIf {
                sizes,
                spec,
                target,
            } = &frame.request
            else {
                panic!("{BIG} only receives what_if lines");
            };
            let target = target.or_else(|| spec.map(|s| s * self.view.dmin()));
            let (report, diffed) = self
                .view
                .what_if(sizes, target)
                .expect("candidates match the circuit");
            tracer.close(serve);
            if diffed {
                self.diff_hits += 1;
            } else {
                self.full_timings += 1;
            }
            Response::WhatIf(report)
        } else {
            let session = &mut self.session;
            tracer.span("session.serve", Some(root), request, || {
                session.serve(&frame.request)
            })
        };
        let ser = tracer.open("protocol.serialize", Some(root), request);
        let text = response.to_json_line_with_id(frame.id.as_deref());
        tracer.close(ser);
        tracer.close(root);
        let times = ReplayTimes {
            parse: tracer.duration(parse),
            serve: tracer.duration(root) - tracer.duration(parse) - tracer.duration(ser),
            serialize: tracer.duration(ser),
        };
        (text, times)
    }
}

/// Session counters that a replay moved.
fn stats_delta(after: &SessionStats, before: &SessionStats) -> SessionStats {
    let mut d = *after;
    d.requests -= before.requests;
    d.trajectory_bumps -= before.trajectory_bumps;
    d.trajectory_reused_bumps -= before.trajectory_reused_bumps;
    d.snapshot_hits -= before.snapshot_hits;
    d.tilos_timing = after.tilos_timing.since(&before.tilos_timing);
    d.optimizer_timing = after.optimizer_timing.since(&before.optimizer_timing);
    d.sensitivity = after.sensitivity.since(&before.sensitivity);
    d.wphase = after.wphase.since(&before.wphase);
    d.dphase.total_time = after.dphase.total_time - before.dphase.total_time;
    let (a, b) = (&after.dphase.flow, &before.dphase.flow);
    d.dphase.flow.cold_solves = a.cold_solves - b.cold_solves;
    d.dphase.flow.warm_solves = a.warm_solves - b.warm_solves;
    d.dphase.flow.pivots = a.pivots - b.pivots;
    d.dphase.flow.arcs_scanned = a.arcs_scanned - b.arcs_scanned;
    d
}

/// One replayed request.
struct ReplayRecord {
    kind: Kind,
    times: ReplayTimes,
    request_bytes: usize,
    response_bytes: usize,
}

/// What a replay found and measured.
#[derive(Default)]
struct Replay {
    mismatches: usize,
    records: Vec<ReplayRecord>,
    /// Companion session counters moved by the timed lines.
    session: SessionStats,
    diff_hits: usize,
    full_timings: usize,
}

/// Replays every segment in-process, each on a fresh replica of its
/// server fed the warm-ups and then the segment's lines in order, and
/// byte-compares the responses. Companion lines replay in full (warm
/// state makes a response depend on its history); a fresh `ReadView`
/// answers a candidate identically whatever came before, so `rand10k`
/// lines replay in full only where `sample` is `None`, else only those
/// it marks.
fn replay_all(
    plan: &Plan,
    problems: &(Arc<SizingProblem>, SizingProblem),
    segments: &[Segment],
    tracer: &mut Tracer,
    sample: Option<&[Vec<bool>]>,
) -> Replay {
    let mut out = Replay::default();
    let mut sessions = Vec::new();
    let mut request = 0;
    for (k, segment) in segments.iter().enumerate() {
        let mut replayer = Replayer::new(&problems.0, &problems.1);
        let mut off = Tracer::new(false);
        for line in &plan.warmups {
            replayer.replay(line, &mut off, 0);
        }
        replayer.diff_hits = 0;
        replayer.full_timings = 0;
        let before = replayer.session.stats();
        let lines = &plan.lines[segment.from..];
        for (i, (line, socket)) in lines.iter().zip(&segment.exchanges).enumerate() {
            request += 1;
            if line.circuit == BIG && sample.is_some_and(|s| !s[k][i]) {
                continue;
            }
            let (text, times) = replayer.replay(line, tracer, request);
            if text != socket.response {
                out.mismatches += 1;
            }
            out.records.push(ReplayRecord {
                kind: line.kind,
                times,
                request_bytes: line.text.len(),
                response_bytes: text.len(),
            });
        }
        sessions.push(stats_delta(&replayer.session.stats(), &before));
        out.diff_hits += replayer.diff_hits;
        out.full_timings += replayer.full_timings;
    }
    out.session = sessions
        .iter()
        .fold(SessionStats::default(), |acc, s| acc.merged(s));
    out
}

// --- the run -----------------------------------------------------------------

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunOutcome {
    // In-process copies of the served problems (the replay needs them;
    // the timed lines need the vertex count).
    let mut build = Tracer::new(trace);
    let big = Arc::new(build.span("pipeline.prepare", None, 0, || {
        plan::prepare(&plan::big_netlist())
    }));
    let companion_text = plan::bench_text(plan::COMPANION_BENCH);
    let companion_netlist = build.span("circuit.parse", None, 0, || {
        plan::parse(COMPANION, &companion_text)
    });
    let companion = build.span("pipeline.prepare", None, 0, || {
        plan::prepare(&companion_netlist)
    });
    let plan = make_plan(seed, seconds, &big);
    let problems = (big, companion);
    let inputs_seconds = build.origin_elapsed();

    // The segments; segment `k` streams from line `k·len/SEGMENTS` on,
    // so the run covers the whole plan.
    let segments: Vec<Segment> = (0..SEGMENTS)
        .map(|k| {
            run_segment(
                &plan,
                k * plan.lines.len() / SEGMENTS,
                seconds / SEGMENTS as f64,
            )
        })
        .collect();
    let setups: Vec<f64> = segments.iter().map(|s| s.setup_seconds).collect();
    let elapsed: f64 = segments.iter().map(|s| s.elapsed).sum();
    let exchanges = || segments.iter().flat_map(|s| &s.exchanges);

    // Operations: failures, latencies, sized designs.
    let mut failed = 0;
    let mut ratios = Vec::new();
    let mut latencies: [Vec<f64>; 3] = Default::default();
    for ex in exchanges() {
        match check_response(ex.kind, &ex.response) {
            Some(r) => ratios.extend(r),
            None => {
                eprintln!(
                    "what_if_10k: failed {}: {}",
                    ex.kind.name(),
                    &ex.response[..ex.response.len().min(200)]
                );
                failed += 1;
            }
        }
        latencies[ex.kind.index()].push(ex.seconds * 1e3);
    }
    let attempted = exchanges().count();
    let sizing_seconds: f64 = exchanges()
        .filter(|e| e.kind != Kind::WhatIf)
        .map(|e| e.seconds)
        .sum();

    // Byte check against the in-process replay of a seeded sample of
    // each segment's `rand10k` lines and every companion line. A traced
    // run replays everything twice, untraced then traced, so the two
    // times compare like for like.
    let sample: Option<Vec<Vec<bool>>> = (!trace).then(|| {
        segments
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let mut rng = Rng::new(seed, 11 + k as u64);
                let n = s.exchanges.len();
                let mut keep = vec![false; n];
                for _ in 0..WHAT_IF_SAMPLE.min(n) {
                    keep[rng.below(n)] = true;
                }
                keep
            })
            .collect()
    });
    let untraced = Instant::now();
    let checked = replay_all(
        &plan,
        &problems,
        &segments,
        &mut Tracer::new(false),
        sample.as_deref(),
    );
    let untraced_seconds = untraced.elapsed().as_secs_f64();
    eprintln!(
        "what_if_10k: inputs {inputs_seconds:.1} s, set-ups {:.2} s, timed {elapsed:.1} s, replay check {untraced_seconds:.1} s",
        setups.iter().sum::<f64>(),
    );
    if checked.mismatches > 0 {
        eprintln!(
            "what_if_10k: {} socket responses differ from the in-process replay",
            checked.mismatches
        );
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set(
        "peak_rss_mb",
        median(&segments.iter().map(|s| s.rss).collect::<Vec<_>>()),
    );
    m.set("req_per_s", attempted as f64 / elapsed);
    // Companion sizing throughput: sized jobs (a `size`, or one `sweep`
    // point) over the time the connection spent waiting for them.
    m.set("jobs_per_s", ratios.len() as f64 / sizing_seconds);
    m.set("area_ratio", geomean(&ratios));
    let summary = latencies.each_ref().map(|l| summarize(l));
    m.set("size_p50_ms", summary[Kind::Size.index()].p50);
    m.set("size_p90_ms", summary[Kind::Size.index()].p90);
    m.set("sweep_p50_ms", summary[Kind::Sweep.index()].p50);
    m.set("what_if_p50_ms", summary[Kind::WhatIf.index()].p50);
    m.set("what_if_p90_ms", summary[Kind::WhatIf.index()].p90);
    for kind in Kind::ALL {
        let s = summary[kind.index()];
        m.set(format!("latency_p99_ms.{}", kind.name()), s.p99);
        m.set(
            format!("latency_top_pct.{}", kind.name()),
            s.highest_valid_percentile,
        );
        m.set(format!("samples.{}", kind.name()), s.samples as f64);
    }
    m.set("server.errors", failed as f64);
    m.set(
        "server.flow_seconds",
        stats_delta_sum(&segments, "flow_seconds"),
    );

    let mut spans_json = None;
    if trace {
        let mut tracer = Tracer::new(true);
        let traced = Instant::now();
        let replay = replay_all(&plan, &problems, &segments, &mut tracer, None);
        let traced_seconds = traced.elapsed().as_secs_f64();
        assert_eq!(
            replay.mismatches, checked.mismatches,
            "the traced replay answers like the untraced one"
        );
        tracer.absorb(build);
        layer_metrics(&mut m, &segments, &tracer, &replay, &summary);
        m.set(
            "readview.invalidations",
            stats_delta_sum(&segments, "replica_invalidations"),
        );
        m.set_as(
            "trace.overhead_ratio",
            traced_seconds / untraced_seconds - 1.0,
            Provenance::Derived,
        );
        spans_json = Some(tracer.to_json());
    }

    RunOutcome {
        correct: failed == 0 && checked.mismatches == 0,
        attempted,
        failed,
        metrics: m,
        spans_json,
    }
}

fn layer_metrics(
    m: &mut Metrics,
    segments: &[Segment],
    tracer: &Tracer,
    replay: &Replay,
    socket: &[crate::stats::Summary; 3],
) {
    let records = &replay.records;
    let ops = records.len().max(1) as f64;
    let mean_ms = |name: &str| {
        let d = tracer.durations(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64 * 1e3
        }
    };
    m.set("circuit.parse_ms", mean_ms("circuit.parse"));
    m.set("pipeline.prepare_ms", mean_ms("pipeline.prepare"));
    let s = &replay.session;
    // The session seeds TILOS inside `serve`; nothing exports its time.
    m.set_as("tilos.seed_ms", 0.0, Provenance::NotInstrumented);
    m.set("tilos.bumps", s.trajectory_bumps as f64 / ops);
    let sens = s.sensitivity.hits + s.sensitivity.misses;
    m.set_as(
        "tilos.sens_hit_ratio",
        s.sensitivity.hits as f64 / sens.max(1) as f64,
        Provenance::Derived,
    );
    let sizing_serve: f64 = records
        .iter()
        .filter(|r| r.kind != Kind::WhatIf)
        .map(|r| r.times.serve)
        .sum();
    let mft_ms = sizing_serve / ops * 1e3;
    let flow_ms = s.dphase.total_time.as_secs_f64() / ops * 1e3;
    m.set_as("optimizer.mft_ms", mft_ms, Provenance::Derived);
    let iterations: f64 = segments
        .iter()
        .flat_map(|s| &s.exchanges)
        .filter(|e| e.kind != Kind::WhatIf)
        .map(|e| {
            e.response
                .split("\"iterations\":")
                .skip(1)
                .filter_map(|t| t.split([',', '}']).next()?.parse::<f64>().ok())
                .sum::<f64>()
        })
        .sum();
    let exchanged: usize = segments.iter().map(|s| s.exchanges.len()).sum();
    m.set("optimizer.iterations", iterations / exchanged.max(1) as f64);
    m.set_as("optimizer.rest_ms", mft_ms - flow_ms, Provenance::Derived);
    m.set("flow.solve_ms", flow_ms);
    m.set_as(
        "flow.share",
        if mft_ms > 0.0 { flow_ms / mft_ms } else { 0.0 },
        Provenance::Derived,
    );
    m.set("flow.cold_solves", s.dphase.flow.cold_solves as f64 / ops);
    m.set("flow.warm_solves", s.dphase.flow.warm_solves as f64 / ops);
    m.set("flow.pivots", s.dphase.flow.pivots as f64 / ops);
    m.set("flow.arcs_scanned", s.dphase.flow.arcs_scanned as f64 / ops);
    m.set("smp.solves", s.wphase.solves as f64 / ops);
    m.set_as(
        "smp.seeded_ratio",
        s.wphase.seeded_solves as f64 / s.wphase.solves.max(1) as f64,
        Provenance::Derived,
    );
    m.set("smp.updates", s.wphase.updates as f64 / ops);
    m.set("smp.fallbacks", s.wphase.fallbacks as f64 / ops);
    // `ReadView` exposes no engine counters, only whether each answer
    // took the diff path; each diff answer is one scoped rebase, each
    // other answer one full pass.
    let (hits, full) = (replay.diff_hits as f64, replay.full_timings as f64);
    m.set_as("sta.full_passes", full / ops, Provenance::Derived);
    m.set_as("sta.incremental_passes", hits / ops, Provenance::Derived);
    m.set_as("sta.arrival_evals", 0.0, Provenance::NotInstrumented);
    m.set_as("sta.rebase_sparse", hits / ops, Provenance::Derived);
    m.set_as("sta.rebase_full", full / ops, Provenance::Derived);
    m.set_as(
        "readview.diff_hit_ratio",
        hits / (hits + full).max(1.0),
        Provenance::Derived,
    );
    m.set(
        "readview.what_if_ms",
        median(&tracer.durations("readview.what_if")) * 1e3,
    );
    m.set("session.snapshot_hits", s.snapshot_hits as f64 / ops);
    let bumps = s.trajectory_bumps + s.trajectory_reused_bumps;
    m.set_as(
        "session.reused_bump_ratio",
        s.trajectory_reused_bumps as f64 / bumps.max(1) as f64,
        Provenance::Derived,
    );
    for kind in Kind::ALL {
        let mine: Vec<&ReplayRecord> = records.iter().filter(|r| r.kind == kind).collect();
        if mine.is_empty() {
            continue;
        }
        let k = kind.name();
        let col =
            |f: &dyn Fn(&ReplayRecord) -> f64| mine.iter().map(|r| f(r)).collect::<Vec<f64>>();
        m.set(
            format!("protocol.parse_us.{k}"),
            median(&col(&|r| r.times.parse)) * 1e6,
        );
        m.set(
            format!("protocol.serialize_us.{k}"),
            median(&col(&|r| r.times.serialize)) * 1e6,
        );
        let n = mine.len() as f64;
        m.set(
            format!("protocol.request_bytes.{k}"),
            col(&|r| r.request_bytes as f64).iter().sum::<f64>() / n,
        );
        m.set(
            format!("protocol.response_bytes.{k}"),
            col(&|r| r.response_bytes as f64).iter().sum::<f64>() / n,
        );
        // `rand10k` what-ifs are served by the `ReadView`, reported as
        // `readview.what_if_ms` above, not by a session.
        if kind != Kind::WhatIf {
            m.set(
                format!("session.serve_ms.{k}"),
                median(&col(&|r| r.times.serve)) * 1e3,
            );
        }
        let in_process = median(&col(&|r| r.times.parse + r.times.serve + r.times.serialize)) * 1e3;
        m.set_as(
            format!("server.overhead_ms.{k}"),
            socket[kind.index()].p50 - in_process,
            Provenance::Derived,
        );
    }
}
