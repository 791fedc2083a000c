//! Workload inputs, each a pure function of the seed: the one-shot job
//! list and the serialized request lines of the served workloads.

use crate::rng::Rng;
use mft_circuit::{parse_bench, write_bench, Netlist, SizingMode};
use mft_core::{Request, RequestFrame, SizingProblem};
use mft_delay::Technology;
use mft_gen::{ladder_rung, Benchmark};
use std::sync::Arc;

/// The one-shot suite, c432-like up to c3540-like (the paper's Table 1).
pub const SUITE: [Benchmark; 7] = [
    Benchmark::C432,
    Benchmark::C499,
    Benchmark::C880,
    Benchmark::C1355,
    Benchmark::C1908,
    Benchmark::C2670,
    Benchmark::C3540,
];
/// One-shot specs are drawn from `[SPEC_LO, SPEC_LO + SPEC_SPAN)`.
pub const SPEC_LO: f64 = 0.55;
pub const SPEC_SPAN: f64 = 0.20;
/// Approximate seconds of one suite pass; a run of `S` seconds sizes a
/// fixed `round(S / PASS_SECONDS)` passes, so every run of a given
/// length sizes the same mix of circuits.
pub const PASS_SECONDS: f64 = 3.0;
/// The untimed warm-up job of every one-shot set-up: this suite member
/// at this spec.
pub const ONESHOT_WARMUP_CIRCUIT: usize = 3;
pub const ONESHOT_WARMUP_SPEC: f64 = 0.65;

/// Served `size`/`sweep` specs.
pub const SERVE_SPECS: [f64; 6] = [0.60, 0.65, 0.70, 0.75, 0.80, 0.85];
/// The untimed warm-up `size` of the companion.
pub const SERVE_WARMUP_SPEC: f64 = 0.75;
/// The untimed warm-up `sweep` of the companion.
pub const SERVE_WARMUP_SWEEP: [f64; 3] = [0.85, 0.70, 0.60];
/// `what_if` requests report slack against this spec.
pub const WHAT_IF_SPEC: f64 = 0.9;

/// The two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OneshotSuite,
    WhatIf10k,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::OneshotSuite, Workload::WhatIf10k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotSuite => "oneshot_suite",
            Workload::WhatIf10k => "what_if_10k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `.bench` text of a suite benchmark.
pub fn bench_text(bench: Benchmark) -> String {
    let netlist = bench.generate().expect("suite benchmarks generate");
    write_bench(&netlist).expect("suite benchmarks are .bench-expressible")
}

/// The 10k-gate circuit `what_if_10k` streams its what-ifs against.
/// It holds complex cells `.bench` cannot express, so the server child
/// installs the generated netlist in-process.
pub const BIG: &str = "rand10k";

/// The generated `rand10k` ladder rung.
pub fn big_netlist() -> Netlist {
    ladder_rung(BIG)
        .expect("the ladder has rand10k")
        .generate()
        .expect("ladder rungs generate")
}

/// The small circuit `what_if_10k` sizes on its side stream, loaded
/// over the wire with no replicas.
pub const COMPANION: &str = "c432";
/// The suite benchmark the companion is.
pub const COMPANION_BENCH: Benchmark = Benchmark::C432;

/// Parses a `.bench` netlist (the `mft size` entry point).
pub fn parse(name: &str, text: &str) -> Netlist {
    parse_bench(name, text).expect("generated .bench text parses")
}

/// Prepares a gate-mode problem at the default technology (the `mft
/// size` and `mft serve` default).
pub fn prepare(netlist: &Netlist) -> SizingProblem {
    SizingProblem::prepare(netlist, &Technology::default(), SizingMode::Gate)
        .expect("generated circuits prepare")
}

/// One one-shot job: suite member `circuit` sized at `spec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    pub circuit: usize,
    pub spec: f64,
}

/// The one-shot job list, pass by pass. The spec range is cut into one
/// stratum per pass; each circuit visits every stratum once, in a
/// seeded rotation, at a seeded point of the stratum's middle half —
/// so each circuit's specs cover the range evenly whatever the seed.
/// The order within a pass is a seeded shuffle.
pub fn oneshot_jobs(seed: u64, passes: usize) -> Vec<Vec<Job>> {
    let mut rng = Rng::new(seed, 1);
    let rotations: Vec<usize> = SUITE.iter().map(|_| rng.below(passes)).collect();
    (0..passes)
        .map(|p| {
            let mut pass: Vec<Job> = rotations
                .iter()
                .enumerate()
                .map(|(circuit, r)| {
                    let stratum = (p + r) % passes;
                    let at = stratum as f64 + 0.25 + 0.5 * rng.unit();
                    Job {
                        circuit,
                        spec: SPEC_LO + SPEC_SPAN * at / passes as f64,
                    }
                })
                .collect();
            rng.shuffle(&mut pass);
            pass
        })
        .collect()
}

/// The kind of a served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Size,
    Sweep,
    WhatIf,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Size, Kind::Sweep, Kind::WhatIf];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Size => "size",
            Kind::Sweep => "sweep",
            Kind::WhatIf => "what_if",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One serialized request line (shared, so a stream that revisits a
/// candidate holds its 21 KB once).
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub circuit: &'static str,
    pub kind: Kind,
    pub text: Arc<str>,
}

impl Line {
    fn new(circuit: &'static str, request: Request) -> Line {
        let kind = match &request {
            Request::Size { .. } => Kind::Size,
            Request::Sweep { .. } => Kind::Sweep,
            Request::WhatIf { .. } => Kind::WhatIf,
            other => panic!("workloads send no `{}` requests", other.wire_type()),
        };
        Line {
            circuit,
            kind,
            text: RequestFrame::new(request)
                .for_circuit(circuit)
                .to_json_line()
                .into(),
        }
    }
}

/// A `size` line at `spec`.
pub fn size_line(circuit: &'static str, spec: f64) -> Line {
    Line::new(
        circuit,
        Request::Size {
            spec: Some(spec),
            target: None,
            return_sizes: false,
        },
    )
}

/// Candidate sizes whose per-gate distribution is stationary under the
/// walk: most gates stay at the minimum size, the rest take one of a
/// few short-to-print upsizes.
struct CandidateWalk {
    sizes: Vec<f64>,
    churn: (f64, f64),
}

impl CandidateWalk {
    const UPSIZES: [f64; 5] = [1.5, 2.0, 2.5, 3.0, 4.0];

    fn draw(rng: &mut Rng) -> f64 {
        if rng.unit() < 0.9 {
            1.0
        } else {
            Self::UPSIZES[rng.below(Self::UPSIZES.len())]
        }
    }

    fn new(vertices: usize, churn: (f64, f64), rng: &mut Rng) -> Self {
        CandidateWalk {
            sizes: (0..vertices).map(|_| Self::draw(rng)).collect(),
            churn,
        }
    }

    /// Changes the size of a seeded fraction (within `churn`) of the
    /// gates. Each move redraws one gate from the stationary mix, so the
    /// mix is preserved; moves that redraw the same size do not count.
    fn step(&mut self, rng: &mut Rng) -> &[f64] {
        let n = self.sizes.len();
        let fraction = self.churn.0 + (self.churn.1 - self.churn.0) * rng.unit();
        let changes = ((fraction * n as f64).round() as usize).max(1);
        let mut changed = 0;
        while changed < changes {
            let v = rng.below(n);
            let size = Self::draw(rng);
            if size != self.sizes[v] {
                self.sizes[v] = size;
                changed += 1;
            }
        }
        &self.sizes
    }
}

fn what_if_line(circuit: &'static str, sizes: &[f64]) -> Line {
    Line::new(
        circuit,
        Request::WhatIf {
            sizes: sizes.to_vec(),
            spec: Some(WHAT_IF_SPEC),
            target: None,
        },
    )
}

/// A `sweep` line over `specs`.
pub fn sweep_line(circuit: &'static str, specs: &[f64]) -> Line {
    Line::new(
        circuit,
        Request::Sweep {
            specs: specs.to_vec(),
        },
    )
}

/// A `sweep` of three seeded specs of [`SERVE_SPECS`].
fn seeded_sweep_line(circuit: &'static str, rng: &mut Rng) -> Line {
    let mut specs = SERVE_SPECS.to_vec();
    rng.shuffle(&mut specs);
    sweep_line(circuit, &specs[..3])
}

/// Served `size` specs: seeded permutations of [`SERVE_SPECS`] back to
/// back, so every spec recurs equally often whatever the seed.
struct SpecCycle {
    pending: Vec<f64>,
}

impl SpecCycle {
    fn next(&mut self, rng: &mut Rng) -> f64 {
        if self.pending.is_empty() {
            self.pending = SERVE_SPECS.to_vec();
            rng.shuffle(&mut self.pending);
        }
        self.pending.pop().expect("refilled above")
    }
}

/// A request stream built from blocks of fixed composition — `sizes`
/// size, `sweeps` sweep and the rest what_if lines per `block` — in a
/// seeded order within each block, so the mix is exact over any whole
/// number of blocks.
fn mixed_lines(
    rng: &mut Rng,
    count: usize,
    (block, sizes, sweeps): (usize, usize, usize),
    sizing: &'static str,
    mut what_if: impl FnMut(&mut Rng) -> Line,
) -> Vec<Line> {
    let mut specs = SpecCycle {
        pending: Vec::new(),
    };
    let mut lines = Vec::with_capacity(count);
    while lines.len() < count {
        let mut kinds: Vec<Kind> = (0..block)
            .map(|i| match i {
                i if i < sizes => Kind::Size,
                i if i < sizes + sweeps => Kind::Sweep,
                _ => Kind::WhatIf,
            })
            .collect();
        rng.shuffle(&mut kinds);
        for kind in kinds.into_iter().take(count - lines.len()) {
            lines.push(match kind {
                Kind::Size => size_line(sizing, specs.next(rng)),
                Kind::Sweep => seeded_sweep_line(sizing, rng),
                Kind::WhatIf => what_if(rng),
            });
        }
    }
    lines
}

/// Distinct `what_if_10k` candidates; the stream walks this seeded path
/// forward and back, so every step is still one walk step from the
/// previous candidate while the lines held in memory stay bounded.
pub const WHAT_IF_10K_PATH: usize = 1500;

/// `what_if_10k` lines: the warm-up candidate first, then a random walk
/// at 0.5–5% churn against `rand10k`, back and forth along a path of
/// [`WHAT_IF_10K_PATH`] candidates; per block of 500 lines, three
/// `size` and one `sweep` go to the small companion instead.
pub fn what_if_10k_lines(seed: u64, vertices: usize, count: usize) -> (Line, Vec<Line>) {
    let mut rng = Rng::new(seed, 3);
    let mut walk = CandidateWalk::new(vertices, (0.005, 0.05), &mut rng);
    let warmup = what_if_line(BIG, &walk.sizes);
    let path: Vec<Line> = (0..WHAT_IF_10K_PATH.min(count).max(2))
        .map(|_| what_if_line(BIG, walk.step(&mut rng)))
        .collect();
    let mut at = 0usize;
    let lines = mixed_lines(&mut rng, count, (500, 3, 1), COMPANION, |_| {
        let turn = at % (2 * path.len() - 2);
        at += 1;
        path[if turn < path.len() {
            turn
        } else {
            2 * path.len() - 2 - turn
        }]
        .clone()
    });
    (warmup, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(lines: &[Line]) -> Vec<&str> {
        lines.iter().map(|l| &*l.text).collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(oneshot_jobs(7, 6), oneshot_jobs(7, 6));
        assert_ne!(oneshot_jobs(7, 6), oneshot_jobs(8, 6));
        let (wa, la) = what_if_10k_lines(7, 500, 1000);
        let (wb, lb) = what_if_10k_lines(7, 500, 1000);
        assert_eq!(wa, wb);
        assert_eq!(texts(&la), texts(&lb));
        let (wc, lc) = what_if_10k_lines(8, 500, 1000);
        assert_ne!(wa, wc);
        assert_ne!(texts(&la), texts(&lc));
    }

    #[test]
    fn one_shot_specs_cover_every_stratum_once_per_circuit() {
        for seed in [1, 2, 3] {
            let passes = oneshot_jobs(seed, 7);
            for circuit in 0..SUITE.len() {
                let mut strata: Vec<usize> = passes
                    .iter()
                    .flatten()
                    .filter(|j| j.circuit == circuit)
                    .map(|j| ((j.spec - SPEC_LO) / SPEC_SPAN * 7.0) as usize)
                    .collect();
                strata.sort_unstable();
                assert_eq!(strata, (0..7).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn the_served_mix_has_the_stated_shares() {
        let (_, lines) = what_if_10k_lines(3, 10_000, 1000);
        let count = |k: Kind| lines.iter().filter(|l| l.kind == k).count();
        assert_eq!(
            [count(Kind::Size), count(Kind::Sweep), count(Kind::WhatIf)],
            [6, 2, 992]
        );
        let what_if = lines
            .iter()
            .filter(|l| l.kind == Kind::WhatIf)
            .collect::<Vec<_>>();
        assert!(what_if.iter().all(|l| l.circuit == BIG));
        assert!(lines
            .iter()
            .filter(|l| l.kind != Kind::WhatIf)
            .all(|l| l.circuit == COMPANION));
        let bytes = what_if.iter().map(|l| l.text.len()).sum::<usize>() / what_if.len();
        assert!(
            (15_000..30_000).contains(&bytes),
            "what_if lines are ≈21 KB, got {bytes}"
        );
        // The walk never repeats a candidate back to back.
        assert!(what_if.windows(2).all(|w| w[0].text != w[1].text));
        let (_, short) = what_if_10k_lines(3, 500, 40);
        assert!(short
            .iter()
            .filter(|l| l.kind == Kind::WhatIf)
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| w[0].text != w[1].text));
    }

    /// Any seed keeps every spec reachable: TILOS (which seeds every
    /// sizing) meets each one-shot spec drawn under several seeds and
    /// every served spec on the companion.
    #[test]
    fn every_seeded_spec_is_reachable() {
        let problems: Vec<SizingProblem> = SUITE
            .iter()
            .map(|b| prepare(&parse(b.name(), &bench_text(*b))))
            .collect();
        for seed in [11, 12, 13] {
            for job in oneshot_jobs(seed, 7).iter().flatten() {
                let problem = &problems[job.circuit];
                problem
                    .tilos(job.spec * problem.dmin())
                    .unwrap_or_else(|e| {
                        panic!("{} at {}: {e}", SUITE[job.circuit].name(), job.spec)
                    });
            }
        }
        let companion = prepare(&parse(COMPANION, &bench_text(COMPANION_BENCH)));
        for spec in SERVE_SPECS.iter().chain([&SERVE_WARMUP_SPEC]) {
            assert!(
                companion.tilos(spec * companion.dmin()).is_ok(),
                "{COMPANION} at {spec}"
            );
        }
    }
}
