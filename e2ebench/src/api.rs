//! The benchmark's only door into the library.
//!
//! Every call into the `simgen-*` crates goes through this file, and
//! results come back as plain benchmark-owned data. When the
//! `check_equivalence*` / `run_*` wrapper ladders are collapsed into
//! one entry point, this is the only file that has to change.
//!
//! The benchmark measures each layer from outside: it times its own
//! calls, reads the statistics the library already returns
//! (`CecReport`, `SweepReport`, `ServeStats` through the `status` and
//! `health` verbs) and, in traced runs only, the `Observer` phase
//! walls. Nothing here adds instrumentation inside the library.

use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use simgen_cec::{check_equivalence_observed, CecVerdict, Deadline, ParallelSweeper, SweepConfig};
use simgen_core::{PatternGenerator, RandomPatterns, SimGen, SimGenConfig};
use simgen_netlist::{aiger, blif, miter, stack, LutNetwork, NodeKind, TruthTable};
use simgen_obs::{Observer, Phase};
use simgen_serve::{JobRequest, ServeOptions, Server};
use simgen_sim::{EquivClasses, SimResult};

/// An opaque LUT network. Callers only pass it back into this module.
pub type Net = LutNetwork;

/// The workspace's JSON value, for the benchmark's own result files.
pub use simgen_obs::Json;

/// LUT size of every mapping in the benchmark (the paper's `if -K 6`).
const K: usize = 6;

/// A benchmark and its function-preserving rewrite, both LUT-mapped.
pub struct Pair {
    pub left: Net,
    pub right: Net,
}

/// The rewrite miter of a named benchmark (`cec_instance(name, 6)`).
pub fn rewrite_pair(name: &str) -> Pair {
    let inst = simgen_workloads::cec_instance(name, K)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    Pair {
        left: inst.left,
        right: inst.right,
    }
}

/// Both sides of `pair` stacked `copies` high (`&putontop`).
pub fn stack_pair(pair: &Pair, copies: usize) -> Pair {
    Pair {
        left: stack::put_on_top(&pair.left, copies),
        right: stack::put_on_top(&pair.right, copies),
    }
}

/// The shared-PI union of both sides: the sweeping input.
pub fn combine(pair: &Pair) -> Net {
    miter::combine(&pair.left, &pair.right)
        .expect("both sides share the pi interface")
        .network
}

/// LUT count of a network.
pub fn luts(net: &Net) -> u64 {
    net.num_luts() as u64
}

/// Primary-input count of a network.
pub fn num_pis(net: &Net) -> usize {
    net.num_pis()
}

/// Output values of `net` under one input vector.
pub fn eval(net: &Net, inputs: &[bool]) -> Vec<bool> {
    net.eval_pos(inputs)
}

/// The LUT-driven output pairs `(a_i, b_i)` of a combined network
/// whose first half of outputs belongs to the left design, as node
/// indices. The two drivers of a pair are equivalent by construction,
/// so no simulation may ever separate them.
pub fn output_driver_pairs(combined: &Net) -> Vec<(usize, usize)> {
    let pos = combined.pos();
    let half = pos.len() / 2;
    pos[..half]
        .iter()
        .zip(&pos[half..])
        .filter(|(a, b)| !combined.is_pi(a.node) && !combined.is_pi(b.node))
        .map(|(a, b)| (a.node.index(), b.node.index()))
        .collect()
}

/// A copy of `net` with one truth-table bit of one LUT flipped, or
/// `None` when the picked node is not a LUT with inputs. `node_pick`
/// and `bit_pick` are reduced modulo the node count and table size.
pub fn flip_lut_bit(net: &Net, node_pick: u64, bit_pick: u64) -> Option<Net> {
    let target = (node_pick % net.len() as u64) as usize;
    let mut out = LutNetwork::with_name(format!("{}_bug", net.name()));
    for id in net.node_ids() {
        let new_id = match net.kind(id) {
            NodeKind::Pi { .. } => out.add_pi(net.node_name(id).unwrap_or("pi").to_string()),
            NodeKind::Lut { fanins, tt } => {
                let tt = if id.index() == target {
                    if fanins.is_empty() {
                        return None;
                    }
                    let bit = bit_pick % (1u64 << fanins.len());
                    TruthTable::from_bits(fanins.len(), tt.bits() ^ (1u64 << bit))
                        .expect("flipping a bit keeps the arity")
                } else {
                    *tt
                };
                out.add_lut(fanins.clone(), tt)
                    .expect("copy keeps topological order")
            }
        };
        debug_assert_eq!(new_id, id);
    }
    for po in net.pos() {
        out.add_po(po.node, po.name.clone());
    }
    Some(out)
}

/// Writes the original AIG of a named benchmark as ASCII AIGER.
pub fn write_aag(name: &str, path: &Path) -> std::io::Result<()> {
    let aig =
        simgen_workloads::build_aig(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    aiger::write_ascii(&aig, &mut w)?;
    w.flush()
}

/// Writes a network as BLIF.
pub fn write_blif(net: &Net, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    blif::write(net, &mut w)?;
    w.flush()
}

/// Time to parse an AIGER file, map it to LUTs, and parse a BLIF file
/// — the file work the daemon repeats on every submitted job.
pub struct LoadTimes {
    pub parse: Duration,
    pub map: Duration,
}

/// Re-reads a submitted job's files the way the daemon does (AIGER is
/// parsed then mapped, BLIF is parsed) and times each step.
pub fn load_job(aag: &Path, blif_path: &Path) -> std::io::Result<(Net, Net, LoadTimes)> {
    let invalid = |e: simgen_netlist::NetlistError| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    };
    let t = Instant::now();
    let aig = aiger::read(BufReader::new(std::fs::File::open(aag)?)).map_err(invalid)?;
    let parse_a = t.elapsed();
    let t = Instant::now();
    let a = simgen_mapping::map_to_luts(&aig, K);
    let map = t.elapsed();
    let t = Instant::now();
    let b = blif::read(BufReader::new(std::fs::File::open(blif_path)?)).map_err(invalid)?;
    let parse = parse_a + t.elapsed();
    Ok((a, b, LoadTimes { parse, map }))
}

/// Pattern-generation strategy under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's generator with its default configuration.
    SimGen,
    /// The paper's RandS baseline: 64 random vectors per iteration.
    RandS,
}

impl Strategy {
    fn generator(self, seed: u64) -> Box<dyn PatternGenerator> {
        match self {
            Strategy::SimGen => Box::new(SimGen::new(SimGenConfig::default().with_seed(seed))),
            Strategy::RandS => Box::new(RandomPatterns::new(seed, 64)),
        }
    }
}

/// What the bench-side generator wrapper saw.
#[derive(Clone, Debug, Default)]
pub struct GenStats {
    /// `generate` calls.
    pub calls: u64,
    /// Vectors returned.
    pub vectors: u64,
    /// Class cost (Eq. 5) handed to the first `generate` call.
    pub first_cost: Option<u64>,
    /// Start and end of every `generate` call (traced runs only).
    pub intervals: Vec<(Instant, Instant)>,
}

/// Wraps the generator under test: times each `generate` call and
/// reads the class cost it is given, forwarding everything else.
struct Probe {
    inner: Box<dyn PatternGenerator>,
    stats: GenStats,
    traced: bool,
}

impl PatternGenerator for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn generate(&mut self, net: &LutNetwork, classes: &EquivClasses) -> Vec<Vec<bool>> {
        self.stats.first_cost.get_or_insert_with(|| classes.cost());
        let start = Instant::now();
        let vectors = self.inner.generate(net, classes);
        if self.traced {
            self.stats.intervals.push((start, Instant::now()));
        }
        self.stats.calls += 1;
        self.stats.vectors += vectors.len() as u64;
        vectors
    }

    fn observe_counterexample(&mut self, vector: &[bool]) {
        self.inner.observe_counterexample(vector);
    }

    fn observe_simulation(&mut self, sim: &SimResult) {
        self.inner.observe_simulation(sim);
    }
}

/// Library phase walls of one call, in seconds (traced runs only;
/// zero otherwise). The phases are disjoint intervals of the call.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseWalls {
    /// Kernel compilation.
    pub compile: f64,
    /// Random and guided simulation with class refinement.
    pub sim: f64,
    /// Batched counterexample resimulation.
    pub resim: f64,
    /// Internal-pair SAT resolution plus output proofs.
    pub sat: f64,
}

impl PhaseWalls {
    fn read(obs: &Observer) -> PhaseWalls {
        let s = |p: Phase| obs.recorder.wall(p).as_secs_f64();
        PhaseWalls {
            compile: s(Phase::KernelCompile),
            sim: s(Phase::RandomSim) + s(Phase::GuidedSim),
            resim: s(Phase::CexResim),
            sat: s(Phase::SatResolution) + s(Phase::OutputProofs),
        }
    }
}

/// Verdict of one equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Equivalent,
    NotEquivalent { po_index: usize, witness: Vec<bool> },
    Inconclusive,
}

/// Work counters of one call, as the library reports them.
#[derive(Clone, Debug, Default)]
pub struct Work {
    /// Internal-pair SAT calls of the sweep.
    pub sweep_calls: u64,
    /// Output-pair SAT calls.
    pub output_calls: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub decisions: u64,
    /// Internal pairs abandoned without an answer.
    pub aborted: u64,
    /// Internal pairs disproved by a counterexample.
    pub disproved: u64,
    /// Class cost (Eq. 5) after the simulation phase.
    pub cost_after_sim: u64,
    /// Lane words the simulation kernels computed.
    pub exec_words: u64,
    pub steals: u64,
    pub escalations: u64,
    /// Dispatch rounds of the sweep.
    pub rounds: u64,
    /// Worker-pool tasks the simulation kernels enqueued.
    pub pool_tasks: u64,
    /// Proof-cache lookups answered from, and missing in, the cache.
    pub pair_hits: u64,
    pub pair_misses: u64,
}

/// Result of [`check`] or [`sim_phase`].
pub struct Outcome {
    pub verdict: Verdict,
    /// The call reached an answer: a CEC verdict other than
    /// inconclusive, or a simulation phase that finished before its
    /// deadline.
    pub decided: bool,
    pub work: Work,
    pub gen: GenStats,
    pub phases: PhaseWalls,
}

fn sweep_work(stats: &simgen_cec::SweepStats, cost_after_sim: u64) -> Work {
    let dispatch = stats.dispatch.clone().unwrap_or_default();
    Work {
        sweep_calls: stats.sat_calls,
        conflicts: stats.solver.conflicts,
        propagations: stats.solver.propagations,
        decisions: stats.solver.decisions,
        aborted: stats.aborted,
        disproved: stats.disproved,
        cost_after_sim,
        exec_words: stats.exec.exec_words,
        steals: dispatch.total_steals(),
        escalations: dispatch.total_escalations(),
        rounds: dispatch.rounds,
        pool_tasks: stats.pool.tasks,
        ..Work::default()
    }
}

fn observer(traced: bool) -> Observer {
    // Phase walls only: the event ring is not needed by the benchmark.
    Observer::with(traced, false)
}

/// Full CEC of `pair` through the product flow
/// (`check_equivalence_under` semantics: the observer is disabled
/// unless `traced`).
pub fn check(
    pair: &Pair,
    strategy: Strategy,
    seed: u64,
    jobs: usize,
    deadline: Duration,
    traced: bool,
) -> Outcome {
    let mut probe = Probe {
        inner: strategy.generator(seed),
        stats: GenStats::default(),
        traced,
    };
    let cfg = SweepConfig {
        seed,
        jobs,
        ..SweepConfig::default()
    };
    let mut obs = observer(traced);
    let report = check_equivalence_observed(
        &pair.left,
        &pair.right,
        &mut probe,
        cfg,
        &Deadline::after(deadline),
        &mut obs,
    )
    .expect("rewrite pairs share their interface");
    let mut work = sweep_work(&report.sweep_stats, report.sweep_cost_after_sim);
    work.output_calls = report.output_sat_calls;
    work.conflicts += report.output_solver.conflicts;
    work.propagations += report.output_solver.propagations;
    work.decisions += report.output_solver.decisions;
    let verdict = match report.verdict {
        CecVerdict::Equivalent => Verdict::Equivalent,
        CecVerdict::NotEquivalent { po_index, witness } => {
            Verdict::NotEquivalent { po_index, witness }
        }
        CecVerdict::Inconclusive { .. } => Verdict::Inconclusive,
    };
    Outcome {
        decided: verdict != Verdict::Inconclusive,
        verdict,
        work,
        gen: probe.stats,
        phases: PhaseWalls::read(&obs),
    }
}

/// The simulation phase only (`run_sat: false`) of a sweep of `net`
/// with SimGen at jobs=1 — the paper's Table 1 / Figure 6 measurement.
pub fn sim_phase(net: &Net, seed: u64, deadline: Duration, traced: bool) -> Outcome {
    let mut probe = Probe {
        inner: Strategy::SimGen.generator(seed),
        stats: GenStats::default(),
        traced,
    };
    let cfg = SweepConfig {
        seed,
        run_sat: false,
        ..SweepConfig::default()
    };
    let mut obs = observer(traced);
    let report = ParallelSweeper::new(cfg).run_observed(
        net,
        &mut probe,
        &Deadline::after(deadline),
        &mut obs,
    );
    Outcome {
        verdict: Verdict::Inconclusive,
        decided: !report.interrupted,
        work: sweep_work(&report.stats, report.cost_after_sim),
        gen: probe.stats,
        phases: PhaseWalls::read(&obs),
    }
}

/// Name and width of the SIMD level the simulation kernels use.
pub fn simd_level() -> String {
    format!("{:?}", simgen_sim::active_simd_level())
}

/// An in-process `simgen serve` daemon.
pub struct Daemon {
    server: Server,
}

/// Starts a daemon with a persistent cache and a checkpoint directory
/// (so every job writes its manifest and sweep journal).
pub fn start_daemon(
    socket: &Path,
    cache_dir: &Path,
    checkpoint_dir: &Path,
    default_timeout: f64,
) -> std::io::Result<Daemon> {
    let mut opts = ServeOptions::new(socket);
    opts.cache_dir = Some(cache_dir.to_path_buf());
    opts.checkpoint_dir = Some(checkpoint_dir.to_path_buf());
    opts.default_timeout = Some(default_timeout);
    Ok(Daemon {
        server: Server::start(opts)?,
    })
}

impl Daemon {
    /// Drains the daemon and waits for every one of its threads.
    pub fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }
}

/// Terminal answer to one submitted job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Verdict(Verdict),
    /// The daemon shed the job (queue pressure or queue deadline).
    Shed,
    /// An `error` response, e.g. `overloaded`.
    Error(String),
}

/// One parsed `submit` response.
#[derive(Clone, Debug)]
pub struct Reply {
    pub answer: Answer,
    /// `hit`, `miss` or `replayed`; empty for errors and shed jobs.
    pub cache: String,
    /// Deterministic counters of the job's run report (live runs and
    /// cache hits carry the same stored report).
    pub sat_calls: u64,
    pub cost_after_sim: u64,
    pub pair_hits: u64,
    pub pair_misses: u64,
}

/// Submits one job (SimGen, jobs=1, k=6) and waits for its answer.
pub fn submit(socket: &Path, id: &str, a: &Path, b: &Path, seed: u64) -> std::io::Result<Reply> {
    let request = JobRequest {
        id: id.to_string(),
        a: a.to_string_lossy().into_owned(),
        b: b.to_string_lossy().into_owned(),
        seed,
        ..JobRequest::default()
    };
    let line = simgen_serve::submit(socket, &request)?;
    parse_reply(&line).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed response: {line}"),
        )
    })
}

fn parse_reply(line: &str) -> Option<Reply> {
    let json = Json::parse(line).ok()?;
    let path_u64 = |path: &[&str]| -> u64 {
        let mut node = json.get("report");
        for key in path {
            node = node.and_then(|n| n.get(key));
        }
        node.and_then(Json::as_u64).unwrap_or(0)
    };
    let answer = if let Some(err) = json.get("error").and_then(Json::as_str) {
        Answer::Error(err.to_string())
    } else {
        match json.get("status").and_then(Json::as_str)? {
            "equivalent" => Answer::Verdict(Verdict::Equivalent),
            "not_equivalent" => Answer::Verdict(Verdict::NotEquivalent {
                po_index: json.get("po_index").and_then(Json::as_u64)? as usize,
                witness: json
                    .get("witness")
                    .and_then(Json::as_str)?
                    .chars()
                    .map(|c| c == '1')
                    .collect(),
            }),
            "inconclusive" => Answer::Verdict(Verdict::Inconclusive),
            "shed" => Answer::Shed,
            _ => return None,
        }
    };
    Some(Reply {
        answer,
        cache: json
            .get("cache")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        sat_calls: path_u64(&["sat", "calls"]),
        cost_after_sim: path_u64(&["sweep", "cost_after_sim"]),
        pair_hits: path_u64(&["counters", "cache_hits"]),
        pair_misses: path_u64(&["counters", "cache_misses"]),
    })
}

/// The daemon's lifetime totals, read through its `status` and
/// `health` verbs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounts {
    pub jobs_done: u64,
    pub job_hits: u64,
    pub rejected: u64,
    pub errors: u64,
    pub jobs_shed: u64,
}

pub fn serve_counts(socket: &Path) -> std::io::Result<ServeCounts> {
    let status = simgen_serve::query_status(socket)?;
    let health = simgen_serve::query_health(socket)?;
    Ok(ServeCounts {
        jobs_done: status.jobs_done,
        job_hits: status.job_hits,
        rejected: status.rejected,
        errors: status.errors,
        jobs_shed: health.jobs_shed,
    })
}
