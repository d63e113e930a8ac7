//! The four workloads: set-up, passes, and the correctness oracle.
//!
//! A run runs one untimed warm-up instance, sets up its inputs, then
//! runs a fixed number of passes ([`Workload::passes`]) over a fixed
//! unit list, so every run of every commit does the same work. Timed
//! set-up rounds run before each pass, so they are spread over the run
//! like the passes are; `setup_s` is their median. The host-speed
//! probe ([`crate::probe`]) runs around each set-up round, each batch
//! instance and each serve pass, outside the timed spans. The host's
//! speed drifts over seconds, and unscaled rounds taken back to back
//! all caught the same moment: their median moved by up to half from
//! run to run.
//!
//! The benchmark seed draws the traffic: the order in which each pass
//! after the first visits its instances and the order of each serve
//! client's jobs.
//! The work itself is fixed: the instances, the serve mutants, and the
//! pattern generators' seeds (one per instance, the same in every
//! pass). Every run therefore does the same proof work, every pass
//! repeats it, and the run-to-run spread measures the host. Drawing
//! generator seeds from the benchmark seed made a cec-simgen pass vary
//! by 6.6% (coefficient of variation) from seed to seed, and drawing
//! mutants made serve-mixed's peak RSS vary from 25 to 39 MiB, both
//! beyond the bounds.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::api::{self, Answer, Outcome, Pair, Reply, ServeCounts, Strategy, Verdict, Work};
use crate::spans::{Recorder, Span};

/// Timed set-up rounds before each pass, after one untimed round: the
/// first round in a fresh process varies by a third from run to run
/// (first-touch page faults), later ones by a few percent.
const SETUP_ROUNDS_PER_PASS: usize = 3;
/// Wall-clock deadline of one CEC check or simulation phase.
const UNIT_DEADLINE: Duration = Duration::from_secs(20);
/// Deadline the daemon applies to every job.
const SERVE_TIMEOUT_S: f64 = 60.0;
/// Closed-loop client threads of serve-mixed (at most `nproc` = 2).
const SERVE_CLIENTS: usize = 2;
/// Per round, each client sends every circuit's rewrite job three
/// times and its mutant job twice (60% equivalent), in a seeded order.
const REWRITE_REPEATS: usize = 3;
const MUTANT_REPEATS: usize = 2;
const SERVE_ROUNDS: usize = 5;
/// Seeded vectors a mutant gets to show a witness before it is
/// dropped, and mutants tried per circuit.
const MUTANT_VECTORS: usize = 256;
const MUTANT_ATTEMPTS: usize = 64;

/// Rewrite miters of cec-simgen and cec-rands-j2: all three suites,
/// below a second each. Smoke runs take the first two.
const CEC_SET: [&str; 8] = [
    "dec", "priority", "e64", "misex3c", "des", "arbiter", "m_ctrl", "b14_C",
];
/// Stacked miters of simphase-stacked, with the paper's copy counts.
const STACKED_SET: [(&str, usize); 5] = [
    ("square", 7),
    ("b22_C", 6),
    ("b15_C2", 8),
    ("b21_C2", 8),
    ("arbiter", 15),
];
/// Circuits behind the ten distinct serve-mixed jobs.
const SERVE_SET: [&str; 5] = ["dec", "priority", "des", "arbiter", "b14_C"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CecSimgen,
    CecRandsJ2,
    SimphaseStacked,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CecSimgen,
        Workload::CecRandsJ2,
        Workload::SimphaseStacked,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CecSimgen => "cec-simgen",
            Workload::CecRandsJ2 => "cec-rands-j2",
            Workload::SimphaseStacked => "simphase-stacked",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured passes of a full run: 19–26 s of passes on the
    /// reference host (2 vCPUs, AVX-512), where a pass takes 6.1, 4.7,
    /// 7.3 and 4.0 s (serve-mixed's cold pass 0: 10 s).
    pub fn passes(self) -> usize {
        match self {
            Workload::CecSimgen => 4,
            Workload::CecRandsJ2 => 4,
            Workload::SimphaseStacked => 3,
            Workload::ServeMixed => 5,
        }
    }

    fn strategy(self) -> Strategy {
        if self == Workload::CecRandsJ2 {
            Strategy::RandS
        } else {
            Strategy::SimGen
        }
    }

    fn jobs(self) -> usize {
        if self == Workload::CecRandsJ2 {
            2
        } else {
            1
        }
    }
}

#[derive(Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub passes: usize,
    pub traced: bool,
    pub smoke: bool,
    /// Scratch space for serve-mixed's files, cache and journal.
    pub work_dir: PathBuf,
}

/// One unit of measured work: an instance check, an instance sweep or
/// a served job.
#[derive(Clone, Debug, Default)]
pub struct Unit {
    pub pass: usize,
    pub name: String,
    /// Seconds from the call (or `submit`) to its answer.
    pub latency: f64,
    /// Batch instances: `latency` at the reference host's speed (see
    /// [`crate::probe`]).
    pub scaled: f64,
    pub decided: bool,
    /// The answer contradicts the oracle.
    pub wrong: bool,
    /// Wrong, or no answer at all (daemon error, shed job).
    pub failed: bool,
    /// Serve jobs only: `hit`, `miss` or `replayed`.
    pub cache: String,
    pub work: Work,
    pub gen_calls: u64,
    pub vectors: u64,
    /// Class cost removed between the first `generate` call and the
    /// end of the simulation phase.
    pub cost_split: u64,
    pub phases: api::PhaseWalls,
}

/// serve-mixed daemon totals over the measured passes.
#[derive(Clone, Debug, Default)]
pub struct ServeTotals {
    pub counts: ServeCounts,
    pub disk_bytes: u64,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Wall time of each measured pass, probes excluded.
    pub pass_s: Vec<f64>,
    /// Every probe time of the measured passes.
    pub probe_s: Vec<f64>,
    /// Traced runs: the last pass repeated untraced, for the tracing
    /// overhead.
    pub reference_s: Option<f64>,
    pub units: Vec<Unit>,
    /// Process CPU seconds and wall seconds over the measured passes.
    pub cpu_s: f64,
    pub measured_s: f64,
    /// LUTs of the networks the workload checks or sweeps.
    pub luts: u64,
    pub serve: Option<ServeTotals>,
    /// Traced serve runs: file parse and LUT-mapping seconds per job.
    pub parse_s: f64,
    pub map_s: f64,
    pub spans: Vec<Span>,
    /// One line per failed unit.
    pub problems: Vec<String>,
}

/// Seed of the pattern generator (and the sweep's random simulation)
/// for one instance, and of each serve circuit's mutant; independent
/// of the benchmark seed.
fn generator_seed(instance: usize) -> u64 {
    mix(1, instance as u64)
}

/// The seed that orders pass `p`. Pass 0 sets the process's peak
/// memory on every workload (its allocations come first; serve-mixed's
/// ten cold misses fall in it), so its order is the same for every
/// benchmark seed: a seeded pass 0 moved simphase-stacked's peak RSS
/// by 12% from seed to seed.
fn pass_seed(seed: u64, p: usize) -> u64 {
    mix(if p == 0 { 0 } else { seed }, p as u64)
}

/// Fisher-Yates shuffle driven by [`mix`].
fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
}

/// splitmix64: the benchmark's only source of randomness.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn seeded_vector(seed: u64, index: u64, len: usize) -> Vec<bool> {
    (0..len)
        .map(|i| mix(mix(seed, index), i as u64) & 1 == 1)
        .collect()
}

/// A single-bit LUT mutant of `pair.right` plus a witness on which it
/// differs from `pair.left`. Mutants without a witness among
/// [`MUTANT_VECTORS`] seeded vectors are skipped.
pub fn find_mutant(pair: &Pair, seed: u64) -> Option<(api::Net, Vec<bool>)> {
    let pis = api::num_pis(&pair.left);
    for attempt in 0..MUTANT_ATTEMPTS as u64 {
        let pick = mix(seed, attempt);
        let Some(mutant) = api::flip_lut_bit(&pair.right, pick, pick >> 32) else {
            continue;
        };
        for v in 0..MUTANT_VECTORS as u64 {
            let vector = seeded_vector(pick, v, pis);
            if api::eval(&pair.left, &vector) != api::eval(&mutant, &vector) {
                return Some((mutant, vector));
            }
        }
    }
    None
}

/// Lower bound on the class cost after simulation of a combined miter:
/// equivalent output drivers can never be split, so each group of them
/// joined by output pairs stays inside one class.
fn cost_floor(combined: &api::Net) -> u64 {
    let mut parent: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    fn find(parent: &mut std::collections::HashMap<usize, usize>, x: usize) -> usize {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }
    let mut unions = 0;
    for (a, b) in api::output_driver_pairs(combined) {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent.insert(ra, rb);
            unions += 1;
        }
    }
    unions
}

/// One batch instance and what a pass does with it.
struct Instance {
    name: &'static str,
    target: Target,
}

enum Target {
    /// Full CEC of a rewrite pair.
    Check(Pair),
    /// The simulation phase on a combined stacked miter, with the
    /// least class cost a correct simulation can leave.
    SimPhase { net: api::Net, cost_floor: u64 },
}

/// One serve-mixed circuit: the original AIG, its rewrite and its
/// single-bit mutant, as submitted files.
struct ServeCircuit {
    name: &'static str,
    aag: PathBuf,
    rewrite: PathBuf,
    mutant: PathBuf,
}

enum Inputs {
    Batch(Vec<Instance>),
    Serve(Vec<ServeCircuit>),
}

fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    trace: &str,
    parent: u64,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    rec.record(name, trace, Some(parent), start, Instant::now());
    out
}

/// Builds the workload's inputs; serve-mixed writes its files to
/// `files`. Returns the inputs and their LUT count.
fn setup(
    cfg: &Config,
    files: &Path,
    rec: &mut Recorder,
    trace: &str,
    root: u64,
) -> Result<(Inputs, u64), String> {
    let take = |n: usize| if cfg.smoke { 2 } else { n };
    match cfg.workload {
        Workload::CecSimgen | Workload::CecRandsJ2 => {
            let mut luts = 0;
            let insts: Vec<Instance> = CEC_SET[..take(CEC_SET.len())]
                .iter()
                .map(|&name| {
                    let pair = timed(rec, "workloads.cec_instance", trace, root, || {
                        api::rewrite_pair(name)
                    });
                    luts += api::luts(&pair.left) + api::luts(&pair.right);
                    Instance {
                        name,
                        target: Target::Check(pair),
                    }
                })
                .collect();
            Ok((Inputs::Batch(insts), luts))
        }
        Workload::SimphaseStacked => {
            let mut luts = 0;
            let mut insts = Vec::new();
            for &(name, copies) in &STACKED_SET[..take(STACKED_SET.len())] {
                let base = timed(rec, "workloads.cec_instance", trace, root, || {
                    api::rewrite_pair(name)
                });
                let pair = timed(rec, "netlist.put_on_top", trace, root, || {
                    api::stack_pair(&base, copies)
                });
                let net = timed(rec, "netlist.combine", trace, root, || api::combine(&pair));
                luts += api::luts(&net);
                insts.push(Instance {
                    name,
                    target: Target::SimPhase {
                        cost_floor: cost_floor(&net),
                        net,
                    },
                });
            }
            Ok((Inputs::Batch(insts), luts))
        }
        Workload::ServeMixed => {
            std::fs::create_dir_all(files).map_err(|e| format!("{}: {e}", files.display()))?;
            let mut luts = 0;
            let mut circuits = Vec::new();
            for (i, &name) in SERVE_SET[..take(SERVE_SET.len())].iter().enumerate() {
                let pair = timed(rec, "workloads.cec_instance", trace, root, || {
                    api::rewrite_pair(name)
                });
                luts += api::luts(&pair.left) + api::luts(&pair.right);
                let (mutant, _) = timed(rec, "workloads.mutant", trace, root, || {
                    find_mutant(&pair, generator_seed(i))
                })
                .ok_or_else(|| format!("no distinguishable mutant of {name}"))?;
                let c = ServeCircuit {
                    name,
                    aag: files.join(format!("{name}.aag")),
                    rewrite: files.join(format!("{name}_rw.blif")),
                    mutant: files.join(format!("{name}_bug.blif")),
                };
                timed(
                    rec,
                    "netlist.write",
                    trace,
                    root,
                    || -> std::io::Result<()> {
                        api::write_aag(name, &c.aag)?;
                        api::write_blif(&pair.right, &c.rewrite)?;
                        api::write_blif(&mutant, &c.mutant)
                    },
                )
                .map_err(|e| format!("writing {name}: {e}"))?;
                circuits.push(c);
            }
            Ok((Inputs::Serve(circuits), luts))
        }
    }
}

/// Runs one workload end to end. `setup_rounds` times set-up rounds
/// (see [`time_setup`]); it is called before each pass and its seconds
/// go to `run.setup_s`.
pub fn run(
    cfg: &Config,
    setup_rounds: &dyn Fn() -> Result<Vec<f64>, String>,
) -> Result<Run, String> {
    let mut rec = Recorder::new(cfg.traced);
    let mut run = Run::default();

    // Untimed warm-up: pool start-up, SIMD detection and first-touch
    // page faults are not part of any metric.
    crate::probe::time();
    api::check(
        &api::rewrite_pair("voter"),
        cfg.workload.strategy(),
        generator_seed(0),
        cfg.workload.jobs(),
        UNIT_DEADLINE,
        false,
    );

    let root = rec.open("setup", "setup-0", None);
    let (inputs, luts) = setup(cfg, &cfg.work_dir.join("files"), &mut rec, "setup-0", root)?;
    rec.close(root);
    run.luts = luts;

    // serve-mixed: one daemon for the whole run. Its persistent cache
    // starts empty, so pass 0 carries the ten cold misses and every
    // later job is answered from the job-level cache.
    let daemon = match &inputs {
        Inputs::Serve(_) => Some(
            api::start_daemon(
                &serve_socket(cfg),
                &cfg.work_dir.join("cache"),
                &cfg.work_dir.join("checkpoint"),
                SERVE_TIMEOUT_S,
            )
            .map_err(|e| format!("daemon start: {e}"))?,
        ),
        Inputs::Batch(_) => None,
    };
    let measured = measure_passes(cfg, &inputs, setup_rounds, &mut rec, &mut run);
    if let Some(daemon) = daemon {
        daemon.stop();
    }
    measured?;

    if cfg.traced {
        if let Inputs::Serve(circuits) = &inputs {
            probe_loads(circuits, &mut run, &mut rec)?;
        }
    }
    run.spans = rec.spans().to_vec();
    Ok(run)
}

fn serve_socket(cfg: &Config) -> PathBuf {
    cfg.work_dir.join("serve.sock")
}

/// One untimed set-up round, then [`SETUP_ROUNDS_PER_PASS`] timed ones:
/// each builds the workload's inputs (serve-mixed writes its files
/// under `cfg.work_dir/setup`) and deletes them. Returns each timed
/// round's seconds at the reference speed, probed before and after it.
/// The command runs this in a child process, so the rounds leave the
/// measured process's memory alone: rounds in the measured process
/// landed on top of the daemon's growing memory and moved serve-mixed's
/// peak RSS by 11%.
pub fn time_setup(cfg: &Config) -> Result<Vec<f64>, String> {
    let files = cfg.work_dir.join("setup");
    let mut times = Vec::new();
    let mut before = crate::probe::time();
    for round in 0..=SETUP_ROUNDS_PER_PASS {
        let start = Instant::now();
        let built = setup(cfg, &files, &mut Recorder::new(false), "setup", 0)?;
        let secs = start.elapsed().as_secs_f64();
        drop(built);
        let _ = std::fs::remove_dir_all(&files);
        let after = crate::probe::time();
        if round > 0 {
            times.push(crate::probe::scale(secs, before, after));
        }
        before = after;
    }
    Ok(times)
}

/// The measured passes, each after its set-up rounds, then (traced
/// runs) the last pass once more untraced: the same work, for the
/// tracing overhead.
fn measure_passes(
    cfg: &Config,
    inputs: &Inputs,
    setup_rounds: &dyn Fn() -> Result<Vec<f64>, String>,
    rec: &mut Recorder,
    run: &mut Run,
) -> Result<(), String> {
    let mut replays = Replays::default();
    for p in 0..cfg.passes {
        run.setup_s.extend(setup_rounds()?);
        let cpu0 = crate::host::cpu_seconds();
        let probes0 = run.probe_s.len();
        let wall = pass(cfg, inputs, p, rec, run, &mut replays);
        // The probes are single-threaded and busy all the time they run.
        let probing: f64 = run.probe_s[probes0..].iter().sum();
        run.cpu_s += crate::host::cpu_seconds() - cpu0 - probing;
        run.measured_s += wall;
        run.pass_s.push(wall);
    }
    if let Inputs::Serve(_) = inputs {
        run.serve = Some(ServeTotals {
            counts: api::serve_counts(&serve_socket(cfg)).map_err(|e| format!("status: {e}"))?,
            disk_bytes: dir_bytes(&cfg.work_dir.join("cache")),
        });
    }
    if cfg.traced {
        let untraced = Config {
            traced: false,
            ..cfg.clone()
        };
        let mut scratch = Run::default();
        let last = cfg.passes - 1;
        run.reference_s = Some(pass(
            &untraced,
            inputs,
            last,
            &mut Recorder::new(false),
            &mut scratch,
            &mut replays,
        ));
    }
    Ok(())
}

/// Runs pass `p`, appending its units and probe times to `run`;
/// returns its wall time without the probes.
fn pass(
    cfg: &Config,
    inputs: &Inputs,
    p: usize,
    rec: &mut Recorder,
    run: &mut Run,
    replays: &mut Replays,
) -> f64 {
    match inputs {
        Inputs::Batch(insts) => batch_pass(cfg, insts, p, rec, run),
        Inputs::Serve(circuits) => serve_pass(cfg, circuits, p, rec, run, replays),
    }
}

fn batch_pass(
    cfg: &Config,
    insts: &[Instance],
    p: usize,
    rec: &mut Recorder,
    run: &mut Run,
) -> f64 {
    let trace = format!("pass-{p}");
    let mut before = crate::probe::time();
    run.probe_s.push(before);
    let root = rec.open("bench.pass", &trace, None);
    let start = Instant::now();
    let mut probing = 0.0;
    let mut order: Vec<usize> = (0..insts.len()).collect();
    shuffle(&mut order, pass_seed(cfg.seed, p));
    let strategy = cfg.workload.strategy();
    for i in order {
        let inst = &insts[i];
        let seed = generator_seed(i);
        let t0 = Instant::now();
        let out: Outcome = match &inst.target {
            Target::Check(pair) => api::check(
                pair,
                strategy,
                seed,
                cfg.workload.jobs(),
                UNIT_DEADLINE,
                cfg.traced,
            ),
            Target::SimPhase { net, .. } => api::sim_phase(net, seed, UNIT_DEADLINE, cfg.traced),
        };
        let t1 = Instant::now();
        let after = crate::probe::time();
        run.probe_s.push(after);
        probing += after;
        let name = match inst.target {
            Target::Check(_) => "cec.check",
            Target::SimPhase { .. } => "sweep.sim_phase",
        };
        let id = rec.record(name, &trace, Some(root), t0, t1);
        for &(a, b) in &out.gen.intervals {
            rec.record("core.generate", &trace, Some(id), a, b);
        }
        // The oracle. Rewrite pairs are equivalent by construction, so
        // any counterexample is wrong; a simulation phase that splits
        // equivalent output drivers leaves less cost than the floor.
        let wrong = match &inst.target {
            Target::Check(_) => matches!(out.verdict, Verdict::NotEquivalent { .. }),
            Target::SimPhase { cost_floor, .. } => out.work.cost_after_sim < *cost_floor,
        };
        if wrong {
            run.problems.push(format!(
                "pass {p} {}: wrong answer {:?}",
                inst.name, out.verdict
            ));
        }
        let latency = (t1 - t0).as_secs_f64();
        run.units.push(Unit {
            pass: p,
            name: inst.name.to_string(),
            latency,
            scaled: crate::probe::scale(latency, before, after),
            decided: out.decided,
            wrong,
            failed: wrong,
            cost_split: out
                .gen
                .first_cost
                .map_or(0, |c| c.saturating_sub(out.work.cost_after_sim)),
            gen_calls: out.gen.calls,
            vectors: out.gen.vectors,
            work: out.work,
            phases: out.phases,
            cache: String::new(),
        });
        before = after;
    }
    let wall = start.elapsed().as_secs_f64() - probing;
    rec.close(root);
    wall
}

/// The job a client sends: circuit index and whether `b` is the
/// equivalent rewrite or the mutant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Job {
    circuit: usize,
    equivalent: bool,
}

/// One client's jobs for one pass: a fixed mix in a seeded order (see
/// [`pass_seed`]), so the latency distribution does not depend on the
/// draw.
fn job_sequence(seed: u64, p: usize, client: usize, circuits: usize, rounds: usize) -> Vec<Job> {
    let round = (0..circuits).flat_map(|circuit| {
        let job = |equivalent| Job {
            circuit,
            equivalent,
        };
        std::iter::repeat_n(job(true), REWRITE_REPEATS)
            .chain(std::iter::repeat_n(job(false), MUTANT_REPEATS))
    });
    let mut jobs: Vec<Job> = round.collect::<Vec<_>>().repeat(rounds);
    shuffle(&mut jobs, mix(pass_seed(seed, p), client as u64));
    jobs
}

/// Witness checks already done, keyed by circuit and witness: hits
/// return the stored witness, so each one is replayed once.
#[derive(Default)]
struct Replays(std::collections::HashMap<(usize, Vec<bool>, usize), bool>);

impl Replays {
    /// True when `witness` makes the circuit's original and mutant,
    /// re-read from the submitted files, differ at `po_index`.
    fn distinguishes(
        &mut self,
        c: usize,
        circuit: &ServeCircuit,
        witness: &[bool],
        po_index: usize,
    ) -> bool {
        *self
            .0
            .entry((c, witness.to_vec(), po_index))
            .or_insert_with(|| {
                let Ok((a, b, _)) = api::load_job(&circuit.aag, &circuit.mutant) else {
                    return false;
                };
                witness.len() == api::num_pis(&a) && {
                    let (oa, ob) = (api::eval(&a, witness), api::eval(&b, witness));
                    po_index < oa.len() && po_index < ob.len() && oa[po_index] != ob[po_index]
                }
            })
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn serve_pass(
    cfg: &Config,
    circuits: &[ServeCircuit],
    p: usize,
    rec: &mut Recorder,
    run: &mut Run,
    replays: &mut Replays,
) -> f64 {
    let socket = serve_socket(cfg);
    // One request seed per run, so repeats of a job hit its cache entry.
    let job_seed = generator_seed(0);
    let rounds = if cfg.smoke { 1 } else { SERVE_ROUNDS };
    type Sent = (Job, Instant, Instant, Result<Reply, String>);
    // Probed before and after, never while the clients run: a probe
    // beside them would take one of the two cores.
    let before = crate::probe::time();
    let start = Instant::now();
    let results: Vec<Vec<Sent>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|client| {
                let socket = &socket;
                s.spawn(move || {
                    job_sequence(cfg.seed, p, client, circuits.len(), rounds)
                        .into_iter()
                        .enumerate()
                        .map(|(j, job)| {
                            let c = &circuits[job.circuit];
                            let b = if job.equivalent {
                                &c.rewrite
                            } else {
                                &c.mutant
                            };
                            let t0 = Instant::now();
                            let reply = api::submit(
                                socket,
                                &format!("p{p}c{client}j{j}"),
                                &c.aag,
                                b,
                                job_seed,
                            )
                            .map_err(|e| e.to_string());
                            (job, t0, Instant::now(), reply)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = Instant::now();
    let after = crate::probe::time();
    run.probe_s.extend([before, after]);

    let trace = format!("pass-{p}");
    let root = rec.record("serve.pass", &trace, None, start, end);
    for (job, t0, t1, reply) in results.iter().flatten() {
        let c = &circuits[job.circuit];
        let label = format!("{}/{}", c.name, if job.equivalent { "rw" } else { "bug" });
        let mut unit = Unit {
            pass: p,
            name: label.clone(),
            latency: (*t1 - *t0).as_secs_f64(),
            ..Unit::default()
        };
        match reply {
            Ok(r) => {
                unit.cache = r.cache.clone();
                // A hit carries the stored report of the run that
                // missed; only live runs count as work.
                if r.cache != "hit" {
                    unit.work = Work {
                        sweep_calls: r.sat_calls,
                        cost_after_sim: r.cost_after_sim,
                        pair_hits: r.pair_hits,
                        pair_misses: r.pair_misses,
                        ..Work::default()
                    };
                }
                match &r.answer {
                    Answer::Verdict(Verdict::Equivalent) => {
                        unit.decided = true;
                        unit.wrong = !job.equivalent;
                    }
                    Answer::Verdict(Verdict::NotEquivalent { po_index, witness }) => {
                        unit.decided = true;
                        unit.wrong = job.equivalent
                            || !replays.distinguishes(job.circuit, c, witness, *po_index);
                    }
                    Answer::Verdict(Verdict::Inconclusive) => {}
                    Answer::Shed | Answer::Error(_) => unit.failed = true,
                }
                if unit.wrong || unit.failed {
                    run.problems
                        .push(format!("pass {p} {label}: {:?}", r.answer));
                }
            }
            Err(e) => {
                unit.failed = true;
                run.problems.push(format!("pass {p} {label}: {e}"));
            }
        }
        unit.failed |= unit.wrong;
        let span = match unit.cache.as_str() {
            "hit" => "serve.hit",
            "miss" | "replayed" => "serve.miss",
            _ => "serve.failed",
        };
        rec.record(span, &trace, Some(root), *t0, *t1);
        run.units.push(unit);
    }
    (end - start).as_secs_f64()
}

/// Traced serve runs: times the file work the daemon repeats on every
/// job (AIGER parse and mapping, BLIF parse), once per distinct job of
/// the run, and weights it by how often each job was sent.
fn probe_loads(circuits: &[ServeCircuit], run: &mut Run, rec: &mut Recorder) -> Result<(), String> {
    let mut per_label: std::collections::BTreeMap<String, (f64, f64)> =
        std::collections::BTreeMap::new();
    for c in circuits {
        for (kind, b) in [("rw", &c.rewrite), ("bug", &c.mutant)] {
            let trace = format!("probe-{}/{kind}", c.name);
            let mut samples = Vec::new();
            for _ in 0..3 {
                let start = Instant::now();
                let (_, _, t) =
                    api::load_job(&c.aag, b).map_err(|e| format!("probe {}: {e}", c.name))?;
                let root = rec.record("probe.load", &trace, None, start, Instant::now());
                rec.record("netlist.parse", &trace, Some(root), start, start + t.parse);
                rec.record(
                    "mapping.map",
                    &trace,
                    Some(root),
                    start + t.parse,
                    start + t.parse + t.map,
                );
                samples.push((t.parse.as_secs_f64(), t.map.as_secs_f64()));
            }
            samples.sort_by(|x, y| (x.0 + x.1).total_cmp(&(y.0 + y.1)));
            per_label.insert(format!("{}/{kind}", c.name), samples[1]);
        }
    }
    let n = run.units.len().max(1) as f64;
    let (mut parse_s, mut map_s) = (0.0, 0.0);
    for u in &run.units {
        if let Some((parse, map)) = per_label.get(&u.name) {
            parse_s += parse / n;
            map_s += map / n;
        }
    }
    run.parse_s = parse_s;
    run.map_s = map_s;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutant_witness_distinguishes_and_rewrite_agrees() {
        let pair = api::rewrite_pair("priority");
        let (mutant, witness) = find_mutant(&pair, 7).expect("priority has a visible mutant");
        assert_ne!(
            api::eval(&pair.left, &witness),
            api::eval(&mutant, &witness)
        );
        let pis = api::num_pis(&pair.left);
        for v in 0..256 {
            let vector = seeded_vector(11, v, pis);
            assert_eq!(
                api::eval(&pair.left, &vector),
                api::eval(&pair.right, &vector)
            );
        }
    }

    #[test]
    fn job_sequences_are_seeded_with_a_fixed_mix() {
        let a = job_sequence(1, 0, 0, 5, 5);
        assert_eq!(a.len(), 125);
        assert_eq!(a, job_sequence(1, 0, 0, 5, 5));
        assert_ne!(a, job_sequence(1, 1, 0, 5, 5));
        assert_ne!(job_sequence(1, 1, 0, 5, 5), job_sequence(2, 1, 0, 5, 5));
        assert_eq!(
            a,
            job_sequence(2, 0, 0, 5, 5),
            "the cold pass ignores the seed"
        );
        let mut sorted = a.clone();
        sorted.sort();
        let mut other = job_sequence(9, 3, 1, 5, 5);
        other.sort();
        assert_eq!(sorted, other, "every draw sends the same jobs");
        assert_eq!(a.iter().filter(|j| j.equivalent).count(), 75);
    }
}
