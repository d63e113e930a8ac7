//! Experiment harness regenerating every table and figure of the
//! SimGen paper.
//!
//! The binaries in `src/bin/` print the paper's artifacts:
//!
//! | Binary    | Paper artifact |
//! |-----------|----------------|
//! | `table1`  | Table 1 — normalized cost & simulation runtime of the five strategies |
//! | `table2`  | Table 2 — SAT calls and SAT time, RevS vs SimGen (`--stacked` for the lower half) |
//! | `figure5` | Figure 5 — per-benchmark normalized deltas of cost / sim time / SAT calls / SAT time |
//! | `figure6` | Figure 6 — same metrics on the stacked (`&putontop`) benchmarks |
//! | `figure7` | Figure 7 — per-iteration cost/runtime of RandS vs RandS→RevS vs RandS→SimGen |
//!
//! Criterion micro-benches of the underlying kernels live in
//! `benches/`. All runs are seeded and deterministic.

#![forbid(unsafe_code)]

use std::time::Duration;

use simgen_cec::{RunContext, SweepConfig, SweepReport, Sweeper, SwitchOnPlateau};
use simgen_core::{PatternGenerator, RandomPatterns, RevSim, SimGen, SimGenConfig};
use simgen_netlist::stack::put_on_top;
use simgen_netlist::LutNetwork;
use simgen_workloads::benchmark_network;

pub use simgen_obs::{BenchReport, Json};

/// Writes a bench report to `rel_path`, interpreted relative to the
/// repository root (e.g. `"BENCH_sim.json"` or
/// `"results/BENCH_table1.json"`), and returns the path written.
/// Every `BENCH_*.json` artifact in the workspace goes through this
/// one function so they all share the `simgen-bench-report/2` schema.
pub fn write_bench_report(report: &BenchReport, rel_path: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel_path);
    report.write_to(&path).expect("write bench report");
    path
}

/// Resolves a `--jobs` value using the CLI convention: `0` means
/// auto-detect the available cores (`std::thread::available_parallelism`,
/// falling back to 1 when detection fails).
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    }
}

/// Parses an optional `--jobs N` / `--jobs=N` from the bench binary's
/// argument vector (cargo forwards everything after `--` to the bench
/// executable). Returns the *resolved* worker count — `--jobs 0`
/// auto-detects, matching the `simgen` CLI — or `None` when the flag
/// is absent.
///
/// # Panics
///
/// Panics with a usage message when the flag is present but its value
/// is missing or not an integer: a bench silently ignoring an explicit
/// `--jobs` would measure the wrong thing.
pub fn jobs_arg() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let mut iter = args.iter().skip(1);
    while let Some(arg) = iter.next() {
        let raw = if arg == "--jobs" {
            iter.next()
                .unwrap_or_else(|| panic!("--jobs requires a value (0 = auto-detect)"))
                .as_str()
        } else if let Some(rest) = arg.strip_prefix("--jobs=") {
            rest
        } else {
            continue;
        };
        let n: usize = raw
            .parse()
            .unwrap_or_else(|_| panic!("--jobs expects an integer, got {raw:?}"));
        return Some(resolve_jobs(n));
    }
    None
}

/// The pattern-generation strategies the paper compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Reverse simulation (the baseline of Zhang et al.).
    RevS,
    /// Simple implication + random decision.
    SiRd,
    /// Advanced implication + random decision.
    AiRd,
    /// Advanced implication + don't-care heuristic.
    AiDc,
    /// Advanced implication + DC + MFFC heuristics (= "SimGen").
    AiDcMffc,
    /// Pure random patterns.
    Random,
}

impl Strategy {
    /// The paper's label for this strategy.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::RevS => "RevS",
            Strategy::SiRd => "SI+RD",
            Strategy::AiRd => "AI+RD",
            Strategy::AiDc => "AI+DC",
            Strategy::AiDcMffc => "AI+DC+MFFC",
            Strategy::Random => "RandS",
        }
    }

    /// The five strategies of Table 1, in column order.
    pub fn table1() -> [Strategy; 5] {
        [
            Strategy::RevS,
            Strategy::SiRd,
            Strategy::AiRd,
            Strategy::AiDc,
            Strategy::AiDcMffc,
        ]
    }
}

/// Number of reverse-simulation pair attempts per iteration.
pub const REVSIM_ATTEMPTS: usize = 30;

/// Builds the pattern generator for a strategy.
pub fn make_generator(strategy: Strategy, seed: u64) -> Box<dyn PatternGenerator> {
    match strategy {
        Strategy::RevS => Box::new(RevSim::new(seed, REVSIM_ATTEMPTS)),
        Strategy::SiRd => Box::new(SimGen::new(SimGenConfig::simple_random().with_seed(seed))),
        Strategy::AiRd => Box::new(SimGen::new(SimGenConfig::advanced_random().with_seed(seed))),
        Strategy::AiDc => Box::new(SimGen::new(SimGenConfig::advanced_dc().with_seed(seed))),
        Strategy::AiDcMffc => Box::new(SimGen::new(
            SimGenConfig::advanced_dc_mffc().with_seed(seed),
        )),
        Strategy::Random => Box::new(RandomPatterns::new(seed, 64)),
    }
}

/// The paper's combined strategy (Section 6.5): random simulation
/// until the cost plateaus for three iterations, then `guided`.
pub fn make_combined(guided: Strategy, seed: u64) -> Box<dyn PatternGenerator> {
    Box::new(SwitchOnPlateau::new(
        Box::new(RandomPatterns::new(seed, 64)),
        make_generator(guided, seed + 1),
        3,
    ))
}

/// Runs one sweep of `net` with the given strategy.
pub fn run_strategy(
    net: &LutNetwork,
    strategy: Strategy,
    cfg: SweepConfig,
    seed: u64,
) -> SweepReport {
    let mut generator = make_generator(strategy, seed);
    Sweeper::new(cfg).run(net, generator.as_mut(), &mut RunContext::default())
}

/// The experiment-wide sweep configuration (Section 6.1: one round of
/// random simulation, 20 guided iterations).
pub fn experiment_config(run_sat: bool) -> SweepConfig {
    SweepConfig {
        random_batch: 64,
        guided_iterations: 20,
        sat_budget: Some(100_000),
        run_sat,
        seed: 0xC1C,
        ..SweepConfig::default()
    }
}

/// The stacked benchmarks of Table 2's lower half / Figure 6, with
/// the copy counts the paper annotates.
pub fn stacked_benchmarks() -> [(&'static str, usize); 9] {
    [
        ("alu4", 15),
        ("square", 7),
        ("arbiter", 15),
        ("b15_C2", 8),
        ("b17_C", 5),
        ("b17_C2", 5),
        ("b20_C2", 8),
        ("b21_C2", 8),
        ("b22_C", 6),
    ]
}

/// Builds the `&putontop`-stacked variant of a named benchmark.
pub fn stacked_network(name: &str, copies: usize, k: usize) -> Option<LutNetwork> {
    benchmark_network(name, k).map(|net| put_on_top(&net, copies))
}

/// One benchmark's measured row (both strategies) for Table 2 /
/// Figures 5-6.
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    /// Benchmark name.
    pub name: String,
    /// LUT count of the swept network.
    pub luts: usize,
    /// RevS result.
    pub revs: RowMetrics,
    /// SimGen result.
    pub sgen: RowMetrics,
}

/// The four metrics the paper plots per benchmark.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowMetrics {
    /// Class cost (Equation 5) after the simulation phase.
    pub cost: u64,
    /// Simulation-phase runtime (generation + simulation).
    pub sim_time: Duration,
    /// SAT calls issued.
    pub sat_calls: u64,
    /// SAT runtime.
    pub sat_time: Duration,
}

impl RowMetrics {
    /// Extracts the metrics from a sweep report.
    pub fn from_report(r: &SweepReport) -> Self {
        RowMetrics {
            cost: r.cost_after_sim,
            sim_time: r.stats.total_sim_phase(),
            sat_calls: r.stats.sat_calls,
            sat_time: r.stats.sat_time,
        }
    }
}

/// Sweeps one network with both RevS and SimGen and packages the row.
pub fn compare_on(net: &LutNetwork, name: &str, run_sat: bool, seed: u64) -> ComparisonRow {
    compare_on_avg(net, name, run_sat, seed, 1)
}

/// Like [`compare_on`], averaging every metric over several generator
/// seeds to damp solver and decision noise.
pub fn compare_on_avg(
    net: &LutNetwork,
    name: &str,
    run_sat: bool,
    seed: u64,
    seeds: u64,
) -> ComparisonRow {
    let cfg = experiment_config(run_sat);
    let mut acc = [RowAcc::default(), RowAcc::default()];
    for s in 0..seeds.max(1) {
        for (i, strat) in [Strategy::RevS, Strategy::AiDcMffc].into_iter().enumerate() {
            let m = RowMetrics::from_report(&run_strategy(net, strat, cfg, seed + s));
            acc[i].add(&m);
        }
    }
    ComparisonRow {
        name: name.to_string(),
        luts: net.num_luts(),
        revs: acc[0].mean(seeds.max(1)),
        sgen: acc[1].mean(seeds.max(1)),
    }
}

#[derive(Default)]
struct RowAcc {
    cost: f64,
    sim: f64,
    calls: f64,
    sat: f64,
}

impl RowAcc {
    fn add(&mut self, m: &RowMetrics) {
        self.cost += m.cost as f64;
        self.sim += m.sim_time.as_secs_f64();
        self.calls += m.sat_calls as f64;
        self.sat += m.sat_time.as_secs_f64();
    }

    fn mean(&self, n: u64) -> RowMetrics {
        let n = n as f64;
        RowMetrics {
            cost: (self.cost / n).round() as u64,
            sim_time: Duration::from_secs_f64(self.sim / n),
            sat_calls: (self.calls / n).round() as u64,
            sat_time: Duration::from_secs_f64(self.sat / n),
        }
    }
}

/// Normalized difference `(new − base) / base` guarded against a zero
/// base (returns 0 when both are zero, +1 when only the base is zero).
pub fn norm_diff(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (new - base) / base
    }
}

/// Renders a signed percentage as a short ASCII bar (for the figure
/// binaries' terminal plots).
pub fn ascii_bar(frac: f64, width: usize) -> String {
    let mag = (frac.abs() * width as f64).round() as usize;
    let mag = mag.min(width);
    if frac < 0.0 {
        format!("{:>w$}|", "-".repeat(mag), w = width)
    } else {
        format!("{:w$}|{}", "", "+".repeat(mag), w = width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::AiDcMffc.label(), "AI+DC+MFFC");
        assert_eq!(Strategy::table1().len(), 5);
        assert_eq!(Strategy::table1()[0], Strategy::RevS);
    }

    #[test]
    fn generators_match_names() {
        assert_eq!(make_generator(Strategy::RevS, 0).name(), "RevS");
        assert_eq!(make_generator(Strategy::SiRd, 0).name(), "SI+RD");
        assert_eq!(make_generator(Strategy::AiDcMffc, 0).name(), "SimGen");
        assert_eq!(make_generator(Strategy::Random, 0).name(), "RandS");
        assert_eq!(make_combined(Strategy::AiDcMffc, 0).name(), "RandS->SimGen");
    }

    #[test]
    fn norm_diff_guards_zero() {
        assert_eq!(norm_diff(0.0, 0.0), 0.0);
        assert_eq!(norm_diff(5.0, 0.0), 1.0);
        assert!((norm_diff(8.0, 10.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn ascii_bar_shapes() {
        assert_eq!(ascii_bar(0.0, 4), "    |");
        assert_eq!(ascii_bar(0.5, 4), "    |++");
        assert_eq!(ascii_bar(-0.5, 4), "  --|");
        assert_eq!(ascii_bar(-2.0, 4), "----|");
    }

    #[test]
    fn stacked_set_matches_paper_annotations() {
        let s = stacked_benchmarks();
        assert_eq!(s.len(), 9);
        assert!(s.contains(&("alu4", 15)));
        assert!(s.contains(&("b17_C", 5)));
    }

    #[test]
    fn small_end_to_end_comparison() {
        let net = benchmark_network("e64", 6).unwrap();
        let row = compare_on(&net, "e64", true, 1);
        assert_eq!(row.name, "e64");
        assert!(row.luts > 0);
        assert!(row.revs.sat_calls > 0);
        assert!(row.sgen.sat_calls > 0);
    }
}
