//! The metric catalogue and how each metric is computed from a run.
//!
//! `BENCHMARK.json` at the repository root declares the same metrics;
//! a test keeps the two in agreement.

use std::collections::BTreeMap;

use crate::spans;
use crate::workloads::{Run, Unit, Workload};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user waits for, measured with tracing off. Every workload
/// reports every one of them. Each timing bound is three times the
/// widest ten-seed spread measured on the reference host (4.7% for
/// `wall_s` and `latency_mean_ms`, 6.7% for `setup_s`), so that the
/// host's noise alone does not read as a regression. `decided_frac`
/// and `cost_after_sim` repeat exactly from run to run; their bound of
/// 1% stands for "no change".
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.20),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
    e2e("decided_frac", "ratio", "higher", 0.01),
    e2e("cost_after_sim", "count", "lower", 0.01),
    e2e("latency_mean_ms", "ms", "lower", 0.15),
];

/// Single-layer metrics, measured in the traced run. Layer times are
/// shares of the traced pass wall so that they add up to one with the
/// unattributed rest; work is counted per pass.
pub const PER_LAYER: &[Metric] = &[
    layer("sat.share", "ratio", "lower"),
    layer("sat.calls", "count", "lower"),
    layer("sat.output_calls", "count", "lower"),
    layer("sat.conflicts", "count", "lower"),
    layer("sat.propagations", "count", "lower"),
    layer("sat.decisions", "count", "lower"),
    layer("sat.aborted", "count", "lower"),
    layer("sat.cex_frac", "ratio", "lower"),
    layer("sat.props_per_s", "1/s", "higher"),
    layer("core.share", "ratio", "lower"),
    layer("core.generate_calls", "count", "lower"),
    layer("core.vectors", "count", "lower"),
    layer("core.cost_split", "count", "higher"),
    layer("core.split_per_vector", "ratio", "higher"),
    layer("sim.share", "ratio", "lower"),
    layer("sim.resim_share", "ratio", "lower"),
    layer("sim.compile_share", "ratio", "lower"),
    layer("sim.exec_words", "count", "lower"),
    layer("sim.words_per_s", "1/s", "higher"),
    layer("dispatch.cpu_util", "ratio", "higher"),
    layer("dispatch.steals", "count", "lower"),
    layer("dispatch.escalations", "count", "lower"),
    layer("dispatch.pool_tasks", "count", "lower"),
    layer("cec.rounds", "count", "lower"),
    layer("cache.job_hit_frac", "ratio", "higher"),
    layer("cache.pair_hits", "count", "higher"),
    layer("cache.pair_misses", "count", "lower"),
    layer("cache.disk_bytes", "bytes", "lower"),
    layer("serve.hit_share", "ratio", "lower"),
    layer("serve.miss_share", "ratio", "lower"),
    layer("serve.jobs", "count", "higher"),
    layer("serve.hol_frac", "ratio", "lower"),
    layer("serve.p50_over_mean", "ratio", "lower"),
    layer("serve.p90_over_mean", "ratio", "lower"),
    layer("serve.parse_map_frac", "ratio", "lower"),
    layer("serve.jobs_shed", "count", "lower"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.errors", "count", "lower"),
    layer("setup.instance_share", "ratio", "lower"),
    layer("setup.stack_share", "ratio", "lower"),
    layer("setup.write_share", "ratio", "lower"),
    layer("setup.mutant_share", "ratio", "lower"),
    layer("mapping.luts", "count", "lower"),
    layer("obs.units", "count", "higher"),
    layer("obs.traced_wall_s", "s", "lower"),
    layer("obs.unattributed_s", "s", "lower"),
    layer("obs.unattributed_share", "ratio", "lower"),
    layer("obs.first_pass_ratio", "ratio", "lower"),
    layer("obs.tracing_overhead_frac", "ratio", "lower"),
    layer("host.probe_ratio", "ratio", "lower"),
];

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks the catalogue: valid unique names, at most 16 end-to-end and
/// 128 per-layer metrics, end-to-end bounds in (0, 0.25].
pub fn validate() -> Result<(), String> {
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        return Err("too many metrics".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        if !valid_name(m.name) || !seen.insert(m.name) {
            return Err(format!("bad or repeated metric name `{}`", m.name));
        }
        if !matches!(m.better, "lower" | "higher") {
            return Err(format!("`{}`: better must be lower or higher", m.name));
        }
    }
    for m in END_TO_END {
        if !m.bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            return Err(format!("`{}`: bound must be in (0, 0.25]", m.name));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
    {
        return Err("`setup_s` (s, lower) is required".into());
    }
    Ok(())
}

/// The `p`-th percentile of `values` by linear interpolation between
/// the closest ranks (0 for an empty slice).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let h = (n - 1) as f64 * p / 100.0;
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (h - lo as f64) * (v[hi] - v[lo])
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest reported percentile that has at least ten samples
/// beyond it, or `None` below 20 samples.
pub fn highest_percentile(samples: usize) -> Option<f64> {
    // In per mille, so the sample count beyond is exact.
    [999, 990, 900, 500]
        .into_iter()
        .find(|pm| samples * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Each batch instance's latency at the reference speed: the mean over
/// the passes, which repeat the same work. Once scaled, a pass is
/// rarely an outlier: over ten trial runs of cec-simgen the sum of
/// means varied by 0.9% (standard deviation), the sum of medians by
/// 1.7%.
fn instance_means(run: &Run) -> Vec<f64> {
    let mut per_instance: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for u in &run.units {
        per_instance.entry(&u.name).or_default().push(u.scaled);
    }
    per_instance.values().map(|v| mean(v)).collect()
}

/// The run's median probe time over the reference: how much slower
/// than its quiet speed the host ran.
pub fn probe_ratio(run: &Run) -> f64 {
    median(&run.probe_s) / crate::probe::REFERENCE_S
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Class cost (Eq. 5) left after simulation, summed over the distinct
/// units: each batch instance once (every pass repeats it) and each
/// serve job's live run (hits replay a stored report).
fn cost_after_sim(run: &Run) -> f64 {
    let mut per_unit: BTreeMap<&str, u64> = BTreeMap::new();
    for u in run.units.iter().filter(|u| u.cache != "hit") {
        per_unit.entry(&u.name).or_insert(u.work.cost_after_sim);
    }
    per_unit.values().sum::<u64>() as f64
}

/// Wall of one pass and the mean unit latency, both at the reference
/// speed (see [`crate::probe`]). A batch pass is the sum of its
/// instances' latencies; a percentile over eight instances would be one
/// instance's noise, so the latency is the mean over them. serve-mixed
/// passes interleave their jobs: the wall is the mean warm pass and the
/// latency the mean over the warm passes' jobs. Pass 0 meets the empty
/// cache; its ten cold misses are one sample per run, and that pass
/// spread 15% over ten seeds (`obs.first_pass_ratio` reports it).
pub fn end_to_end(workload: Workload, run: &Run) -> Values {
    let (wall, latencies) = if workload == Workload::ServeMixed {
        let factor = probe_ratio(run).powf(-crate::probe::SERVE_EXPONENT);
        // A one-pass (smoke) run has only the cold pass.
        let first_warm = 1.min(run.pass_s.len() - 1);
        (
            mean(&run.pass_s[first_warm..]) * factor,
            run.units
                .iter()
                .filter(|u| u.pass >= first_warm)
                .map(|u| u.latency * factor)
                .collect(),
        )
    } else {
        let per_instance = instance_means(run);
        (per_instance.iter().sum(), per_instance)
    };
    let decided = run.units.iter().filter(|u| u.decided).count() as f64;
    let values = vec![
        ("wall_s", wall),
        ("setup_s", median(&run.setup_s)),
        ("peak_rss_mb", crate::host::peak_rss_mib()),
        ("decided_frac", decided / run.units.len().max(1) as f64),
        ("cost_after_sim", cost_after_sim(run)),
        ("latency_mean_ms", mean(&latencies) * 1e3),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(END_TO_END.iter().map(|m| m.name)));
    values
}

/// `a / b`, or 0 when `b` is not positive. Never negative zero.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b + 0.0
    } else {
        0.0
    }
}

/// Metric values by name, in catalogue order.
pub type Values = Vec<(&'static str, f64)>;

/// Self seconds per layer summed over the traced passes, with the
/// unattributed rest; together they add up to the traced pass walls.
pub type LayerTable = BTreeMap<String, f64>;

/// Per-layer metrics of a traced run, and its layer table.
pub fn per_layer(run: &Run) -> Result<(Values, LayerTable), String> {
    let passes = run.pass_s.len().max(1) as f64;
    let units = &run.units;
    let sum = |f: &dyn Fn(&Unit) -> f64| units.iter().map(f).sum::<f64>();
    let per_pass = |f: &dyn Fn(&Unit) -> f64| sum(f) / passes;

    // Layer table over the pass traces: span self times, with the
    // library's phase walls carved out of each check's self time.
    let pass_spans: Vec<spans::Span> = run
        .spans
        .iter()
        .filter(|s| s.trace.starts_with("pass-"))
        .cloned()
        .collect();
    let selfs = spans::self_times(&pass_spans);
    let wall: f64 = run.pass_s.iter().sum();
    let mut table = LayerTable::new();
    let sat = sum(&|u| u.phases.sat);
    let sim = sum(&|u| u.phases.sim);
    let resim = sum(&|u| u.phases.resim);
    let compile = sum(&|u| u.phases.compile);
    for (layer, secs) in [
        ("sweep;sat", sat),
        ("sweep;sim", sim),
        ("sweep;resim", resim),
        ("sweep;kernel_compile", compile),
    ] {
        if secs > 0.0 {
            table.insert(layer.to_string(), secs);
        }
    }
    let mut call_self = 0.0;
    for (name, secs) in &selfs {
        match *name {
            // Bench-side glue between the calls stays unattributed.
            "bench.pass" | "serve.pass" => {}
            // The phases split a call's self time; what they leave
            // (combining, prover set-up, flow bookkeeping) stays
            // unattributed.
            "cec.check" | "sweep.sim_phase" => call_self += secs,
            _ => {
                table.insert(name.to_string(), *secs);
            }
        }
    }
    // The phase walls are measured inside the calls: more phase time
    // than call self time means something was counted twice.
    let phase_total = sat + sim + resim + compile;
    if phase_total > call_self + 0.02 * wall {
        return Err(format!(
            "phase walls ({phase_total:.3}s) exceed the calls' self time ({call_self:.3}s)"
        ));
    }
    let unattributed = wall - table.values().sum::<f64>();
    table.insert("unattributed".to_string(), unattributed);
    let share = |layer: &str| ratio(table.get(layer).copied().unwrap_or(0.0), wall);

    let setup_spans: Vec<spans::Span> = run
        .spans
        .iter()
        .filter(|s| s.trace.starts_with("setup-"))
        .cloned()
        .collect();
    let setup_selfs = spans::self_times(&setup_spans);
    let setup_total: f64 = setup_selfs.values().sum();
    let setup_share = |names: &[&str]| {
        ratio(
            names.iter().filter_map(|n| setup_selfs.get(n)).sum(),
            setup_total,
        )
    };

    let sweep_calls = sum(&|u| u.work.sweep_calls as f64);
    let output_calls = sum(&|u| u.work.output_calls as f64);
    let hits: Vec<f64> = units
        .iter()
        .filter(|u| u.cache == "hit")
        .map(|u| u.latency)
        .collect();
    let hit_p50 = median(&hits);
    let job_latencies: Vec<f64> = units
        .iter()
        .filter(|u| !u.cache.is_empty())
        .map(|u| u.latency)
        .collect();
    // A percentile is reported only when ten samples lie beyond it.
    let tail = |p: f64| {
        if highest_percentile(job_latencies.len()) >= Some(p) {
            ratio(percentile(&job_latencies, p), mean(&job_latencies))
        } else {
            0.0
        }
    };
    let serve = run.serve.clone().unwrap_or_default();
    let served = serve.counts.jobs_done as f64;
    let first_cost_split = sum(&|u| u.cost_split as f64);
    let vectors = sum(&|u| u.vectors as f64);
    let traced_wall = median(&run.pass_s);

    let values = vec![
        ("sat.share", share("sweep;sat")),
        ("sat.calls", (sweep_calls + output_calls) / passes),
        ("sat.output_calls", output_calls / passes),
        ("sat.conflicts", per_pass(&|u| u.work.conflicts as f64)),
        (
            "sat.propagations",
            per_pass(&|u| u.work.propagations as f64),
        ),
        ("sat.decisions", per_pass(&|u| u.work.decisions as f64)),
        ("sat.aborted", per_pass(&|u| u.work.aborted as f64)),
        (
            "sat.cex_frac",
            ratio(sum(&|u| u.work.disproved as f64), sweep_calls),
        ),
        (
            "sat.props_per_s",
            ratio(sum(&|u| u.work.propagations as f64), sat),
        ),
        ("core.share", share("core.generate")),
        ("core.generate_calls", per_pass(&|u| u.gen_calls as f64)),
        ("core.vectors", vectors / passes),
        ("core.cost_split", first_cost_split / passes),
        ("core.split_per_vector", ratio(first_cost_split, vectors)),
        ("sim.share", share("sweep;sim")),
        ("sim.resim_share", share("sweep;resim")),
        ("sim.compile_share", share("sweep;kernel_compile")),
        ("sim.exec_words", per_pass(&|u| u.work.exec_words as f64)),
        (
            "sim.words_per_s",
            ratio(sum(&|u| u.work.exec_words as f64), sim + resim),
        ),
        ("dispatch.cpu_util", ratio(run.cpu_s, run.measured_s)),
        ("dispatch.steals", per_pass(&|u| u.work.steals as f64)),
        (
            "dispatch.escalations",
            per_pass(&|u| u.work.escalations as f64),
        ),
        (
            "dispatch.pool_tasks",
            per_pass(&|u| u.work.pool_tasks as f64),
        ),
        ("cec.rounds", per_pass(&|u| u.work.rounds as f64)),
        (
            "cache.job_hit_frac",
            ratio(serve.counts.job_hits as f64, served),
        ),
        ("cache.pair_hits", per_pass(&|u| u.work.pair_hits as f64)),
        (
            "cache.pair_misses",
            per_pass(&|u| u.work.pair_misses as f64),
        ),
        ("cache.disk_bytes", serve.disk_bytes as f64),
        ("serve.hit_share", share("serve.hit")),
        ("serve.miss_share", share("serve.miss")),
        ("serve.jobs", served / passes),
        (
            "serve.hol_frac",
            ratio(
                hits.iter().filter(|&&h| h > 3.0 * hit_p50).count() as f64,
                hits.len() as f64,
            ),
        ),
        ("serve.p50_over_mean", tail(50.0)),
        ("serve.p90_over_mean", tail(90.0)),
        (
            "serve.parse_map_frac",
            ratio(run.parse_s + run.map_s, hit_p50),
        ),
        ("serve.jobs_shed", serve.counts.jobs_shed as f64 / passes),
        ("serve.rejected", serve.counts.rejected as f64 / passes),
        ("serve.errors", serve.counts.errors as f64 / passes),
        (
            "setup.instance_share",
            setup_share(&["workloads.cec_instance"]),
        ),
        (
            "setup.stack_share",
            setup_share(&["netlist.put_on_top", "netlist.combine"]),
        ),
        ("setup.write_share", setup_share(&["netlist.write"])),
        ("setup.mutant_share", setup_share(&["workloads.mutant"])),
        ("mapping.luts", run.luts as f64),
        ("obs.units", units.len() as f64 / passes),
        ("obs.traced_wall_s", traced_wall),
        ("obs.unattributed_s", unattributed / passes),
        ("obs.unattributed_share", ratio(unattributed, wall)),
        ("obs.first_pass_ratio", ratio(run.pass_s[0], traced_wall)),
        (
            "obs.tracing_overhead_frac",
            run.reference_s
                .map_or(0.0, |r| ratio(run.pass_s[run.pass_s.len() - 1], r) - 1.0),
        ),
        ("host.probe_ratio", probe_ratio(run)),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(PER_LAYER.iter().map(|m| m.name)));
    Ok((values, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_valid() {
        validate().unwrap();
        assert!(valid_name("sat.props_per_s"));
        assert!(valid_name("cec-rands-j2"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn percentiles_interpolate_and_respect_the_sample_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.5);
        assert!((percentile(&v, 90.0) - 90.1).abs() < 1e-9);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    /// `BENCHMARK.json` declares exactly the metrics the binary emits.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::api::Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(crate::api::Json::items)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(crate::api::Json::as_str)
                            .expect(k)
                            .to_string()
                    };
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(crate::api::Json::as_f64),
                    )
                })
                .collect()
        };
        let ours = |list: &[Metric]| -> Vec<(String, String, String, Option<f64>)> {
            list.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(crate::api::Json::items)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(crate::api::Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, names);
    }
}
