//! Offline drop-in subset of the `criterion` bench harness.
//!
//! The build environment cannot reach crates.io, so this crate
//! reimplements the API surface the workspace's benches use:
//! [`Criterion`] with `bench_function`/`benchmark_group`,
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`],
//! [`BenchmarkId`], [`black_box`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Measurement is deliberately simple: each benchmark body is timed
//! over `sample_size` samples after one warm-up run, and the
//! median/min/max per-iteration times are printed. There are no HTML
//! reports, no statistical regression — just honest wall-clock
//! numbers on stdout.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark inside a group (`function/parameter`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter rendering.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// An id from a parameter only.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] runs and times the
/// body.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `body` over the configured number of samples.
    pub fn iter<R>(&mut self, mut body: impl FnMut() -> R) {
        // Warm-up (untimed) to populate caches and lazy state.
        black_box(body());
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            black_box(body());
            self.samples.push(t.elapsed());
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

fn run_one(full_id: &str, sample_size: usize, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{full_id:<50} (no samples: bencher.iter never called)");
        return;
    }
    b.samples.sort();
    let median = b.samples[b.samples.len() / 2];
    let min = b.samples[0];
    let max = *b.samples.last().expect("nonempty");
    println!(
        "{full_id:<50} time: [{} {} {}]",
        fmt_duration(min),
        fmt_duration(median),
        fmt_duration(max)
    );
}

/// The top-level bench context.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        run_one(&id.into().id, self.sample_size, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size,
        }
    }

    /// Upstream parity no-op (`configure_from_args`).
    pub fn configure_from_args(self) -> Self {
        self
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample size for subsequent benches in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        run_one(&full, self.sample_size, f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        run_one(&full, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(self) {}
}

/// Declares a bench group: a function running each target against a
/// shared [`Criterion`] configuration.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target_a(c: &mut Criterion) {
        c.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
    }

    fn target_b(c: &mut Criterion) {
        let mut group = c.benchmark_group("grouped");
        group.sample_size(3);
        group.bench_with_input(BenchmarkId::new("square", 7), &7u64, |b, &x| {
            b.iter(|| x * x)
        });
        group.bench_function("id-from-str", |b| b.iter(|| 1 + 1));
        group.finish();
    }

    criterion_group!(plain, target_a);
    criterion_group! {
        name = configured;
        config = Criterion::default().sample_size(5);
        targets = target_a, target_b
    }

    #[test]
    fn groups_run_without_panicking() {
        plain();
        configured();
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(40)), "40.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }

    #[test]
    fn benchmark_id_rendering() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
