//! The host-speed probe: a fixed piece of reference work, timed next to
//! every measured unit.
//!
//! The reference host is shared with other tenants. Their load slows
//! this benchmark by up to half for minutes at a time, while CPU steal
//! stays near zero: the cores run, but share caches and execution units
//! with a busy neighbour. No statistic over one run removes a slow
//! period that outlasts the run. So the benchmark times a fixed probe
//! before and after each unit and reports each unit's time scaled by
//! [`REFERENCE_S`] over the probe's time next to it: seconds at the
//! reference host's typical speed.
//!
//! serve-mixed is scaled once per run instead (see [`SERVE_EXPONENT`]).
//!
//! The probe is the kind of work the library does: data-dependent
//! branches and random accesses into a 256 KiB and a 2 MiB table, and
//! an unstable sort. On the reference host its time tracks a unit's
//! slowdown better than a pure arithmetic loop or a pointer chase
//! (correlation 0.7 against 0.3–0.5 over 600 units). In two ten-run
//! trials, scaling by it cut the spread of batch `wall_s` from 8–10% to
//! 2–4%, and in a noisier hour from 24–31% to 1–3%. Its code lives here
//! and calls nothing in the library, so a change to the library cannot
//! move it.

use std::time::Instant;

/// The probe's median time on the reference host (2 vCPUs, AVX-512)
/// over the runs that defined this benchmark; it only sets the scale.
pub const REFERENCE_S: f64 = 0.0206;

/// How much of serve-mixed's time follows the host's speed, as the
/// power of the probe ratio its times are divided by. A warm job is a
/// cache hit of about 30 ms. The daemon's executor is busy for about
/// 70% of a warm pass, mostly parsing and mapping the submitted AIG;
/// that part follows the host's speed. The rest is waiting on the
/// daemon's 20 ms accept poll, which no host speed changes, and the
/// poll turns small changes in processing time into whole steps of
/// waiting. Over five sets of 8–14 runs (52 in all), the standard
/// deviation of the log of the mean warm pass wall, averaged over the
/// sets, was 3.9% unscaled, 3.2% at this power, 3.5% at 0.5 and 4.4%
/// at 0.75.
pub const SERVE_EXPONENT: f64 = 0.25;

/// Runs the probe and returns its seconds. It allocates its tables
/// afresh each time: a variant that kept them allocated tracked the
/// units as closely (correlation 0.84–0.88) but left 1.5–3× the spread
/// on cec-simgen in a ten-run trial.
pub fn time() -> f64 {
    let start = Instant::now();
    std::hint::black_box(table_updates(1 << 15, 600_000));
    std::hint::black_box(table_updates(1 << 18, 400_000));
    std::hint::black_box(sort(150_000));
    start.elapsed().as_secs_f64()
}

/// `ops` inserts and deletes with linear probing in a fresh table of
/// `slots` words (a power of two), keyed by a xorshift stream.
fn table_updates(slots: usize, ops: usize) -> u64 {
    let mut table = vec![0u64; slots];
    let mask = slots - 1;
    let (mut x, mut acc) = (7u64, 0u64);
    for i in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut h = x as usize & mask;
        for _ in 0..4 {
            let v = table[h];
            if v == 0 {
                table[h] = x | 1;
                break;
            } else if v & 7 == x & 7 {
                acc = acc.wrapping_add(v);
                table[h] = 0;
                break;
            }
            h = (h + 1) & mask;
        }
        if i & 1023 == 0 {
            acc ^= table[acc as usize & mask];
        }
    }
    acc
}

/// Sorts `n` pseudo-random words.
fn sort(n: usize) -> u64 {
    let mut v: Vec<u32> = (0..n as u64)
        .map(|i| crate::workloads::mix(0, i) as u32)
        .collect();
    v.sort_unstable();
    u64::from(v[n / 2])
}

/// What one unit's seconds would have been at the reference speed:
/// `secs` scaled by the reference over the mean of the probes taken
/// before and after it.
pub fn scale(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_undoes_a_uniformly_slow_host() {
        assert_eq!(scale(3.0, REFERENCE_S, REFERENCE_S), 3.0);
        // Twice as slow around the unit: half the seconds.
        let slow = 2.0 * REFERENCE_S;
        assert!((scale(3.0, slow, slow) - 1.5).abs() < 1e-12);
        assert!((scale(3.0, REFERENCE_S, 3.0 * REFERENCE_S) - 1.5).abs() < 1e-12);
        assert!(time() > 0.0);
    }
}
