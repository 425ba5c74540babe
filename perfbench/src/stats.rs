//! Sampling and summary helpers: percentiles, the open-loop arrival
//! schedule, and the process counters read from `/proc/self`.

use distconv_par::SplitMix64;
use std::time::Duration;

/// Nearest-rank percentile (`q` in `[0, 100]`) of an ascending slice —
/// the rule `distconv_serve::percentile_ms` uses, so harness and server
/// percentiles are comparable. Empty input yields 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `v` ascending (NaN-free input) and return it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Nearest-rank median.
pub fn median(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 50.0)
}

/// Open-loop arrival offsets in `[0, window)`: `rate_per_s × window`
/// arrivals placed uniformly at random and sorted — a Poisson process
/// conditioned on its count, so the offered load is the same on every
/// seed. A pure function of `seed`.
pub fn arrivals(seed: u64, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let n = (rate_per_s * window.as_secs_f64()).round() as usize;
    let mut out: Vec<Duration> = (0..n).map(|_| window.mul_f64(rng.next_f64())).collect();
    out.sort();
    out
}

/// Process user + system CPU time so far, in milliseconds, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks/s; the
/// process totals include threads that have already exited).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    (tick(11) + tick(12)) as f64 * 10.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_agrees_with_the_serving_layer() {
        let mut rng = SplitMix64::new(7);
        for n in [1usize, 2, 3, 10, 37, 100, 1001] {
            let durations: Vec<Duration> = {
                let mut d: Vec<Duration> = (0..n)
                    .map(|_| Duration::from_nanos(rng.u64_in(1, 50_000_000)))
                    .collect();
                d.sort();
                d
            };
            let ms: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e3).collect();
            for q in [0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
                assert_eq!(
                    percentile(&ms, q),
                    distconv_serve::percentile_ms(&durations, q),
                    "n={n} q={q}"
                );
            }
        }
        assert_eq!(
            percentile(&[], 50.0),
            distconv_serve::percentile_ms(&[], 50.0)
        );
    }

    #[test]
    fn arrival_schedule_is_a_pure_function_of_the_seed() {
        let w = Duration::from_secs(20);
        let a = arrivals(11, 60.0, w);
        assert_eq!(a, arrivals(11, 60.0, w));
        assert_ne!(a, arrivals(12, 60.0, w));
        assert_eq!(a.len(), 1200);
        assert!(a.windows(2).all(|p| p[0] <= p[1]), "offsets ascend");
        assert!(a.last().is_some_and(|&t| t < w));
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
