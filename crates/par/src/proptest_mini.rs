//! A minimal property-testing harness: seeded case generation and
//! failure-seed replay, no macros, no shrinking.
//!
//! The four property suites that used to run on `proptest` run on this
//! instead. The contract:
//!
//! * [`check`] runs a property closure against `cases` generated cases.
//!   Each case gets a [`Gen`] seeded with a *case seed* derived from the
//!   base seed, and asserts by panicking (plain `assert!` and friends).
//! * On failure the harness prints the failing case seed and re-raises
//!   the panic. Re-running with `DISTCONV_PROPTEST_SEED=<that seed>`
//!   replays exactly that case (and only it) — the replacement for
//!   proptest's `proptest-regressions` files. Persistent regressions
//!   are promoted to explicit `#[test]` cases instead (see
//!   `tests/property_based.rs`).
//! * `DISTCONV_PROPTEST_CASES=<n>` globally overrides the case count
//!   (e.g. crank it up for a soak run, or to 1 for a smoke pass).
//!
//! There is no shrinking: case inputs here are small by construction
//! (the references being validated are `O(N⁷)`), so raw failing cases
//! are already readable. A failing case seed plus the printed `Debug`
//! of whatever the property sampled is the debugging interface.

use crate::rng::{splitmix64, SplitMix64};

/// Env var: replay exactly one case with this seed.
pub const SEED_ENV: &str = "DISTCONV_PROPTEST_SEED";
/// Env var: override the number of generated cases.
pub const CASES_ENV: &str = "DISTCONV_PROPTEST_CASES";

/// Per-case value source handed to property closures. Thin wrapper
/// over [`SplitMix64`] that records its case seed for diagnostics.
pub struct Gen {
    rng: SplitMix64,
    case_seed: u64,
}

impl Gen {
    /// A generator for one case.
    pub fn new(case_seed: u64) -> Self {
        Gen {
            rng: SplitMix64::new(case_seed),
            case_seed,
        }
    }

    /// The seed that reproduces this case via [`SEED_ENV`].
    pub fn case_seed(&self) -> u64 {
        self.case_seed
    }

    /// Uniform 64 random bits (proptest's `any::<u64>()`).
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform `u32` in `[lo, hi]` inclusive.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.u64_in(lo as u64, hi as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi]` inclusive.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.usize_in(lo, hi)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// Uniform bool.
    pub fn bool(&mut self) -> bool {
        self.rng.bool()
    }
}

/// Harness configuration, resolved from defaults + environment.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of cases to generate (before env overrides).
    pub cases: u32,
    /// Base seed; case `i`'s seed is `splitmix64(base ^ i)`.
    pub base_seed: u64,
}

impl Config {
    /// Default configuration: `cases` cases from a fixed base seed.
    /// Tests are deterministic run-to-run by default; variation is
    /// opt-in via [`SEED_ENV`] on a failure report.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            base_seed: 0xD15C_0411_C0FF_EE00,
        }
    }
}

/// Run `property` against generated cases. See the module docs for the
/// env-var contract. `name` labels failure output — use the test
/// function's name.
pub fn check<F>(name: &str, cfg: Config, property: F)
where
    F: Fn(&mut Gen),
{
    // Replay mode: exactly one case, exactly that seed.
    if let Ok(v) = std::env::var(SEED_ENV) {
        let seed = parse_seed(&v)
            .unwrap_or_else(|| panic!("{SEED_ENV}={v:?} is not a u64 (decimal or 0x-hex)"));
        eprintln!("proptest_mini[{name}]: replaying single case, seed {seed:#018x}");
        let mut g = Gen::new(seed);
        property(&mut g);
        return;
    }
    let cases = std::env::var(CASES_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .unwrap_or(cfg.cases);
    for i in 0..cases {
        let case_seed = splitmix64(cfg.base_seed ^ i as u64);
        let mut g = Gen::new(case_seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut g);
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "proptest_mini[{name}]: case {i}/{cases} FAILED — replay with \
                 {SEED_ENV}={case_seed:#018x} (cargo test {name})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    #[test]
    fn runs_requested_number_of_cases() {
        let count = AtomicU32::new(0);
        check("count", Config::with_cases(37), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn case_seeds_are_deterministic_across_runs() {
        let collect = || {
            let seeds = std::sync::Mutex::new(Vec::new());
            check("seeds", Config::with_cases(8), |g| {
                seeds.lock().unwrap().push(g.case_seed());
            });
            seeds.into_inner().unwrap()
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        // And distinct per case.
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8);
    }

    #[test]
    fn failure_reports_a_seed_that_replays_the_same_case() {
        // Find the case that fails, capture its seed from the Gen, then
        // verify a fresh Gen with that seed regenerates identical values
        // — the property the env-var replay path relies on.
        let failing_seed = AtomicU64::new(0);
        let sampled = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check("replay", Config::with_cases(16), |g| {
                let v = g.u64();
                if g.case_seed() % 5 == 0 {
                    failing_seed.store(g.case_seed(), Ordering::Relaxed);
                    sampled.store(v, Ordering::Relaxed);
                    panic!("synthetic failure");
                }
            });
        }));
        assert!(result.is_err(), "some case seed must be divisible by 5");
        let seed = failing_seed.load(Ordering::Relaxed);
        let mut replay = Gen::new(seed);
        assert_eq!(
            replay.u64(),
            sampled.load(Ordering::Relaxed),
            "replaying the reported seed must regenerate the case"
        );
    }

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("123"), Some(123));
        assert_eq!(parse_seed(" 0xff "), Some(255));
        assert_eq!(parse_seed("0XDEADBEEF"), Some(0xDEAD_BEEF));
        assert_eq!(parse_seed("nope"), None);
    }

    #[test]
    fn gen_ranges_behave() {
        let mut g = Gen::new(1);
        for _ in 0..100 {
            let v = g.usize_in(2, 4);
            assert!((2..=4).contains(&v));
            let u = g.u32_in(7, 7);
            assert_eq!(u, 7);
            let f = g.f64_unit();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
