//! Statistics and outcome accounting: pass percentiles, the session
//! outcome classifier, per-pass session order and peak memory.

use crate::workload::{splitmix, Expect};
use anonet_core::verdict::Verdict;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples` (sorted in place).
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond it, so a
/// tail percentile is never read off a handful of passes.
pub fn percentile(samples: &mut [f64], p: f64) -> Result<f64, String> {
    if !(0.0..100.0).contains(&p) {
        return Err(format!("percentile {p} is outside [0, 100)"));
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it; need at least {MIN_BEYOND}",
            n.saturating_sub(rank)
        ));
    }
    Ok(samples[rank - 1])
}

/// The median of `values` (sorted in place); 0 for no values.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// How one session ended, judged against its cell's expectation and the
/// true count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Reported exactly the true count.
    Correct,
    /// `ModelViolation` or `Undecided`: a success under a fault plan.
    FailClosed,
    /// Reported a count other than the truth.
    SilentWrong,
    /// The verdict broke its cell's check: a clean cell off its
    /// expected verdict, a socket verdict unlike the in-memory guarded
    /// one, or an in-memory verdict unlike the warm-up pass's.
    Mismatch,
    /// The run returned an error.
    Error,
}

/// Classifies one session's result. `reference` is the verdict the same
/// cell gave in the warm-up pass, if any.
pub fn classify(
    result: &Result<Verdict, String>,
    expect: &Expect,
    reference: Option<&Verdict>,
    truth: u64,
) -> Outcome {
    let Ok(verdict) = result else {
        return Outcome::Error;
    };
    let expected = match expect {
        Expect::Any => true,
        Expect::Exactly(v) => verdict == v,
    };
    if !expected || reference.is_some_and(|r| r != verdict) {
        return Outcome::Mismatch;
    }
    match verdict.count() {
        Some(c) if c == truth => Outcome::Correct,
        Some(_) => Outcome::SilentWrong,
        None => Outcome::FailClosed,
    }
}

/// Running outcome totals of a set of sessions.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Sessions classified.
    pub sessions: u64,
    /// Sessions per outcome, in [`Outcome`] declaration order.
    by_outcome: [u64; 5],
    /// Sum of decision rounds over `Correct` sessions.
    correct_rounds: u64,
}

impl Tally {
    /// Adds one classified session.
    pub fn add(&mut self, outcome: Outcome, verdict: Option<&Verdict>) {
        self.sessions += 1;
        self.by_outcome[outcome as usize] += 1;
        if let (Outcome::Correct, Some(Verdict::Correct { rounds, .. })) = (outcome, verdict) {
            self.correct_rounds += u64::from(*rounds);
        }
    }

    fn of(&self, outcome: Outcome) -> u64 {
        self.by_outcome[outcome as usize]
    }

    /// Sessions that failed in any of the three ways.
    pub fn failures(&self) -> u64 {
        [Outcome::SilentWrong, Outcome::Mismatch, Outcome::Error]
            .iter()
            .map(|&o| self.of(o))
            .sum()
    }

    /// Sessions whose run or check failed.
    pub fn operation_failures(&self) -> u64 {
        self.of(Outcome::Mismatch) + self.of(Outcome::Error)
    }

    /// Share of sessions that reported exactly the true count.
    pub fn correct_share(&self) -> f64 {
        self.of(Outcome::Correct) as f64 / self.sessions.max(1) as f64
    }

    /// Share of sessions that failed.
    pub fn failed_share(&self) -> f64 {
        self.failures() as f64 / self.sessions.max(1) as f64
    }

    /// Mean decision round over sessions that reported the true count.
    pub fn decision_rounds_mean(&self) -> f64 {
        self.correct_rounds as f64 / self.of(Outcome::Correct).max(1) as f64
    }

    /// One line naming every outcome count.
    pub fn summary(&self) -> String {
        format!(
            "correct {} fail-closed {} silent-wrong {} mismatch {} error {}",
            self.of(Outcome::Correct),
            self.of(Outcome::FailClosed),
            self.of(Outcome::SilentWrong),
            self.of(Outcome::Mismatch),
            self.of(Outcome::Error),
        )
    }
}

/// The session order of pass `pass`: a Fisher–Yates shuffle of
/// `0..len` drawn from `(seed, pass)`.
pub fn pass_order(seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = splitmix(seed ^ splitmix(pass));
    for i in (1..len).rev() {
        state = splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// CPU time consumed so far by every thread of this process, live or
/// exited (`CLOCK_PROCESS_CPUTIME_ID`), in seconds.
///
/// With paravirtualised steal accounting, time the hypervisor gave this
/// guest's vCPUs to other guests is not charged, so unlike wall time it
/// does not move with the host's load.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let mut ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile(&mut ninety_nine, 90.0).is_err());
        let mut hundred: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut hundred, 90.0), Ok(89.0));
        assert_eq!(percentile(&mut hundred, 50.0), Ok(49.0));
        let mut nineteen: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(percentile(&mut nineteen, 50.0).is_err());
        assert!(percentile(&mut hundred, 100.0).is_err());
    }

    #[test]
    fn classifier_separates_the_outcomes() {
        let correct = Verdict::Correct {
            count: 4,
            rounds: 3,
        };
        let wrong = Verdict::Correct {
            count: 5,
            rounds: 3,
        };
        let closed = Verdict::Undecided {
            rounds: 5,
            candidates: None,
        };
        let any = Expect::Any;
        assert_eq!(classify(&Ok(correct), &any, None, 4), Outcome::Correct);
        assert_eq!(classify(&Ok(wrong), &any, None, 4), Outcome::SilentWrong);
        assert_eq!(classify(&Ok(closed), &any, None, 4), Outcome::FailClosed);
        assert_eq!(classify(&Err("bind".into()), &any, None, 4), Outcome::Error);
        // A socket verdict that differs from the in-memory one is a
        // mismatch even when both fail closed or both are wrong.
        let in_memory = Expect::Exactly(wrong);
        assert_eq!(
            classify(&Ok(wrong), &in_memory, None, 4),
            Outcome::SilentWrong
        );
        assert_eq!(
            classify(&Ok(closed), &in_memory, None, 4),
            Outcome::Mismatch
        );
        // A clean cell that fails closed broke its check.
        let clean = Expect::Exactly(correct);
        assert_eq!(classify(&Ok(correct), &clean, None, 4), Outcome::Correct);
        assert_eq!(classify(&Ok(closed), &clean, None, 4), Outcome::Mismatch);
        // A verdict that drifts from the warm-up pass is a mismatch.
        assert_eq!(
            classify(&Ok(closed), &any, Some(&correct), 4),
            Outcome::Mismatch
        );
    }

    #[test]
    fn tally_shares() {
        let mut t = Tally::default();
        let c = Verdict::Correct {
            count: 4,
            rounds: 3,
        };
        t.add(Outcome::Correct, Some(&c));
        t.add(Outcome::FailClosed, None);
        t.add(Outcome::SilentWrong, None);
        t.add(Outcome::Error, None);
        assert_eq!(t.correct_share(), 0.25);
        assert_eq!(t.failed_share(), 0.5);
        assert_eq!(t.operation_failures(), 1);
        assert_eq!(t.decision_rounds_mean(), 3.0);
    }

    #[test]
    fn cpu_time_counts_work_done() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > before, "{x}");
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let a = pass_order(7, 3, 34);
        assert_eq!(a, pass_order(7, 3, 34));
        assert_ne!(a, pass_order(7, 4, 34));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..34).collect::<Vec<_>>());
    }
}
