//! Guarded-session benchmark: drives full guarded counting sessions
//! through the public entry points from one thread, one session in
//! flight, and prints end-to-end metrics (`--trace 0`) or per-layer
//! metrics (`--trace 1`) as the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --config sessionbench/cargo-config.toml \
//!     --manifest-path sessionbench/Cargo.toml -- \
//!     --workload twin-deep --seed 1 --seconds 25 --trace 0 [--plan-seed 1]
//! ```
//!
//! See `sessionbench/README.md` for the workloads, the metrics and how
//! to read the trace.

mod layers;
mod measure;
mod workload;

use anonet_core::verdict::Verdict;
use layers::{layer_values, PassTotals, Tracer};
use measure::{classify, cpu_seconds, median, pass_order, peak_rss_mib, percentile, Tally};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workload::{setup, Inputs, Workload, DEFAULT_PLAN_SEED};

/// Every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sessions_per_cpu_s", "1/s"),
    ("pass_cpu_ms_p50", "ms"),
    ("pass_cpu_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("decision_rounds_mean", "rounds"),
    ("correct_share", "share"),
    ("sound_share", "share"),
];

/// Timed passes a run holds at least, so ten lie beyond p90; also the
/// exact pass count of a paced run.
const MIN_PASSES: usize = 100;
/// Traced and untraced passes a closed-loop traced run holds at least,
/// each.
const MIN_TRACE_PASSES: usize = 10;
/// A run stops here even if it has not reached its minimum passes.
const HARD_CAP: Duration = Duration::from_secs(150);
/// Set-up is repeated at least this often...
const MIN_SETUPS: usize = 5;
/// ...and until this much time went into it, up to [`MAX_SETUPS`].
const SETUP_BUDGET: Duration = Duration::from_millis(500);
const MAX_SETUPS: usize = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    plan_seed: u64,
    spans_out: String,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut plan_seed = DEFAULT_PLAN_SEED;
    let mut spans_out = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--plan-seed" => plan_seed = number()?,
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        plan_seed,
        spans_out: spans_out.unwrap_or_else(|| {
            format!(
                "{}/out/spans-{}-seed{seed}.jsonl",
                env!("CARGO_MANIFEST_DIR"),
                workload.name()
            )
        }),
    })
}

/// Builds the inputs repeatedly; returns the last build with the median
/// CPU time of a set-up (s) and the median twin-build wall time (ms).
fn timed_setup(workload: Workload, plan_seed: u64) -> Result<(Inputs, f64, f64, usize), String> {
    let started = Instant::now();
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    loop {
        let cpu = cpu_seconds();
        let inputs = setup(workload, plan_seed)?;
        setups.push(cpu_seconds() - cpu);
        builds.push(inputs.build_s * 1e3);
        let enough = setups.len() >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET;
        if enough || setups.len() >= MAX_SETUPS {
            let reps = setups.len();
            return Ok((inputs, median(&mut setups), median(&mut builds), reps));
        }
    }
}

/// When passes start. Closed-loop runs start each pass as soon as the
/// last one ends, until `--seconds` have passed and the minimum pass
/// count is reached. Paced runs (`socket`) hold exactly [`MIN_PASSES`]
/// passes, due evenly over `--seconds`; see `Workload::paced`.
struct Schedule {
    started: Instant,
    seconds: Duration,
    paced: bool,
    min_passes: usize,
    /// How late each paced pass started after it was due, ms.
    late_ms: Vec<f64>,
}

impl Schedule {
    /// Waits for pass `done` (0-based) to be due and returns the instant
    /// it is timed from: when it was due, for a paced pass, so a stall
    /// that delays later passes counts against them. `None` when the run
    /// is over.
    fn next(&mut self, done: usize) -> Result<Option<Instant>, String> {
        if self.paced {
            if done >= MIN_PASSES {
                return Ok(None);
            }
            let due = self.started + self.seconds.mul_f64(done as f64 / MIN_PASSES as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            self.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            return Ok(Some(due));
        }
        let elapsed = self.started.elapsed();
        if elapsed > HARD_CAP {
            return Err(format!("only {done} passes in {HARD_CAP:?}"));
        }
        let more = elapsed < self.seconds || done < self.min_passes;
        Ok(more.then(Instant::now))
    }

    /// A report line on generator lateness, for paced runs.
    fn lateness(&mut self) -> Option<String> {
        let max = self.late_ms.iter().copied().fold(0.0, f64::max);
        let p50 = median(&mut self.late_ms);
        self.paced.then(|| {
            format!(
                "open loop: {MIN_PASSES} passes due every {:?}; start late p50 {p50:.3} ms max {max:.3} ms",
                self.seconds / MIN_PASSES as u32
            )
        })
    }
}

/// Outcome accounting shared by traced and untraced passes.
struct Judge<'a> {
    inputs: &'a Inputs,
    reference: Vec<Option<Verdict>>,
    tally: Tally,
}

impl Judge<'_> {
    fn judge(&mut self, cell: usize, result: &Result<Verdict, String>) {
        let c = &self.inputs.cells[cell];
        let outcome = classify(
            result,
            &c.expect,
            self.reference[cell].as_ref(),
            self.inputs.workload.truth(),
        );
        self.tally.add(outcome, result.as_ref().ok());
    }
}

fn run(args: &Args) -> Result<String, String> {
    let (inputs, setup_s, build_ms, setups) = timed_setup(args.workload, args.plan_seed)?;
    let cells = &inputs.cells;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sessionbench {} n={} budget={} seed={} plan-seed={} sessions/pass={} set-ups={setups} cores={}",
        args.workload.name(),
        args.workload.n(),
        inputs.budget,
        args.seed,
        args.plan_seed,
        cells.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // Untimed warm-up pass; its in-memory verdicts are the reference
    // every later pass must reproduce.
    let socket = args.workload == Workload::Socket;
    let reference = cells
        .iter()
        .map(|c| inputs.run(c).ok().filter(|_| !socket))
        .collect();
    let mut judge = Judge {
        inputs: &inputs,
        reference,
        tally: Tally::default(),
    };

    let mut schedule = Schedule {
        started: Instant::now(),
        seconds: Duration::from_secs(args.seconds),
        paced: args.workload.paced(),
        min_passes: MIN_PASSES,
        late_ms: Vec::new(),
    };
    let mut pass = 0u64;
    let (metrics, extra_failures) = if args.trace {
        schedule.min_passes = 2 * MIN_TRACE_PASSES;
        let mut tracer = Tracer::default();
        let mut traced: Vec<PassTotals> = Vec::new();
        let (mut plain_s, mut plain_sessions, mut traced_s, mut traced_sessions) = (0.0, 0, 0.0, 0);
        let mut last_plain: Vec<Option<Verdict>> = vec![None; cells.len()];
        let mut split_mismatches = 0u64;
        while schedule.next(pass as usize)?.is_some() {
            let plain = pass.is_multiple_of(2);
            let order = pass_order(args.seed, pass, cells.len());
            let mark = tracer.mark();
            let cpu = cpu_seconds();
            let results: Vec<_> = if plain {
                order.iter().map(|&i| inputs.run(&cells[i])).collect()
            } else {
                order
                    .iter()
                    .map(|&i| inputs.run_traced(&cells[i], &mut tracer))
                    .collect()
            };
            let dt = cpu_seconds() - cpu;
            if plain {
                plain_s += dt;
                plain_sessions += cells.len();
            } else {
                traced_s += dt;
                traced_sessions += cells.len();
                traced.push(tracer.totals_since(mark));
            }
            for (&i, result) in order.iter().zip(&results) {
                judge.judge(i, result);
                if plain {
                    last_plain[i] = result.as_ref().ok().copied();
                } else if socket && result.as_ref().ok() != last_plain[i].as_ref() {
                    // The split path must reach run_socketed's verdict.
                    split_mismatches += 1;
                }
            }
            pass += 1;
        }
        let overhead =
            1.0 - (traced_sessions as f64 / traced_s) / (plain_sessions as f64 / plain_s);
        if let Some(dir) = std::path::Path::new(&args.spans_out).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&args.spans_out, tracer.to_jsonl())
            .map_err(|e| format!("{}: {e}", args.spans_out))?;
        let _ = writeln!(
            out,
            "traced passes {} untraced passes {} split mismatches {split_mismatches} spans {}",
            traced.len(),
            pass as usize - traced.len(),
            args.spans_out,
        );
        let metrics: Vec<(&str, &str, f64)> = layer_values(&traced, build_ms, overhead)
            .into_iter()
            .map(|(m, v)| (m.name, m.unit, v))
            .collect();
        (metrics, split_mismatches)
    } else {
        // Each pass is timed twice: CPU time of the whole process (every
        // peer and proxy thread included), which the metrics report, and
        // wall time, which the report line shows but which moves with the
        // host's load on a shared machine.
        let (mut cpu_ms, mut wall_ms) = (Vec::new(), Vec::new());
        while let Some(t) = schedule.next(pass as usize)? {
            let order = pass_order(args.seed, pass, cells.len());
            let cpu = cpu_seconds();
            let results: Vec<_> = order.iter().map(|&i| inputs.run(&cells[i])).collect();
            cpu_ms.push((cpu_seconds() - cpu) * 1e3);
            wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
            for (&i, result) in order.iter().zip(&results) {
                judge.judge(i, result);
            }
            pass += 1;
        }
        let tally = &judge.tally;
        let per_s = |ms: &[f64]| tally.sessions as f64 / (ms.iter().sum::<f64>() / 1e3);
        let _ = writeln!(
            out,
            "wall time: sessions_per_s {} pass_ms_p50 {} pass_ms_p90 {}",
            per_s(&wall_ms),
            percentile(&mut wall_ms, 50.0)?,
            percentile(&mut wall_ms, 90.0)?,
        );
        let values = [
            setup_s,
            per_s(&cpu_ms),
            percentile(&mut cpu_ms, 50.0)?,
            percentile(&mut cpu_ms, 90.0)?,
            peak_rss_mib()?,
            tally.decision_rounds_mean(),
            tally.correct_share(),
            1.0 - tally.failed_share(),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect();
        (metrics, 0)
    };

    if let Some(line) = schedule.lateness() {
        let _ = writeln!(out, "{line}");
    }
    let tally = &judge.tally;
    let _ = writeln!(
        out,
        "passes {pass} sessions {} ({}) failed_share {}",
        tally.sessions,
        tally.summary(),
        tally.failed_share(),
    );
    let mut json = String::new();
    for (name, unit, value) in &metrics {
        let _ = writeln!(out, "  {name} = {value} {unit}");
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    let failed = tally.operation_failures() + extra_failures;
    let _ = write!(
        out,
        r#"{{"correct": {}, "attempted": {}, "failed": {failed}, "metrics": {{{json}}}}}"#,
        failed == 0,
        tally.sessions,
    );
    Ok(out)
}

/// Makes glibc's allocator keep freed memory instead of returning it
/// to the kernel: every allocation comes from the heap and the heap is
/// never trimmed. Sessions then reuse pages rather than fault in fresh
/// zeroed ones, whose cost depends on the host's memory state and made
/// pass times bimodal on a shared VM. The allocator's own work still
/// counts; only kernel page provisioning leaves the timed passes.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn retain_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: mallopt only adjusts allocator tunables; it is called
    // before any other thread exists.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn retain_freed_memory() {}

fn main() {
    retain_freed_memory();
    let result = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    match result {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("sessionbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every object in one `BENCHMARK.json` section, in
    /// order; the unit is empty where the object has none.
    fn section(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, name: &str| {
            let tag = format!("\"{name}\": \"");
            obj.find(&tag).map_or(String::new(), |at| {
                let value = &obj[at + tag.len()..];
                value[..value.find('"').expect("string closes")].to_string()
            })
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn printed_names_and_units_match_the_benchmark_file() {
        let doc = include_str!("../../BENCHMARK.json");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(doc, "end_to_end"), owned(&END_TO_END));
        let layers: Vec<(&str, &str)> = layers::LAYER_METRICS
            .iter()
            .map(|m| (m.name, m.unit))
            .collect();
        assert_eq!(section(doc, "per_layer"), owned(&layers));
        let workloads: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), "")).collect();
        assert_eq!(section(doc, "workloads"), owned(&workloads));
    }

    #[test]
    fn arguments_are_required_and_checked() {
        let argv = |s: &str| {
            s.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let ok = parse_args(argv("--workload socket --seed 3 --seconds 1 --trace 1")).unwrap();
        assert!(ok.trace && ok.seed == 3 && ok.plan_seed == DEFAULT_PLAN_SEED);
        assert!(parse_args(argv("--workload socket --seed 3 --seconds 1")).is_err());
        assert!(parse_args(argv("--workload nope --seed 3 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(argv("--workload socket --seed x --seconds 1 --trace 0")).is_err());
    }
}
