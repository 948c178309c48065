//! End-to-end benchmark of the repository's crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet|checks|corpus|schedule> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is built from `--seed` and driven only through the
//! crates' public APIs with their default configurations. With
//! `--trace 0` the workload is executed repeatedly for `--seconds` and the
//! end-to-end metrics are medians over those executions. With `--trace 1`
//! a traced run times the benchmark's own calls into each layer (spans are
//! written to `.perfbench/spans-<workload>-<seed>.jsonl`) and reports the
//! per-layer metrics. Each run also checks the workload's pinned verdicts
//! on a held-out seed derived from `--seed`. The last line of standard
//! output is one JSON object; the exit code is non-zero when any output
//! check failed.

mod corpus;
mod fleets;
mod report;
mod schedule;
mod tracer;

use report::{Mode, Report};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <fleet|checks|corpus|schedule> --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed before each execution of an untraced run; the last one
/// feeds the execution. The first runs on caches the previous execution
/// evicted, the rest on warm ones; `setup_s` is the median of all of them,
/// spread over the whole run like the executions.
const SETUPS_PER_REP: usize = 9;

/// Fewest timed executions of an untraced run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// `fleet` or `checks`: a Bifrost engine execution.
    Engine(fleets::Kind),
    Corpus,
    Schedule,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "fleet" => Workload::Engine(fleets::Kind::Fleet),
        "checks" => Workload::Engine(fleets::Kind::Checks),
        "corpus" => Workload::Corpus,
        "schedule" => Workload::Schedule,
        other => return Err(format!("unknown workload {other}")),
    };
    let seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One measured execution of a workload.
pub struct Rep {
    /// Host seconds of the execution alone.
    pub wall: f64,
    /// The workload's unit of work per host second.
    pub ops: f64,
    /// Digest of the execution's deterministic outputs.
    pub digest: u64,
}

/// The untraced run shared by every workload. It first executes the
/// held-out seed's inputs, which checks the pinned verdicts on inputs no
/// tuning saw and warms the process up. Then it executes the seed's inputs,
/// each on a fresh set-up timed [`SETUPS_PER_REP`] times, for as many
/// rounds as fit in `seconds` (counting the held-out execution, and at
/// least [`MIN_REPS`]): a round starts only if a round of median length
/// still ends in time, so a run does not overshoot its budget. `run`
/// checks each execution's verdicts, and the seed's executions must agree
/// byte for byte. Sets `wall_s`, `setup_s` and `ops_per_s` to medians over
/// the seed's executions.
pub fn measure<I>(
    report: &mut Report,
    seed: u64,
    held_out: u64,
    seconds: f64,
    mut setup: impl FnMut(u64) -> I,
    mut run: impl FnMut(I, &mut Report, &'static str) -> Rep,
) {
    let started = Instant::now();
    run(setup(held_out), report, "held-out seed");
    let (mut setups, mut walls, mut ops, mut rounds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_digest = None;
    while walls.len() < MIN_REPS
        || started.elapsed().as_secs_f64() + median(rounds.clone()) <= seconds
    {
        let round = Instant::now();
        let mut input = None;
        for _ in 0..SETUPS_PER_REP {
            let t = Instant::now();
            let made = setup(seed);
            setups.push(t.elapsed().as_secs_f64());
            input = Some(made);
        }
        let rep = run(input.expect("at least one set-up"), report, "seed");
        eprintln!(
            "perfbench: execution {} took {:.4} s for {:.0} ops",
            walls.len(),
            rep.wall,
            rep.ops * rep.wall
        );
        walls.push(rep.wall);
        ops.push(rep.ops);
        rounds.push(round.elapsed().as_secs_f64());
        match first_digest {
            None => {
                eprintln!("perfbench: output digest {:016x}", rep.digest);
                first_digest = Some(rep.digest);
            }
            Some(d) => report.check(d == rep.digest, || "same-seed executions differ".into()),
        }
    }
    report.set("wall_s", median(walls));
    report.set("setup_s", median(setups));
    report.set("ops_per_s", median(ops));
}

/// FNV-1a, 64-bit: the digest of an execution's outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Rounds of a traced run. Each per-layer metric is the median of its
/// per-round values, so one slow phase of a shared host does not set it.
const ROUNDS: usize = 3;

/// The traced run shared by every workload: `round` runs [`ROUNDS`] times,
/// each with a fresh tracer, and must leave no span whose children sum past
/// it; `held_out` then checks the held-out seed's verdicts. The last
/// round's spans are written to `.perfbench/spans-<workload>-<seed>.jsonl`
/// in the working directory.
pub fn traced(
    report: &mut Report,
    workload: &str,
    seed: u64,
    mut round: impl FnMut(&mut tracer::Tracer, &mut Report),
    held_out: impl FnOnce(&mut Report),
) {
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut last = None;
    for _ in 0..ROUNDS {
        let mut tracer = tracer::Tracer::new(true);
        let mut r = Report::new(Mode::PerLayer);
        round(&mut tracer, &mut r);
        let over = tracer::overfull(tracer.spans());
        r.check(over.is_none(), || format!("children of span {over:?} sum past it"));
        rounds.push(r);
        last = Some(tracer);
    }
    report.absorb_medians(rounds);
    held_out(report);
    let path = std::path::Path::new(".perfbench").join(format!("spans-{workload}-{seed}.jsonl"));
    if let Err(e) = last.expect("at least one round").write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Peak resident memory of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The held-out seed: never passed in, so no tuning can target it.
    let held_out = cex_core::rng::sub_seed(args.seed, 0x4E1D0);
    let mut report = Report::new(if args.trace { Mode::PerLayer } else { Mode::EndToEnd });
    let (seed, seconds, r) = (args.seed, args.seconds, &mut report);
    match (args.workload, args.trace) {
        (Workload::Engine(k), false) => fleets::run_untraced(k, seed, held_out, seconds, r),
        (Workload::Engine(k), true) => fleets::run_traced(k, seed, held_out, r),
        (Workload::Corpus, false) => corpus::run_untraced(seed, held_out, seconds, r),
        (Workload::Corpus, true) => corpus::run_traced(seed, held_out, r),
        (Workload::Schedule, false) => schedule::run_untraced(seed, held_out, seconds, r),
        (Workload::Schedule, true) => schedule::run_traced(seed, held_out, r),
    }
    if !args.trace {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args("--workload corpus --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Corpus, 7, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload fleet --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload fleet --seed 7 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload fleet --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
