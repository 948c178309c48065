//! The `schedule` workload: Fenrir's default genetic algorithm (scoring on
//! one thread) on a generated n=50 medium-tier problem at a fixed
//! evaluation budget. It runs no simulator, so a simulator or engine
//! change predicts no change here.

use crate::report::Report;
use crate::tracer::{dist, Tracer};
use cex_core::experiment::ExperimentId;
use cex_core::rng::{sub_seed, SplitMix64};
use fenrir::constraints;
use fenrir::encoding;
use fenrir::fitness::{self, Weights};
use fenrir::ga::GeneticAlgorithm;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::problem::Problem;
use fenrir::runner::{Budget, Evaluator, Scheduler, SearchResult};
use std::time::Instant;

/// Experiments in the generated problem.
const EXPERIMENTS: usize = 50;
/// Fitness evaluations per search.
const BUDGET: u64 = 10_000;
/// Timed evaluations per kind in the traced run.
const SAMPLES: usize = 4_000;

/// Set-up: generate the problem (which builds its index).
pub fn setup(seed: u64, tracer: &mut Tracer) -> Problem {
    tracer.time("fenrir.problem", || {
        ProblemGenerator::new(EXPERIMENTS, SampleSizeTier::Medium).generate(seed)
    })
}

/// The default GA, scoring each generation on one thread. Its result is
/// the same for every worker count; scoring on both cores of a shared
/// 2-vCPU host made each generation wait for the slower core and doubled
/// the run-to-run spread of this workload.
fn search(problem: &Problem, seed: u64) -> SearchResult {
    let ga = GeneticAlgorithm { workers: 1, ..GeneticAlgorithm::default() };
    ga.schedule(problem, Budget::evaluations(BUDGET), seed)
}

/// Checks that the search spent its budget and returned a valid schedule
/// whose reported fitness a fresh evaluation reproduces.
fn check_result(problem: &Problem, result: &SearchResult, report: &mut Report, label: &str) {
    report.check(result.evaluations == BUDGET, || {
        format!("{label}: search spent {} of {BUDGET} evaluations", result.evaluations)
    });
    report.check(
        result.best_report.is_valid() && constraints::is_valid(problem, &result.best),
        || {
            format!(
                "{label}: best schedule is invalid ({} violations)",
                result.best_report.violations
            )
        },
    );
    let again = fitness::evaluate(problem, &result.best, &Weights::default());
    report.check(again == result.best_report, || {
        format!("{label}: re-evaluation gives {again:?}, search reported {:?}", result.best_report)
    });
}

/// Untraced run: searches on freshly generated problems.
pub fn run_untraced(seed: u64, held_out: u64, seconds: f64, report: &mut Report) {
    let fresh = |s| (s, setup(s, &mut Tracer::new(false)));
    crate::measure(report, seed, held_out, seconds, fresh, |(s, problem), report, label| {
        let t = Instant::now();
        let result = search(&problem, s);
        let wall = t.elapsed().as_secs_f64();
        check_result(&problem, &result, report, label);
        let outputs = format!("{:?}|{:?}|{:?}", result.best, result.best_report, result.history);
        crate::Rep {
            wall,
            ops: result.evaluations as f64 / wall,
            digest: crate::fnv1a(outputs.as_bytes()),
        }
    });
}

/// Times `SAMPLES` full evaluations of repaired random schedules and
/// `SAMPLES` incremental single-plan moves from `start`.
fn sample_evals(
    problem: &Problem,
    start: &fenrir::schedule::Schedule,
    seed: u64,
    tracer: &mut Tracer,
) {
    let mut rng = SplitMix64::new(sub_seed(seed, 0xE7));
    let mut ev = Evaluator::new(problem, Budget::evaluations(u64::MAX));
    for _ in 0..SAMPLES {
        let mut s = encoding::random_schedule(problem, &mut rng);
        encoding::repair(problem, &mut s, &mut rng);
        tracer.time("fenrir.eval_full", || std::hint::black_box(ev.eval(&s)));
    }
    ev.eval_seed(start);
    for _ in 0..SAMPLES {
        let id = ExperimentId(rng.next_index(problem.len()));
        let plan = encoding::random_plan(problem, id, &mut rng);
        tracer.time("fenrir.eval_move", || std::hint::black_box(ev.eval_move(id, plan)));
        ev.undo_last();
    }
}

/// Traced run: rounds of a traced set-up, the search, and the evaluation
/// samples untraced and traced, then the held-out seed's search.
pub fn run_traced(seed: u64, held_out: u64, report: &mut Report) {
    let held = |report: &mut Report| {
        let problem = setup(held_out, &mut Tracer::new(false));
        check_result(&problem, &search(&problem, held_out), report, "held-out seed");
    };
    crate::traced(report, "schedule", seed, |tracer, report| round(seed, tracer, report), held);
}

fn round(seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let problem = setup(seed, tracer);
    report.set("fenrir.problem_s", tracer.total_s("fenrir.problem"));
    let t = Instant::now();
    let result = search(&problem, seed);
    let wall = t.elapsed().as_secs_f64();
    check_result(&problem, &result, report, "seed");
    report.set("fenrir.search_s", wall);
    report.set("evals_per_s", result.evaluations as f64 / wall);
    report.set("schedule_fitness", result.best_report.raw);

    let t = Instant::now();
    sample_evals(&problem, &result.best, seed, &mut Tracer::new(false));
    let untraced = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let root = tracer.enter("samples");
    sample_evals(&problem, &result.best, seed, tracer);
    tracer.exit(root);
    let traced = t.elapsed().as_secs_f64();
    report.set_dist("fenrir.eval_full_ns", dist(tracer.durations_ns("fenrir.eval_full")));
    report.set_dist("fenrir.eval_move_ns", dist(tracer.durations_ns("fenrir.eval_move")));
    report.set("bench.tracing_overhead", traced / untraced - 1.0);
}
