//! The `corpus` workload: the scenario-corpus sweep, 4 topology families
//! x 4 workload kinds x 5 faults = 80 cells, one after another on one
//! thread, with no Bifrost engine.

use crate::report::Report;
use crate::tracer::{dist, Tracer};
use cex_core::rng::sub_seed;
use cex_core::simtime::SimDuration;
use microsim::corpus::{
    self, BlameAccumulator, FaultScenario, Scenario, FAMILIES, FAULTS, WORKLOADS,
};
use microsim::resilience::{BreakerPolicy, CallPolicy};
use microsim::sim::RunReport;
use microsim::trace::Trace;
use microsim::Simulation;
use std::time::Instant;

/// Length of each cell's healthy, faulted and protected window.
const WINDOW: SimDuration = SimDuration::from_secs(40);
/// Base arrival rate of every cell's workload.
const RATE_RPS: f64 = 12.0;
/// Candidate share of the experiment service's traffic.
const CANARY_SHARE: f64 = 0.3;

/// The standard resilience policy: one retry with jittered backoff, a
/// count-window breaker and a fallback.
fn standard_policy() -> CallPolicy {
    CallPolicy {
        max_retries: 1,
        backoff_base: SimDuration::from_millis(20),
        jitter: 0.5,
        breaker: Some(BreakerPolicy {
            error_threshold: 0.5,
            min_calls: 10,
            window: 40,
            cooldown: SimDuration::from_secs(5),
            half_open_probes: 3,
        }),
        fallback: true,
        fallback_latency: SimDuration::from_millis(1),
        ..CallPolicy::default()
    }
}

/// Set-up: one generated scenario per topology family.
pub fn setup(seed: u64, tracer: &mut Tracer) -> Vec<Scenario> {
    FAMILIES.iter().map(|&f| tracer.time("corpus.generate", || corpus::generate(f, seed))).collect()
}

/// What one sweep produced.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Every window's report, in sweep order.
    pub runs: Vec<RunReport>,
    /// Cells swept.
    pub cells: u64,
    /// Cells whose top-ranked edge ends at a faulted version.
    pub localized: u64,
    /// Cells that did not localize, by name.
    pub misses: Vec<String>,
    /// Mean unprotected / mean protected error rate over the cells whose
    /// fault produces errors.
    pub containment: f64,
    /// Traces drained.
    pub traces: u64,
}

impl Sweep {
    /// Simulated requests.
    pub fn requests(&self) -> u64 {
        self.runs.iter().map(|r| r.requests).sum()
    }

    /// Simulated seconds.
    pub fn sim_s(&self) -> f64 {
        self.runs.iter().map(|r| (r.to - r.from).as_millis() as f64 / 1e3).sum()
    }
}

fn drain_into(
    sim: &mut Simulation,
    scratch: &mut Vec<Trace>,
    traces: &mut u64,
    tracer: &mut Tracer,
) -> BlameAccumulator {
    tracer.time("trace.drain", || sim.drain_traces_into(scratch));
    *traces += scratch.len() as u64;
    let mut blame = BlameAccumulator::new();
    for trace in scratch.iter() {
        tracer.time("corpus.blame_fold", || blame.observe_trace(trace));
    }
    blame
}

/// Runs every cell of the corpus over `scenarios`.
pub fn sweep(scenarios: &[Scenario], seed: u64, tracer: &mut Tracer) -> Sweep {
    let mut out = Sweep::default();
    let mut scratch = Vec::new();
    let (mut unprotected, mut protected, mut error_cells) = (0.0, 0.0, 0u32);
    for scenario in scenarios {
        for kind in WORKLOADS {
            for fault in FAULTS {
                let cell = tracer.enter("cell");
                let cell_seed = sub_seed(seed, out.cells);
                out.cells += 1;
                let wl = corpus::workload_for(scenario, kind, RATE_RPS);
                let mut sim = Simulation::new(scenario.app.clone(), cell_seed);
                sim.set_trace_sampling(1.0);
                scenario.canary_split(&mut sim, CANARY_SHARE).expect("canary split is valid");
                let healthy_run = tracer.time("sim.run_with", || sim.run_with(WINDOW, &wl));
                let healthy = drain_into(&mut sim, &mut scratch, &mut out.traces, tracer);
                for f in corpus::faults_for(scenario, fault, sim.now(), sim.now() + WINDOW) {
                    sim.inject_fault(f);
                }
                let faulted_run = tracer.time("sim.run_with", || sim.run_with(WINDOW, &wl));
                let faulted = drain_into(&mut sim, &mut scratch, &mut out.traces, tracer);
                let ranked =
                    tracer.time("corpus.localize", || corpus::localize(&healthy, &faulted));
                let victims = corpus::fault_victims(scenario, fault);
                if ranked
                    .first()
                    .is_some_and(|(e, score)| *score > 0.0 && victims.contains(&e.callee))
                {
                    out.localized += 1;
                } else {
                    out.misses.push(format!(
                        "{}/{}/{}",
                        scenario.family.name(),
                        kind.name(),
                        fault.name()
                    ));
                }

                // The same fault, this time behind the standard policy.
                let mut guarded = Simulation::new(scenario.app.clone(), sub_seed(cell_seed, 1));
                guarded.set_trace_sampling(0.0);
                guarded.set_call_policy(standard_policy());
                scenario.canary_split(&mut guarded, CANARY_SHARE).expect("canary split is valid");
                for f in corpus::faults_for(scenario, fault, guarded.now(), guarded.now() + WINDOW)
                {
                    guarded.inject_fault(f);
                }
                let guarded_run = tracer.time("sim.run_with", || guarded.run_with(WINDOW, &wl));
                // Latency-only faults produce no errors on either side.
                if !matches!(
                    fault,
                    FaultScenario::CandidateLatencySpike | FaultScenario::LatencyStorm
                ) {
                    error_cells += 1;
                    unprotected += faulted_run.error_rate();
                    protected += guarded_run.error_rate();
                }
                out.runs.extend([healthy_run, faulted_run, guarded_run]);
                tracer.exit(cell);
            }
        }
    }
    let n = f64::from(error_cells.max(1));
    // Floor the protected rate at one failure per thousand requests so a
    // perfectly clean protected sweep still gives a finite ratio.
    out.containment = (unprotected / n) / (protected / n).max(1e-3);
    out
}

/// Checks one sweep's outputs: every cell localises and the policy
/// contains the faults.
fn check_sweep(sweep: &Sweep, report: &mut Report, label: &str) {
    report.check(sweep.cells == (FAMILIES.len() * WORKLOADS.len() * FAULTS.len()) as u64, || {
        format!("{label}: swept {} cells", sweep.cells)
    });
    for miss in &sweep.misses {
        report.check(false, || format!("{label}: cell {miss} did not localize"));
    }
    for _ in 0..sweep.localized {
        report.check(true, String::new);
    }
    report.check(sweep.containment > 1.0, || {
        format!("{label}: containment ratio {} is not above 1", sweep.containment)
    });
}

/// Untraced run: sweeps of the corpus.
pub fn run_untraced(seed: u64, held_out: u64, seconds: f64, report: &mut Report) {
    let fresh = |s| (s, setup(s, &mut Tracer::new(false)));
    crate::measure(report, seed, held_out, seconds, fresh, |(s, scenarios), report, label| {
        let t = Instant::now();
        let out = sweep(&scenarios, s, &mut Tracer::new(false));
        let wall = t.elapsed().as_secs_f64();
        check_sweep(&out, report, label);
        let digest = crate::fnv1a(format!("{:?}", out.runs).as_bytes());
        crate::Rep { wall, ops: out.requests() as f64 / wall, digest }
    });
}

/// Traced run: rounds of a traced set-up, the sweep untraced and the sweep
/// traced, then the held-out seed's sweep.
pub fn run_traced(seed: u64, held_out: u64, report: &mut Report) {
    let held = |report: &mut Report| {
        let off = &mut Tracer::new(false);
        check_sweep(&sweep(&setup(held_out, off), held_out, off), report, "held-out seed");
    };
    crate::traced(report, "corpus", seed, |tracer, report| round(seed, tracer, report), held);
}

fn round(seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let setup_root = tracer.enter("setup");
    let scenarios = setup(seed, tracer);
    tracer.exit(setup_root);
    report.set("corpus.generate_s", tracer.total_s("corpus.generate"));

    let t = Instant::now();
    let untraced = sweep(&scenarios, seed, &mut Tracer::new(false));
    let untraced_wall = t.elapsed().as_secs_f64();
    check_sweep(&untraced, report, "untraced");
    let t = Instant::now();
    let root = tracer.enter("sweep");
    let traced = sweep(&scenarios, seed, tracer);
    tracer.exit(root);
    let traced_wall = t.elapsed().as_secs_f64();
    check_sweep(&traced, report, "traced");
    report.check(untraced.runs == traced.runs, || {
        "same-seed sweeps give different RunReports".into()
    });

    let requests = untraced.requests();
    report.set("sim_s_per_wall_s", untraced.sim_s() / untraced_wall);
    report.set("requests_per_s", requests as f64 / untraced_wall);
    report.set("cells_per_s", untraced.cells as f64 / untraced_wall);
    report.set("localization_rate", untraced.localized as f64 / untraced.cells as f64);
    let sim_self = tracer.self_s("sim.run_with");
    report.set("sim.self_s", sim_self);
    let steps: Vec<f64> = tracer.durations_ns("sim.run_with").iter().map(|ns| ns / 1e6).collect();
    report.set_dist("sim.step_ms", dist(steps));
    report.set("sim.requests", requests as f64);
    report.set("sim.ns_per_request", sim_self * 1e9 / requests.max(1) as f64);
    report.set("trace.drain_s", tracer.self_s("trace.drain"));
    report.set("trace.traces", traced.traces as f64);
    report
        .set_dist("corpus.blame_fold_ns_per_trace", dist(tracer.durations_ns("corpus.blame_fold")));
    report.set("corpus.localize_s", tracer.total_s("corpus.localize"));
    report.set("bench.tracing_overhead", traced_wall / untraced_wall - 1.0);
}
