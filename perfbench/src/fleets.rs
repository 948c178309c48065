//! The two Bifrost workloads, `fleet` and `checks`: their inputs, their
//! pinned verdicts, and the traced replay of the engine's tick loop.

use crate::report::Report;
use crate::tracer::{dist, Tracer};
use bifrost::checks::{self, CheckContext, CheckScheduler, SequentialState};
use bifrost::dsl;
use bifrost::engine::{Engine, EngineConfig, ExecutionReport, StrategyStatus};
use bifrost::journal::Journal;
use bifrost::model::{CheckScope, PhaseKind, Strategy};
use bifrost::templates::{canary_then_rollout, HealthCriteria};
use bifrost::verify::{is_launchable, verify};
use cex_core::metrics::MetricKind;
use cex_core::simtime::{SimDuration, SimTime};
use cex_core::users::Population;
use microsim::app::{Application, EndpointDef, VersionSpec};
use microsim::health::{HealthAccumulator, HealthReport};
use microsim::latency::LatencyModel;
use microsim::monitor::ScopeId;
use microsim::sim::{RunReport, APP_SCOPE};
use microsim::trace::Trace;
use microsim::workload::{EntryPoint, RateProfile, Workload};
use microsim::Simulation;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Teams in the `fleet` workload, as in `examples/fleet`.
const FLEET_TEAMS: usize = 24;
/// The one team whose candidate build is slow and flaky.
const FLAKY_TEAM: usize = 7;
/// Strategies in the `checks` workload: with eight checks each, every
/// 30 s look puts 2,048 checks due in one tick, past the engine's
/// check fan-out threshold.
const CHECK_STRATEGIES: usize = 256;
/// Every `DEGRADED_EVERY`-th `checks` candidate is degraded (16 of 256).
const DEGRADED_EVERY: usize = 16;

/// Which Bifrost workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 24 teams, one canary-then-rollout each, at 288 rps in total.
    Fleet,
    /// 256 strategies with 8 checks each at 0.5 rps per service.
    Checks,
}

/// One set-up: the inputs of one engine execution.
pub struct Case {
    sim: Simulation,
    strategies: Vec<Strategy>,
    workload: Workload,
    max_duration: SimDuration,
    expected_rollbacks: BTreeSet<String>,
}

/// Builds the inputs of `kind` for `seed`: the app, the strategies (for
/// `checks`, parsed from DSL source), a verification pass and the
/// simulation. Spans name the DSL and verify layers.
pub fn setup(kind: Kind, seed: u64, tracer: &mut Tracer) -> Case {
    match kind {
        Kind::Fleet => fleet(seed, tracer),
        Kind::Checks => checks_case(seed, tracer),
    }
}

fn fleet(seed: u64, tracer: &mut Tracer) -> Case {
    let mut b = Application::builder();
    for i in 0..FLEET_TEAMS {
        let service = format!("team{i:02}-svc");
        b.version(
            VersionSpec::new(service.clone(), "1.0.0")
                .capacity(5_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::web(10.0))),
        );
        let endpoint = if i == FLAKY_TEAM {
            EndpointDef::new("api", LatencyModel::web(40.0)).error_rate(0.2)
        } else {
            EndpointDef::new("api", LatencyModel::web(9.0))
        };
        b.version(VersionSpec::new(service, "1.1.0").capacity(5_000.0).endpoint(endpoint));
    }
    let app = b.build().expect("fleet app is valid");
    let strategies: Vec<Strategy> = (0..FLEET_TEAMS)
        .map(|i| {
            canary_then_rollout(
                format!("team{i:02}-canary"),
                format!("team{i:02}-svc"),
                "1.0.0",
                "1.1.0",
                HealthCriteria { min_samples: 10, ..Default::default() },
            )
        })
        .collect();
    let issues = tracer.time("verify", || verify(&app, &strategies));
    assert!(is_launchable(&issues), "fleet verifies: {issues:?}");
    let entries = (0..FLEET_TEAMS)
        .map(|i| EntryPoint {
            service: app.service_id(&format!("team{i:02}-svc")).expect("service exists"),
            endpoint: "api".into(),
            weight: 1.0,
        })
        .collect();
    let workload = Workload {
        population: Population::single("all", 200_000),
        rate_rps: (FLEET_TEAMS * 12) as f64,
        entries,
        profile: RateProfile::Constant,
    };
    Case {
        sim: Simulation::new(app, seed),
        strategies,
        workload,
        max_duration: SimDuration::from_hours(2),
        expected_rollbacks: [format!("team{FLAKY_TEAM:02}-canary")].into(),
    }
}

fn degraded(i: usize) -> bool {
    i % DEGRADED_EVERY == DEGRADED_EVERY / 2
}

/// DSL source of the `checks` fleet. A healthy candidate is twice as fast
/// as its baseline and never fails; a degraded one is twice as slow and
/// fails 30% of its requests. Every threshold sits far from both, so no
/// sample order can flip a verdict.
fn checks_source() -> String {
    let mut src = String::new();
    for i in 0..CHECK_STRATEGIES {
        src.push_str(&format!(
            r#"strategy "exp{i:03}" {{
  service "svc{i:03}" baseline "1.0.0" candidate "1.1.0"
  phase "canary" canary 50% for 15m {{
    check error_rate < 0.1 over 3m every 30s min_samples 10
    check response_time < 30 over 3m every 30s min_samples 10
    check response_time vs_baseline < 1.0 over 3m every 30s min_samples 10
    check error_rate app < 0.1 over 1m every 30s min_samples 10
    check response_time app < 40 over 1m every 30s min_samples 10
    check error_rate trace < 0.1 over 3m every 30s min_samples 10
    check response_time trace < 30 over 3m every 30s min_samples 10
    check response_time sequential vs baseline < confidence 0.95 every 30s min_samples 10
    on success complete
    on failure rollback
    on inconclusive retry
  }}
}}
"#
        ));
    }
    src
}

fn checks_case(seed: u64, tracer: &mut Tracer) -> Case {
    let source = checks_source();
    let mut b = Application::builder();
    for i in 0..CHECK_STRATEGIES {
        let service = format!("svc{i:03}");
        b.version(
            VersionSpec::new(service.clone(), "1.0.0")
                .capacity(5_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::web(20.0))),
        );
        let endpoint = if degraded(i) {
            EndpointDef::new("api", LatencyModel::web(40.0)).error_rate(0.3)
        } else {
            EndpointDef::new("api", LatencyModel::web(10.0))
        };
        b.version(VersionSpec::new(service, "1.1.0").capacity(5_000.0).endpoint(endpoint));
    }
    let app = b.build().expect("checks app is valid");
    let strategies =
        tracer.time("dsl.parse", || dsl::parse_all(&source)).expect("checks DSL parses");
    let issues = tracer.time("verify", || verify(&app, &strategies));
    assert!(is_launchable(&issues), "checks fleet verifies: {issues:?}");
    let entries = (0..CHECK_STRATEGIES)
        .map(|i| EntryPoint {
            service: app.service_id(&format!("svc{i:03}")).expect("service exists"),
            endpoint: "api".into(),
            weight: 1.0,
        })
        .collect();
    let workload = Workload {
        population: Population::single("all", 200_000),
        rate_rps: CHECK_STRATEGIES as f64 * 0.5,
        entries,
        profile: RateProfile::Constant,
    };
    let mut sim = Simulation::new(app, seed);
    // Trace-scoped checks and the health fold read every request.
    sim.set_trace_sampling(1.0);
    Case {
        sim,
        strategies,
        workload,
        max_duration: SimDuration::from_hours(1),
        expected_rollbacks: (0..CHECK_STRATEGIES)
            .filter(|&i| degraded(i))
            .map(|i| format!("exp{i:03}"))
            .collect(),
    }
}

/// What one engine execution produced.
pub struct Execution {
    /// Host time of the execution call alone.
    pub wall: Duration,
    /// The engine's report.
    pub report: ExecutionReport,
    /// The journal, for `execute_journaled` executions.
    pub journal: Option<Journal>,
    /// Simulated requests, read from the app scope's response-time series
    /// (one sample per request).
    pub requests: u64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    expected_rollbacks: BTreeSet<String>,
}

/// Executes `case` through `Engine::execute_journaled` (or, with
/// `journaled == false`, `Engine::execute`) under the default engine
/// configuration.
pub fn execute(case: Case, journaled: bool) -> Execution {
    let Case { mut sim, strategies, workload, max_duration, expected_rollbacks } = case;
    let engine = Engine::new(EngineConfig::default());
    let started = Instant::now();
    let (report, journal) = if journaled {
        let (r, j) = engine
            .execute_journaled(&mut sim, &strategies, &workload, max_duration)
            .expect("fleet executes");
        (r, Some(j))
    } else {
        (
            engine.execute(&mut sim, &strategies, &workload, max_duration).expect("fleet executes"),
            None,
        )
    };
    let wall = started.elapsed();
    let requests = sim.store().count(APP_SCOPE, MetricKind::ResponseTime) as u64;
    let sim_s = report.sim_duration.as_millis() as f64 / 1e3;
    Execution { wall, report, journal, requests, sim_s, expected_rollbacks }
}

impl Execution {
    /// Checks every strategy's verdict against the pinned expectation:
    /// the expected set rolls back, every other strategy completes.
    pub fn check_verdicts(&self, report: &mut Report, label: &str) {
        for (name, status) in &self.report.statuses {
            let want = if self.expected_rollbacks.contains(name) {
                StrategyStatus::RolledBack
            } else {
                StrategyStatus::Completed
            };
            report.check(*status == want, || {
                format!("{label}: {name} ended {status:?}, expected {want:?}")
            });
        }
    }

    /// Digest of the deterministic part of the execution: verdicts,
    /// transitions, tick and evaluation counts, requests and the journal
    /// bytes.
    pub fn digest(&self) -> u64 {
        let r = &self.report;
        let mut bytes = format!(
            "{:?}|{:?}|{}|{}|{}|",
            r.statuses, r.transitions, r.ticks, r.check_evaluations, self.requests
        )
        .into_bytes();
        if let Some(j) = &self.journal {
            bytes.extend_from_slice(j.to_jsonl().as_bytes());
        }
        crate::fnv1a(&bytes)
    }
}

/// The scope a check reads and the window it reads it over, as the engine
/// evaluates it at `now` (sequential checks read since phase start).
fn triples(
    scope: CheckScope,
    window: SimDuration,
    ctx: &CheckContext,
    phase_start: SimTime,
    now: SimTime,
) -> Vec<(ScopeId, SimDuration)> {
    match scope {
        CheckScope::Candidate => vec![(ctx.candidate_id(), window)],
        CheckScope::Baseline => vec![(ctx.baseline_id(), window)],
        CheckScope::App => vec![(ctx.app_id(), window)],
        CheckScope::Trace => vec![(ctx.trace_candidate_id(), window)],
        CheckScope::CandidateVsBaseline | CheckScope::SignificantVsBaseline => {
            vec![(ctx.candidate_id(), window), (ctx.baseline_id(), window)]
        }
        CheckScope::SequentialVsBaseline => {
            let since = now.saturating_since(phase_start);
            vec![(ctx.candidate_id(), since), (ctx.baseline_id(), since)]
        }
    }
}

/// The candidate share a strategy's first phase routes.
fn first_phase_share(strategy: &Strategy) -> f64 {
    match strategy.phases[0].kind {
        PhaseKind::Canary { traffic_percent } => traffic_percent / 100.0,
        PhaseKind::AbTest { split_percent } => split_percent / 100.0,
        PhaseKind::GradualRollout { from_percent, .. } => from_percent / 100.0,
        PhaseKind::DarkLaunch => 0.0,
    }
}

/// The store retention the engine's `Retention::Auto` applies: four times
/// the longest check window (a sequential check's window is its phase),
/// and never less than five minutes.
fn auto_retention(strategies: &[Strategy]) -> SimDuration {
    let longest = strategies
        .iter()
        .flat_map(|s| s.phases.iter())
        .flat_map(|p| {
            p.checks.iter().map(move |c| {
                if c.scope == CheckScope::SequentialVsBaseline {
                    p.duration
                } else {
                    c.window
                }
            })
        })
        .max()
        .unwrap_or(SimDuration::ZERO);
    SimDuration::from_millis(longest.as_millis() * 4).max(SimDuration::from_mins(5))
}

/// What the replay produced.
pub struct Replay {
    /// Host time of the whole replay.
    pub wall: Duration,
    /// One report per tick.
    pub runs: Vec<RunReport>,
    /// Traces drained.
    pub traces: u64,
    /// Check evaluations.
    pub evals: u64,
    /// Direct window queries.
    pub queries: u64,
}

/// Replays the engine's tick loop from outside for `ticks` ticks: each
/// strategy's first-phase split is set once, then every tick runs the
/// simulation, drains traces, folds each into the health accumulator,
/// evaluates the due checks, and queries the store directly for the same
/// (scope, metric, window) triples. Phases never change, so this is the
/// engine's work without its transitions, trace distillation and journal.
pub fn replay(case: Case, ticks: u64, tracer: &mut Tracer) -> Replay {
    let started = Instant::now();
    let Case { mut sim, strategies, workload, .. } = case;
    let root = tracer.enter("replay");
    sim.store().set_retention(Some(auto_retention(&strategies)));
    let app = sim.app().clone();
    let mut contexts = Vec::with_capacity(strategies.len());
    for s in &strategies {
        let service = app.service_id(&s.service).expect("strategy service exists");
        let baseline = app.version_id(&s.service, &s.baseline).expect("baseline deployed");
        let candidate = app.version_id(&s.service, &s.candidate).expect("candidate deployed");
        let share = first_phase_share(s);
        sim.router_mut()
            .set_split(&app, service, vec![(baseline, 1.0 - share), (candidate, share)])
            .expect("first-phase split is valid");
        contexts.push(CheckContext::new(
            sim.store(),
            app.version_label(candidate),
            app.version_label(baseline),
        ));
    }
    let mut schedulers: Vec<CheckScheduler> =
        strategies.iter().map(|s| CheckScheduler::new(&s.phases[0].checks, sim.now())).collect();
    let mut sequential: Vec<Vec<SequentialState>> =
        strategies.iter().map(|s| vec![SequentialState::new(); s.phases[0].checks.len()]).collect();
    let phase_start = sim.now();
    let step = EngineConfig::default().tick;
    let mut health = HealthAccumulator::new();
    let mut drained: Vec<Trace> = Vec::new();
    let mut due: Vec<usize> = Vec::new();
    let mut out =
        Replay { wall: Duration::ZERO, runs: Vec::new(), traces: 0, evals: 0, queries: 0 };
    for _ in 0..ticks {
        let tick = tracer.enter("tick");
        let run = tracer.time("sim.run_with", || sim.run_with(step, &workload));
        out.runs.push(run);
        let now = sim.now();
        tracer.time("trace.drain", || sim.drain_traces_into(&mut drained));
        out.traces += drained.len() as u64;
        for trace in &drained {
            tracer.time("health.observe_trace", || health.observe_trace(trace));
        }
        for (i, s) in strategies.iter().enumerate() {
            let checks = &s.phases[0].checks;
            tracer.time("checks.due", || schedulers[i].due(checks, now, &mut due));
            for &c in &due {
                let check = &checks[c];
                let ctx = &contexts[i];
                let store = sim.store();
                if check.scope == CheckScope::SequentialVsBaseline {
                    let state = &sequential[i][c];
                    let (_, update) = tracer.time("checks.evaluate", || {
                        checks::evaluate_sequential(check, ctx, store, phase_start, now, state)
                    });
                    if let Some(u) = update {
                        sequential[i][c].fold(u);
                    }
                } else {
                    tracer.time("checks.evaluate", || {
                        checks::evaluate_observed(check, ctx, store, now)
                    });
                }
                out.evals += 1;
                for (scope, window) in triples(check.scope, check.window, ctx, phase_start, now) {
                    tracer.time("store.window_summary", || {
                        store.window_summary_id(scope, check.metric, now, window)
                    });
                    out.queries += 1;
                }
            }
        }
        tracer.exit(tick);
    }
    let book = sim.span_book();
    for s in &strategies {
        let baseline = app.version_id(&s.service, &s.baseline).expect("baseline deployed");
        let candidate = app.version_id(&s.service, &s.candidate).expect("candidate deployed");
        tracer.time("health.build", || HealthReport::build(&health, &book, baseline, candidate));
    }
    tracer.exit(root);
    out.wall = started.elapsed();
    out
}

/// Untraced run: `Engine::execute_journaled` on fresh set-ups.
pub fn run_untraced(kind: Kind, seed: u64, held_out: u64, seconds: f64, report: &mut Report) {
    let fresh = |s| setup(kind, s, &mut Tracer::new(false));
    crate::measure(report, seed, held_out, seconds, fresh, |case, report, label| {
        let exec = execute(case, true);
        exec.check_verdicts(report, label);
        let wall = exec.wall.as_secs_f64();
        crate::Rep { wall, ops: exec.requests as f64 / wall, digest: exec.digest() }
    });
}

/// Traced run: rounds of `Engine::execute` (on a traced set-up),
/// `Engine::execute_journaled`, the replay untraced and the replay traced,
/// then the held-out seed's verdicts.
pub fn run_traced(kind: Kind, seed: u64, held_out: u64, report: &mut Report) {
    let held = |report: &mut Report| {
        let exec = execute(setup(kind, held_out, &mut Tracer::new(false)), false);
        exec.check_verdicts(report, "held-out seed");
    };
    let round = |tracer: &mut Tracer, report: &mut Report| round(kind, seed, tracer, report);
    crate::traced(report, kind_name(kind), seed, round, held);
}

fn round(kind: Kind, seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let setup_root = tracer.enter("setup");
    let case = setup(kind, seed, tracer);
    tracer.exit(setup_root);
    report.set("dsl.parse_s", tracer.total_s("dsl.parse"));
    report.set("verify.s", tracer.total_s("verify"));
    let fresh = || setup(kind, seed, &mut Tracer::new(false));
    let plain = execute(case, false);
    let journaled = execute(fresh(), true);
    plain.check_verdicts(report, "execute");
    journaled.check_verdicts(report, "execute_journaled");
    let journal = journaled.journal.as_ref().expect("journaled execution has a journal");
    let t = Instant::now();
    let bytes = journal.to_jsonl().len();
    report.set("journal.encode_s", t.elapsed().as_secs_f64());
    report.set("journal.bytes", bytes as f64);
    report.set("journal.events", journal.len() as f64);
    report.set("journal.record_s", journaled.wall.as_secs_f64() - plain.wall.as_secs_f64());

    let ticks = plain.report.ticks;
    let untraced = replay(fresh(), ticks, &mut Tracer::new(false));
    let traced = replay(fresh(), ticks, tracer);
    report.check(untraced.runs == traced.runs, || {
        "same-seed replays give different RunReports".into()
    });
    let requests: u64 = traced.runs.iter().map(|r| r.requests).sum();
    report.check(requests == plain.requests, || {
        format!("replay ran {requests} requests, the engine {}", plain.requests)
    });

    let wall = journaled.wall.as_secs_f64();
    report.set("sim_s_per_wall_s", journaled.sim_s / wall);
    report.set("requests_per_s", journaled.requests as f64 / wall);
    report.set("check_evals_per_s", journaled.report.check_evaluations as f64 / wall);
    let sim_self = tracer.self_s("sim.run_with");
    report.set("sim.self_s", sim_self);
    let steps: Vec<f64> = tracer.durations_ns("sim.run_with").iter().map(|ns| ns / 1e6).collect();
    report.set_dist("sim.step_ms", dist(steps));
    report.set("sim.requests", requests as f64);
    report.set("sim.ns_per_request", sim_self * 1e9 / requests.max(1) as f64);
    report.set("trace.drain_s", tracer.self_s("trace.drain"));
    report.set("trace.traces", traced.traces as f64);
    report.set_dist("health.fold_ns_per_trace", dist(tracer.durations_ns("health.observe_trace")));
    report.set("health.build_s", tracer.total_s("health.build"));
    report.set_dist("store.query_ns", dist(tracer.durations_ns("store.window_summary")));
    report.set("store.queries", traced.queries as f64);
    report.set_dist("checks.eval_ns", dist(tracer.durations_ns("checks.evaluate")));
    report.set("checks.evals", traced.evals as f64);
    let exec_s = plain.wall.as_secs_f64();
    report.set("engine.overhead_s", exec_s - sim_self);
    report.set("engine.ticks", ticks as f64);
    report.set("replay.coverage", untraced.wall.as_secs_f64() / exec_s);
    report.set(
        "bench.tracing_overhead",
        traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0,
    );
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Fleet => "fleet",
        Kind::Checks => "checks",
    }
}
