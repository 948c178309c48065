//! The metric catalogue and the one-line JSON result.

use crate::tracer::Dist;

/// Which metrics a run prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, measured with tracing off.
    EndToEnd,
    /// Per-layer metrics from the traced run.
    PerLayer,
}

/// `(name, unit, better)` of every end-to-end metric. Every workload
/// reports all of them, and none is ever 0.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    // Median host seconds of one execution of the workload.
    ("wall_s", "s", "lower"),
    // Median host seconds of one set-up: build the app and problem, parse
    // the DSL, verify, construct the simulation.
    ("setup_s", "s", "lower"),
    // Peak resident memory of the workload's process.
    ("peak_rss_mb", "MB", "lower"),
    // The workload's own unit of work per host second: simulated requests
    // (fleet, checks, corpus) or fitness evaluations (schedule).
    ("ops_per_s", "1/s", "higher"),
];

/// `(name, unit, better)` of every per-layer metric. A metric of a layer
/// the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    // Workload-level rates of the untraced executions inside the traced run.
    ("sim_s_per_wall_s", "s/s", "higher"),
    ("requests_per_s", "1/s", "higher"),
    ("check_evals_per_s", "1/s", "higher"),
    ("cells_per_s", "1/s", "higher"),
    ("evals_per_s", "1/s", "higher"),
    ("localization_rate", "ratio", "higher"),
    ("schedule_fitness", "fitness", "higher"),
    // microsim.sim
    ("sim.self_s", "s", "lower"),
    ("sim.step_ms.p50", "ms", "lower"),
    ("sim.step_ms.tail", "ms", "lower"),
    ("sim.step_ms.n", "count", "higher"),
    ("sim.ns_per_request", "ns", "lower"),
    ("sim.requests", "count", "higher"),
    // microsim.trace
    ("trace.drain_s", "s", "lower"),
    ("trace.traces", "count", "higher"),
    // microsim.health
    ("health.fold_ns_per_trace.p50", "ns", "lower"),
    ("health.fold_ns_per_trace.tail", "ns", "lower"),
    ("health.fold_ns_per_trace.n", "count", "higher"),
    ("health.build_s", "s", "lower"),
    // microsim.monitor
    ("store.query_ns.p50", "ns", "lower"),
    ("store.query_ns.tail", "ns", "lower"),
    ("store.query_ns.n", "count", "higher"),
    ("store.queries", "count", "lower"),
    // bifrost.checks
    ("checks.eval_ns.p50", "ns", "lower"),
    ("checks.eval_ns.tail", "ns", "lower"),
    ("checks.eval_ns.n", "count", "higher"),
    ("checks.evals", "count", "lower"),
    // bifrost.journal
    ("journal.record_s", "s", "lower"),
    ("journal.encode_s", "s", "lower"),
    ("journal.bytes", "B", "lower"),
    ("journal.events", "count", "lower"),
    // bifrost.engine
    ("engine.overhead_s", "s", "lower"),
    ("engine.ticks", "count", "lower"),
    ("replay.coverage", "ratio", "higher"),
    // bifrost.dsl, bifrost.verify
    ("dsl.parse_s", "s", "lower"),
    ("verify.s", "s", "lower"),
    // microsim.corpus
    ("corpus.generate_s", "s", "lower"),
    ("corpus.blame_fold_ns_per_trace.p50", "ns", "lower"),
    ("corpus.blame_fold_ns_per_trace.tail", "ns", "lower"),
    ("corpus.blame_fold_ns_per_trace.n", "count", "higher"),
    ("corpus.localize_s", "s", "lower"),
    // fenrir
    ("fenrir.problem_s", "s", "lower"),
    ("fenrir.eval_full_ns.p50", "ns", "lower"),
    ("fenrir.eval_full_ns.tail", "ns", "lower"),
    ("fenrir.eval_full_ns.n", "count", "higher"),
    ("fenrir.eval_move_ns.p50", "ns", "lower"),
    ("fenrir.eval_move_ns.tail", "ns", "lower"),
    ("fenrir.eval_move_ns.n", "count", "higher"),
    ("fenrir.search_s", "s", "lower"),
    // The benchmark itself: traced replay wall / untraced replay wall - 1.
    ("bench.tracing_overhead", "ratio", "lower"),
];

/// Operation tallies, metrics and the failures behind `correct`.
#[derive(Debug)]
pub struct Report {
    mode: Mode,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report for `mode`.
    pub fn new(mode: Mode) -> Self {
        Report { mode, attempted: 0, failed: 0, metrics: Vec::new() }
    }

    /// Counts one operation whose output was checked; a wrong output
    /// counts as failed and is described on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Sets metric `name` (which must be in the catalogue of this mode).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.catalogue().iter().any(|(n, _, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Sets `<base>.p50`, `<base>.tail` and `<base>.n` from `d`.
    pub fn set_dist(&mut self, base: &'static str, d: Dist) {
        let name = |suffix: &str| {
            let full = format!("{base}.{suffix}");
            self.catalogue()
                .iter()
                .map(|(n, _, _)| *n)
                .find(|n| *n == full)
                .unwrap_or_else(|| panic!("metric {full} is not in the catalogue"))
        };
        let (p50, tail, n) = (name("p50"), name("tail"), name("n"));
        eprintln!("perfbench: {tail} is the p{} of {} samples", d.tail_pct, d.n);
        self.set(p50, d.p50);
        self.set(tail, d.tail);
        self.set(n, d.n as f64);
    }

    /// Folds per-round reports into this one: checked operations add up,
    /// and each metric is the median of its per-round values.
    pub fn absorb_medians(&mut self, rounds: Vec<Report>) {
        for r in &rounds {
            self.attempted += r.attempted;
            self.failed += r.failed;
        }
        for (name, _, _) in self.catalogue() {
            let values: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            if !values.is_empty() {
                self.set(name, crate::median(values));
            }
        }
    }

    fn catalogue(&self) -> &'static [(&'static str, &'static str, &'static str)] {
        match self.mode {
            Mode::EndToEnd => &END_TO_END,
            Mode::PerLayer => &PER_LAYER,
        }
    }

    /// `true` when outputs were checked, every one was right, and every
    /// end-to-end metric was measured as a positive finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.missing().is_empty()
    }

    /// End-to-end metrics not measured, or measured as 0 or non-finite.
    fn missing(&self) -> Vec<&'static str> {
        if self.mode == Mode::PerLayer {
            return Vec::new();
        }
        END_TO_END
            .iter()
            .map(|(n, _, _)| *n)
            .filter(|n| !self.metrics.iter().any(|(m, v)| m == n && v.is_finite() && *v > 0.0))
            .collect()
    }

    /// The result line: every catalogue metric of this mode, in catalogue
    /// order (per-layer metrics the workload has no layer for read 0).
    pub fn to_json(&self) -> String {
        for name in self.missing() {
            eprintln!("perfbench: end-to-end metric {name} was not measured");
        }
        let metrics: Vec<String> = self
            .catalogue()
            .iter()
            .map(|(name, unit, _)| {
                let v = self.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` when `name` is a valid metric name: starts with a letter or a
    /// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn names() -> impl Iterator<Item = &'static str> {
        END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _, _)| *n)
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = names().collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name} repeats");
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
    }

    #[test]
    fn units_and_directions_are_well_formed() {
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit} of {name}"
            );
            assert!(matches!(*better, "lower" | "higher"), "bad direction of {name}");
        }
    }

    /// BENCHMARK.json must list exactly this catalogue, in this order.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let listed = |section: &str, catalogue: &[(&str, &str, &str)]| {
            let body = json.split(&format!("\"{section}\"")).nth(1).expect("section exists");
            let body = &body[..body.find(']').expect("section closes")];
            let found: Vec<(String, String, String)> = body
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry.split(&format!("\"{key}\": \"")).nth(1).expect(key);
                        rest[..rest.find('"').expect("string closes")].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let expected: Vec<(String, String, String)> = catalogue
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(found, expected, "{section} differs from the catalogue");
        };
        listed("end_to_end", &END_TO_END);
        listed("per_layer", &PER_LAYER);
    }

    #[test]
    fn json_line_has_every_metric_and_fails_without_end_to_end_values() {
        let mut r = Report::new(Mode::EndToEnd);
        r.check(true, String::new);
        r.set("wall_s", 1.5);
        assert!(!r.correct(), "unmeasured end-to-end metrics make the run incorrect");
        for (name, _, _) in END_TO_END {
            r.set(name, 2.0);
        }
        assert!(r.correct());
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 2.0, \"unit\": \"s\"}"), "{line}");
        r.check(false, || "wrong verdict".into());
        assert!(!r.correct());
    }
}
