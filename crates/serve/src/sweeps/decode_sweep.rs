//! Streaming-decode session sweep: goodput, tail latency, inter-token
//! latency and state-rebuild rate across session count × turn length ×
//! re-cluster threshold.
//!
//! Each grid point plays a seeded multi-turn session trace
//! ([`cta_workloads::session_trace`]: Poisson session arrivals,
//! geometric turn counts, exponential think time, Pareto decode
//! lengths) through a sticky-routed fleet
//! ([`crate::SessionPolicy::sticky`]). Decode turns are priced
//! incrementally (`cta_sim::schedule_decode`); the re-cluster threshold
//! sets how often accumulated drift forces a level-2 rebuild
//! (`cta_sim::reclusters_for`), so tighter thresholds trade inter-token
//! latency for compression freshness. `--mtbf-factor` (span-relative,
//! `inf` = healthy) schedules crashes, exercising the session-eviction
//! path: moved sessions pay a state re-prefill, lost ones shed as
//! [`crate::ShedReason::SessionLost`].
//!
//! The flags and their defaults are declared once, in the `FLAGS` table
//! below; the usage text printed on a malformed invocation is generated
//! from it.
//!
//! **Outputs.** The stdout table and `results/decode_sweep.{csv,json}`
//! are deterministic for a fixed `--seed` at any `--jobs` value. The
//! JSON's `engine` key is always `"event"`, the one fleet driver.
//! Wall-clock timings go to `results/BENCH_decode.json`,
//! merged per (git SHA, date) so the file keeps a trajectory across
//! PRs. With `--trace <path>` the final point is re-run traced —
//! session re-prefills appear as compression-class spans and lost
//! sessions as instants on the runtime lane.

use std::process::ExitCode;
use std::sync::Mutex;

use cta_bench::{BenchSidecar, Flag, Flags, JsonValue, SCHEMA_VERSION};
use cta_sim::SystemConfig;
use cta_workloads::{case_task, mini_case, SessionSpec};

use crate::harness::{export_trace, Harness, PointOutput, SweepSpec};
use crate::{
    session_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, BatchPolicy,
    FaultPlan, FleetConfig, LoadSpec, RoutingPolicy, ServeRequest, SessionPolicy,
};

/// The sweep's own flags and defaults; the harness appends the shared
/// `--jobs`, `--kernels` and `--pool-trace`.
const FLAGS: &[Flag] = &[
    Flag::value("--sessions", "16,48"),
    Flag::value("--turns", "4"),
    Flag::value("--thresholds", "0.25,1.0"),
    Flag::value("--arrival-rate", "2000"),
    Flag::value("--think-ms", "1"),
    Flag::value("--drift", "0.02"),
    Flag::value("--replicas", "3"),
    Flag::value("--policy", "sticky"),
    Flag::value("--mtbf-factor", "inf"),
    Flag::value("--mttr-factor", "0.02"),
    Flag::value("--seed", "7"),
    Flag::optional("--trace", "<path.json>"),
];

/// CSV/stdout column layout; the trailing `schema_version` column repeats
/// [`cta_bench::SCHEMA_VERSION`] on every row.
const SWEEP_COLUMNS: &[&str] = &[
    "sessions",
    "mean_turns",
    "threshold",
    "turns",
    "completed",
    "shed",
    "goodput_rps",
    "p99_ms",
    "itl_ms",
    "re_prefill_rate",
    "sessions_lost",
    "schema_version",
];

#[derive(Debug)]
struct Args {
    sessions: Vec<usize>,
    turns: Vec<f64>,
    thresholds: Vec<f64>,
    arrival_rate: f64,
    think_ms: f64,
    drift: f64,
    replicas: usize,
    policy: SessionPolicy,
    mtbf_factor: f64,
    mttr_factor: f64,
    seed: u64,
    trace: Option<String>,
}

impl Args {
    fn from_flags(f: &Flags) -> Result<Self, String> {
        let args = Args {
            sessions: f.list("--sessions", "integers")?,
            turns: f.list("--turns", "numbers")?,
            thresholds: f.list("--thresholds", "numbers")?,
            arrival_rate: f.num("--arrival-rate", "a number")?,
            think_ms: f.num("--think-ms", "a number")?,
            drift: f.num("--drift", "a number")?,
            replicas: f.num("--replicas", "an integer")?,
            policy: f.choice("--policy", "policy", "sticky|stateless", |s| match s {
                "sticky" => Some(SessionPolicy::sticky()),
                "stateless" => Some(SessionPolicy::stateless()),
                _ => None,
            })?,
            mtbf_factor: f.num("--mtbf-factor", "a number")?,
            mttr_factor: f.num("--mttr-factor", "a number")?,
            seed: f.num("--seed", "an integer")?,
            trace: f.opt_text("--trace"),
        };
        if args.sessions.is_empty() || args.sessions.contains(&0) {
            return Err("--sessions must be a non-empty list of positive integers".into());
        }
        if args.turns.is_empty() || args.turns.iter().any(|&t| !(t >= 1.0 && t.is_finite())) {
            return Err("--turns must be a non-empty list of numbers >= 1".into());
        }
        // `inf` is a legal threshold (= re-clustering disabled).
        if args.thresholds.is_empty() || args.thresholds.iter().any(|&t| t.is_nan() || t <= 0.0) {
            return Err("--thresholds must be a non-empty list of positive numbers (inf ok)".into());
        }
        if !(args.arrival_rate > 0.0 && args.arrival_rate.is_finite()) {
            return Err("--arrival-rate must be positive and finite".into());
        }
        if !(args.think_ms > 0.0 && args.think_ms.is_finite()) {
            return Err("--think-ms must be positive and finite".into());
        }
        if !(args.drift >= 0.0 && args.drift.is_finite()) {
            return Err("--drift must be non-negative and finite".into());
        }
        if args.replicas == 0 {
            return Err("--replicas must be positive".into());
        }
        if args.mtbf_factor.is_nan() || args.mtbf_factor <= 0.0 {
            return Err("--mtbf-factor must be positive (inf ok)".into());
        }
        if !(args.mttr_factor > 0.0 && args.mttr_factor.is_finite()) {
            return Err("--mttr-factor must be positive and finite".into());
        }
        Ok(args)
    }
}

/// The binary entry point: parse `argv` (plus the shared harness flags)
/// and run the sweep; malformed flags print the usage text to stderr and
/// exit non-zero.
pub fn main(argv: impl Iterator<Item = String>) -> ExitCode {
    SweepSpec::new("decode_sweep").flags(FLAGS).columns(SWEEP_COLUMNS).main(
        argv,
        Args::from_flags,
        run,
    )
}

/// The session trace for one grid point.
fn point_requests(
    spec: &LoadSpec,
    args: &Args,
    sessions: usize,
    mean_turns: f64,
) -> impl Fn(f64) -> Vec<ServeRequest> + use<> {
    let spec = *spec;
    let turns = SessionSpec::new(sessions, args.arrival_rate, mean_turns, args.think_ms * 1e-3);
    let (drift, seed) = (args.drift, args.seed);
    move |threshold| session_requests(&spec, &turns, drift, threshold, seed)
}

fn point_config(args: &Args, requests: &[ServeRequest]) -> FleetConfig {
    let mut cfg = FleetConfig::builder(SystemConfig::paper())
        .replicas(args.replicas)
        .routing(RoutingPolicy::LeastOutstandingWork)
        .admission(AdmissionPolicy::bounded(64))
        .batch(BatchPolicy::up_to(4))
        .sessions(args.policy)
        .build()
        .expect("the decode sweep fleet is always valid");
    if args.mtbf_factor.is_finite() {
        let span = requests.last().map(|r| r.arrival_s).unwrap_or(0.0).max(1e-6);
        cfg.faults = FaultPlan::seeded(
            args.replicas,
            2.0 * span,
            args.mtbf_factor * span,
            args.mttr_factor * span,
            args.seed,
        );
    }
    cfg
}

fn run(h: &Harness<Args>) {
    let args = h.args();
    let case = mini_case();
    let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);

    // Wall-clock per point, out-of-band so the pinned CSV/JSON stay
    // deterministic. (grid index, turns simulated, wall_s).
    let timings: Mutex<Vec<(usize, usize, f64)>> = Mutex::new(Vec::new());

    let mut grid: Vec<(usize, usize, f64, f64)> = Vec::new();
    for &sessions in &args.sessions {
        for &mean_turns in &args.turns {
            for &threshold in &args.thresholds {
                grid.push((grid.len(), sessions, mean_turns, threshold));
            }
        }
    }

    h.run_grid(
        &format!(
            "Decode sweep — {} sessions over {} replicas, drift {}/token",
            if args.policy.sticky { "sticky" } else { "stateless" },
            args.replicas,
            args.drift
        ),
        &grid,
        |&(index, sessions, mean_turns, threshold)| {
            let mut out = PointOutput::new();
            let requests = point_requests(&spec, args, sessions, mean_turns)(threshold);
            let cfg = point_config(args, &requests);
            let start = std::time::Instant::now();
            let report = simulate_fleet(&cfg, &requests);
            let wall_s = start.elapsed().as_secs_f64();
            timings.lock().expect("timings").push((index, requests.len(), wall_s));
            let m = &report.metrics;
            assert_eq!(m.completed + m.shed, requests.len(), "turn accounting identity");
            let s = m.sessions.as_ref().expect("session fleets report session stats");
            let p99 = m.latency.as_ref().map_or(f64::NAN, |l| l.p99_s);
            out.row(vec![
                sessions.to_string(),
                format!("{mean_turns:.1}"),
                format!("{threshold}"),
                requests.len().to_string(),
                m.completed.to_string(),
                m.shed.to_string(),
                format!("{:.1}", m.goodput_rps),
                format!("{:.3}", p99 * 1e3),
                format!("{:.4}", s.mean_itl_s * 1e3),
                format!("{:.3}", s.re_prefill_rate),
                s.sessions_lost.to_string(),
                SCHEMA_VERSION.to_string(),
            ]);
            out.point(JsonValue::obj(vec![
                ("sessions", JsonValue::Int(sessions as i64)),
                ("mean_turns", JsonValue::Num(mean_turns)),
                (
                    "threshold",
                    if threshold.is_finite() { JsonValue::Num(threshold) } else { JsonValue::Null },
                ),
                ("turns", JsonValue::Int(requests.len() as i64)),
                ("completed", JsonValue::Int(m.completed as i64)),
                ("shed", JsonValue::Int(m.shed as i64)),
                ("goodput_rps", JsonValue::Num(m.goodput_rps)),
                ("p99_s", JsonValue::Num(p99)),
                ("mean_itl_s", JsonValue::Num(s.mean_itl_s)),
                ("p99_itl_s", JsonValue::Num(s.p99_itl_s)),
                ("re_prefills", JsonValue::Int(s.re_prefills as i64)),
                ("re_prefill_rate", JsonValue::Num(s.re_prefill_rate)),
                ("sessions_lost", JsonValue::Int(s.sessions_lost as i64)),
                ("turns_shed", JsonValue::Int(s.turns_shed as i64)),
                ("events", JsonValue::Int(report.events_processed as i64)),
            ]));
            out
        },
        |json| {
            json.set("experiment", JsonValue::Str("decode_sweep".into()))
                .set("case", JsonValue::Str(case.name()))
                .set("engine", JsonValue::Str("event".into()))
                .set(
                    "policy",
                    JsonValue::Str(if args.policy.sticky { "sticky" } else { "stateless" }.into()),
                )
                .set("arrival_rate", JsonValue::Num(args.arrival_rate))
                .set("think_ms", JsonValue::Num(args.think_ms))
                .set("drift_per_token", JsonValue::Num(args.drift))
                .set("replicas", JsonValue::Int(args.replicas as i64))
                .set(
                    "mtbf_factor",
                    if args.mtbf_factor.is_finite() {
                        JsonValue::Num(args.mtbf_factor)
                    } else {
                        JsonValue::Null
                    },
                )
                .set("mttr_factor", JsonValue::Num(args.mttr_factor))
                .set("seed", JsonValue::Int(args.seed as i64));
        },
    );

    // Wall-clock sidecar: explicitly nondeterministic, merged per
    // (git SHA, date) to keep a trajectory across PRs.
    let mut measured = timings.into_inner().expect("timings");
    measured.sort_unstable_by_key(|&(index, _, _)| index);
    let mut bench = BenchSidecar::new("BENCH_decode");
    bench
        .set("experiment", JsonValue::Str("decode_sweep".into()))
        .set("engine", JsonValue::Str("event".into()))
        .set("seed", JsonValue::Int(args.seed as i64))
        .set("jobs", JsonValue::Int(h.jobs().get() as i64))
        .set(
            "note",
            JsonValue::Str(
                "wall-clock timings; nondeterministic, use --jobs 1 for uncontended numbers".into(),
            ),
        )
        .set(
            "points",
            JsonValue::Arr(
                measured
                    .iter()
                    .map(|&(index, turns, wall_s)| {
                        let (_, sessions, mean_turns, threshold) = grid[index];
                        JsonValue::obj(vec![
                            ("sessions", JsonValue::Int(sessions as i64)),
                            ("mean_turns", JsonValue::Num(mean_turns)),
                            (
                                "threshold",
                                if threshold.is_finite() {
                                    JsonValue::Num(threshold)
                                } else {
                                    JsonValue::Null
                                },
                            ),
                            ("turns", JsonValue::Int(turns as i64)),
                            ("wall_s", JsonValue::Num(wall_s)),
                            ("turns_per_sec", JsonValue::Num(turns as f64 / wall_s.max(1e-12))),
                        ])
                    })
                    .collect(),
            ),
        );
    bench.save();

    // Telemetry pass: re-run the last grid point traced; session
    // re-prefill spans and session-lost instants land on the runtime
    // lane of the standard fleet trace.
    if let Some(path) = &args.trace {
        let &(_, sessions, mean_turns, threshold) = grid.last().expect("non-empty grid");
        let requests = point_requests(&spec, args, sessions, mean_turns)(threshold);
        let cfg = point_config(args, &requests);
        export_trace(
            path,
            &format!("Trace — {sessions} sessions, threshold {threshold} → {path}"),
            |sink| {
                let _ = simulate_fleet_traced(&cfg, &requests, sink);
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::from_flags(&Flags::parse(FLAGS, words.iter().map(|s| s.to_string()))?)
    }

    #[test]
    fn args_parse_accepts_defaults_and_rejects_malformed_flags() {
        let ok = parse(&[]).expect("defaults valid");
        assert_eq!(ok.sessions, vec![16, 48]);
        assert_eq!(ok.policy, SessionPolicy::sticky());
        assert!(!ok.mtbf_factor.is_finite(), "healthy by default");
        let ablate = parse(&["--policy", "stateless"]).expect("valid");
        assert_eq!(ablate.policy, SessionPolicy::stateless());
        let open = parse(&["--thresholds", "inf"]).expect("valid");
        assert!(!open.thresholds[0].is_finite());

        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--sessions", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--turns", "0.5"]).unwrap_err().contains(">= 1"));
        assert!(parse(&["--thresholds", "-1"]).unwrap_err().contains("positive"));
        assert!(parse(&["--arrival-rate", "nan"]).unwrap_err().contains("positive"));
        assert!(parse(&["--think-ms", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--drift", "-0.1"]).unwrap_err().contains("non-negative"));
        assert!(parse(&["--replicas", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--policy", "rr"]).unwrap_err().contains("unknown policy"));
    }

    #[test]
    fn csv_header_carries_schema_version() {
        assert_eq!(SWEEP_COLUMNS.last(), Some(&"schema_version"));
        assert_eq!(SCHEMA_VERSION, 2, "bump this pin alongside the layout");
    }

    #[test]
    fn point_trace_is_deterministic_and_threshold_sensitive() {
        let args = parse(&[]).expect("defaults");
        let case = mini_case();
        let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);
        let mk = point_requests(&spec, &args, 8, 3.0);
        let a = mk(0.25);
        assert_eq!(a, mk(0.25));
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        // A tighter threshold yields at least as many re-clusters per turn.
        let loose = mk(1.0);
        let tight = mk(0.05);
        let count = |rs: &[ServeRequest]| {
            rs.iter().map(|r| r.session.expect("tagged").reclusters as u64).sum::<u64>()
        };
        assert!(count(&tight) > count(&loose));
        // And arrival times / turn structure are threshold-independent.
        assert_eq!(
            loose.iter().map(|r| r.arrival_s.to_bits()).collect::<Vec<_>>(),
            tight.iter().map(|r| r.arrival_s.to_bits()).collect::<Vec<_>>()
        );
    }
}
