//! Graceful-degradation sweep: goodput, tail latency, shed breakdown and
//! availability as the replica failure rate rises.
//!
//! The harness fixes one operating point (replica count, offered load,
//! seed) and sweeps the mean time between failures, expressed as a
//! multiple of the arrival-trace span so the defaults stay meaningful for
//! any workload scale: an MTBF factor of `0.5` means each replica crashes
//! on average twice over the trace. For every factor a seeded
//! [`crate::FaultPlan`] is injected into [`crate::simulate_fleet`]
//! and the run is reported next to the fault-free baseline (factor `inf`,
//! printed first). Output follows the `cta-bench` conventions: an aligned
//! stdout table plus `results/degradation_sweep.csv` and
//! `results/degradation_sweep.json`.
//!
//! The flags and their defaults are declared once, in the `FLAGS` table
//! below; the usage text printed on a malformed invocation is generated
//! from it.
//!
//! With `--trace <path>` the harness re-runs the *last* (highest failure
//! rate) sweep point with the telemetry ring buffer attached and writes a
//! validated Chrome Trace Format file; the fault lane shows outage and
//! slowdown spans next to the usual replica tracks. Malformed flags print
//! a usage message to stderr and exit non-zero. Everything is
//! deterministic for a fixed `--seed`, at any `--jobs` value.

use std::process::ExitCode;

use cta_bench::{Flag, Flags, SCHEMA_VERSION};
use cta_sim::{CtaSystem, SystemConfig};
use cta_telemetry::JsonValue;
use cta_workloads::{case_task, mini_case};

use crate::harness::{export_trace, Harness, PointOutput, SweepSpec};
use crate::{
    poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, BatchPolicy,
    CostModel, FaultPlan, FleetConfig, FleetReport, LoadSpec, RoutingPolicy, ServeRequest,
    ShedReason,
};

/// The sweep's own flags and defaults; the harness appends the shared
/// `--jobs` and `--pool-trace`.
const FLAGS: &[Flag] = &[
    Flag::value("--replicas", "4"),
    Flag::value("--load", "0.8"),
    Flag::value("--requests", "300"),
    Flag::value("--seed", "7"),
    Flag::value("--mtbf-factors", "4,2,1,0.5,0.25"),
    Flag::value("--mttr-factor", "0.05"),
    Flag::value("--routing", "jsq"),
    Flag::value("--batch", "4"),
    Flag::value("--queue-depth", "64"),
    Flag::optional("--trace", "<path.json>"),
];

/// CSV/stdout column layout; the trailing `schema_version` column repeats
/// [`cta_bench::SCHEMA_VERSION`] on every row.
const SWEEP_COLUMNS: &[&str] = &[
    "mtbf_factor",
    "crashes_per_replica",
    "completed",
    "shed_lost",
    "shed_other",
    "retried",
    "retry_events",
    "goodput_rps",
    "p50_ms",
    "p99_ms",
    "min_avail",
    "schema_version",
];

#[derive(Debug)]
struct Args {
    replicas: usize,
    load: f64,
    requests: usize,
    seed: u64,
    mtbf_factors: Vec<f64>,
    mttr_factor: f64,
    routing: RoutingPolicy,
    batch: usize,
    queue_depth: usize,
    trace: Option<String>,
}

impl Args {
    fn from_flags(f: &Flags) -> Result<Self, String> {
        let args = Args {
            replicas: f.num("--replicas", "an integer")?,
            load: f.num("--load", "a number")?,
            requests: f.num("--requests", "an integer")?,
            seed: f.num("--seed", "an integer")?,
            mtbf_factors: f.list("--mtbf-factors", "numbers")?,
            mttr_factor: f.num("--mttr-factor", "a number")?,
            routing: f.choice("--routing", "routing policy", "rr|jsq|low", RoutingPolicy::parse)?,
            batch: f.num("--batch", "an integer")?,
            queue_depth: f.num("--queue-depth", "an integer")?,
            trace: f.opt_text("--trace"),
        };
        if args.replicas == 0 || args.requests == 0 || args.batch == 0 || args.queue_depth == 0 {
            return Err("--replicas, --requests, --batch and --queue-depth must be positive".into());
        }
        if !(args.load > 0.0 && args.load.is_finite()) {
            return Err("--load must be positive and finite".into());
        }
        if args.mtbf_factors.is_empty()
            || args.mtbf_factors.iter().any(|f| !(*f > 0.0 && f.is_finite()))
        {
            return Err("--mtbf-factors must be a non-empty list of positive numbers".into());
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
    SweepSpec::new("degradation_sweep").flags(FLAGS).columns(SWEEP_COLUMNS).main(
        argv,
        Args::from_flags,
        run,
    )
}

/// The fault plan for one sweep point; `factor = None` is the fault-free
/// baseline.
fn point_faults(args: &Args, requests: &[ServeRequest], factor: Option<f64>) -> FaultPlan {
    match factor {
        None => FaultPlan::none(),
        Some(f) => {
            let span = requests.last().map(|r| r.arrival_s).unwrap_or(0.0).max(1e-6);
            FaultPlan::seeded(
                args.replicas,
                2.0 * span,
                f * span,
                args.mttr_factor * span,
                args.seed,
            )
        }
    }
}

/// One row of the degradation table plus its JSON mirror.
fn summarise(report: &FleetReport) -> (usize, usize, f64, f64, f64, f64) {
    let m = &report.metrics;
    let shed_lost = report.shed.iter().filter(|s| s.reason == ShedReason::ReplicaLost).count();
    let shed_other = m.shed - shed_lost;
    let (p50, p99) = m.latency.as_ref().map_or((f64::NAN, f64::NAN), |l| (l.p50_s, l.p99_s));
    let min_avail = m.per_replica_availability.iter().copied().fold(f64::INFINITY, f64::min);
    (shed_lost, shed_other, m.goodput_rps, p50, p99, min_avail)
}

fn run(h: &Harness<Args>) {
    let args = h.args();
    let case = mini_case();
    let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);

    let system = CtaSystem::new(SystemConfig::paper());
    let mut cost = CostModel::new();
    let probe = poisson_requests(&spec, 1, 1.0, args.seed);
    let solo = cost.request_service_s(&system, &probe[0]);

    let rate = args.load * args.replicas as f64 / solo;
    let requests = poisson_requests(&spec, args.requests, rate, args.seed);
    let span = requests.last().expect("non-empty trace").arrival_s;

    let base = {
        let mut cfg = FleetConfig::sharded(SystemConfig::paper(), args.replicas);
        cfg.routing = args.routing;
        cfg.batch = BatchPolicy::up_to(args.batch);
        cfg.admission = AdmissionPolicy::bounded(args.queue_depth);
        cfg
    };

    // Baseline first (no faults), then rising failure rate.
    let factors: Vec<Option<f64>> =
        std::iter::once(None).chain(args.mtbf_factors.iter().copied().map(Some)).collect();

    h.run_grid(
        &format!(
            "Degradation sweep — {} replicas @ load {:.2} ({:.1} rps, span {:.3} s), \
             MTTR {:.0}% of span, routing {}",
            args.replicas,
            args.load,
            rate,
            span,
            args.mttr_factor * 100.0,
            args.routing.label()
        ),
        &factors,
        |&factor| {
            let mut out = PointOutput::new();
            let mut cfg = base.clone();
            cfg.faults = point_faults(args, &requests, factor);
            let report = simulate_fleet(&cfg, &requests);
            let m = &report.metrics;
            // Conservation: every arrival is accounted for exactly once.
            assert_eq!(m.completed + m.shed, args.requests, "accounting identity");
            let (shed_lost, shed_other, goodput, p50, p99, min_avail) = summarise(&report);
            let crashes = factor.map_or(0.0, |f| 1.0 / f);
            out.row(vec![
                factor.map_or("inf".into(), |f| format!("{f:.2}")),
                format!("{crashes:.2}"),
                m.completed.to_string(),
                shed_lost.to_string(),
                shed_other.to_string(),
                m.retried.to_string(),
                m.retry_events.to_string(),
                format!("{goodput:.1}"),
                format!("{:.3}", p50 * 1e3),
                format!("{:.3}", p99 * 1e3),
                format!("{min_avail:.3}"),
                SCHEMA_VERSION.to_string(),
            ]);
            out.point(JsonValue::obj(vec![
                ("mtbf_factor", factor.map_or(JsonValue::Null, JsonValue::Num)),
                ("crashes_per_replica", JsonValue::Num(crashes)),
                ("completed", JsonValue::Int(m.completed as i64)),
                ("shed", JsonValue::Int(m.shed as i64)),
                ("shed_replica_lost", JsonValue::Int(shed_lost as i64)),
                ("retried", JsonValue::Int(m.retried as i64)),
                ("retry_events", JsonValue::Int(m.retry_events as i64)),
                ("goodput_rps", JsonValue::Num(goodput)),
                ("p50_s", JsonValue::Num(p50)),
                ("p99_s", JsonValue::Num(p99)),
                ("min_availability", JsonValue::Num(min_avail)),
                ("makespan_s", JsonValue::Num(m.makespan_s)),
            ]));
            out
        },
        |json| {
            json.set("experiment", JsonValue::Str("degradation_sweep".into()))
                .set("case", JsonValue::Str(case.name()))
                .set("replicas", JsonValue::Int(args.replicas as i64))
                .set("load", JsonValue::Num(args.load))
                .set("offered_rps", JsonValue::Num(rate))
                .set("trace_span_s", JsonValue::Num(span))
                .set("mttr_factor", JsonValue::Num(args.mttr_factor))
                .set("routing", JsonValue::Str(args.routing.label().into()))
                .set("batch", JsonValue::Int(args.batch as i64))
                .set("queue_depth", JsonValue::Int(args.queue_depth as i64))
                .set("requests", JsonValue::Int(args.requests as i64))
                .set("seed", JsonValue::Int(args.seed as i64));
        },
    );

    // Telemetry pass: re-run the harshest point with the ring buffer
    // attached so the fault lane (outages, slowdowns, requeues) is
    // visible next to the usual replica tracks.
    if let Some(path) = &args.trace {
        let factor = *args.mtbf_factors.last().expect("non-empty factors");
        let mut cfg = base.clone();
        cfg.faults = point_faults(args, &requests, Some(factor));
        export_trace(path, &format!("Trace — MTBF factor {factor:.2} → {path}"), |sink| {
            let _ = simulate_fleet_traced(&cfg, &requests, sink);
        });
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
        assert_eq!(ok.mtbf_factors, vec![4.0, 2.0, 1.0, 0.5, 0.25]);
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--load"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--routing", "x"]).unwrap_err().contains("unknown routing policy"));
        assert!(parse(&["--mtbf-factors", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--mttr-factor", "-1"]).unwrap_err().contains("positive"));
    }

    #[test]
    fn csv_header_carries_schema_version() {
        assert_eq!(SWEEP_COLUMNS.last(), Some(&"schema_version"));
        assert_eq!(SCHEMA_VERSION, 2, "bump this pin alongside the layout");
    }
}
