//! Closed-loop overload-control sweep: goodput, tail latency, shedding
//! and quality loss across an offered-load × failure-rate grid, with and
//! without the controller.
//!
//! Every grid point is simulated twice on the *same* seeded arrival trace
//! and fault schedule: once with [`crate::OverloadControl::off`] (the
//! plain fleet) and once under the selected control mode, so each table
//! row pair isolates exactly what the controller bought — and what it
//! cost in pre-measured proxy accuracy (the `loss_pct` column). Requests
//! carry an interactive deadline (a multiple of the solo service time),
//! so goodput counts only deadline-met completions.
//!
//! The flags and their defaults are declared once, in the `FLAGS` table
//! below; the usage text printed on a malformed invocation is generated
//! from it.
//!
//! The default control mode is `brownout` (the ladder alone). `full` adds
//! the circuit breaker and hedged dispatch; note that hedging duplicates
//! work, which protects the tail against stragglers and fault windows but
//! *amplifies* sustained saturation — expect `full` to lose to `brownout`
//! at offered loads past capacity. That trade-off is the point of
//! sweeping the modes separately.
//!
//! Brownout trades *compute* for quality: a smaller (k₀, k₁, k₂) budget
//! shortens the PE-cluster critical path but moves the same activations
//! over the host link. At the paper's 12 GB/s link every evaluated shape
//! is transfer-bound (`elapsed = max(critical, transfer)` with overlap),
//! so degrading would cost accuracy and buy nothing. This sweep therefore
//! defaults to a 96 GB/s link — a compute-bound serving point where the
//! ladder has leverage — and exposes `--link-gbs` so the transfer-bound
//! regime remains one flag away (expect the off/on pairs to coincide
//! there).
//!
//! MTBF factors follow the `degradation_sweep` convention (mean time
//! between failures as a multiple of the trace span); `inf` disables
//! faults for that grid row. `--control` picks which mechanisms the "on"
//! run enables (`full` enables all three). The disabled
//! half of every pair goes through the same code path the golden-pinned
//! sweeps use, so the baseline numbers are bitwise reproducible run to
//! run. Output follows the `cta-bench` conventions: an aligned stdout
//! table plus `results/brownout_sweep.csv` and
//! `results/brownout_sweep.json`. With `--trace <path>` the harness
//! re-runs the harshest controlled point with the telemetry ring buffer
//! attached; the brownout/breaker/hedge lanes land next to the usual
//! replica tracks. Malformed flags print a usage message to stderr and
//! exit non-zero.

use std::process::ExitCode;

use cta_bench::{Flag, Flags, JsonValue, SCHEMA_VERSION};
use cta_sim::{CtaSystem, SystemConfig};
use cta_workloads::{case_task, mini_case};

use crate::harness::{export_trace, Harness, PointOutput, SweepSpec};
use crate::{
    poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, BatchPolicy,
    BreakerPolicy, CostModel, FaultPlan, FleetConfig, FleetReport, HedgePolicy, LoadSpec,
    OverloadControl, QosClass, RoutingPolicy, ServeRequest,
};

/// The sweep's own flags and defaults; the harness appends the shared
/// `--jobs`, `--kernels` and `--pool-trace`.
const FLAGS: &[Flag] = &[
    Flag::value("--replicas", "3"),
    Flag::value("--loads", "0.8,1.3,1.8"),
    Flag::value("--requests", "250"),
    Flag::value("--seed", "7"),
    Flag::value("--mtbf-factors", "inf,0.5"),
    Flag::value("--mttr-factor", "0.05"),
    Flag::value("--deadline-factor", "25"),
    Flag::value("--link-gbs", "96"),
    Flag::value("--routing", "jsq"),
    Flag::value("--batch", "4"),
    Flag::value("--queue-depth", "64"),
    Flag::value("--control", "brownout"),
    Flag::optional("--trace", "<path.json>"),
];

/// CSV/stdout column layout; the trailing `schema_version` column repeats
/// [`cta_bench::SCHEMA_VERSION`] on every row.
const SWEEP_COLUMNS: &[&str] = &[
    "load",
    "mtbf_factor",
    "control",
    "completed",
    "shed",
    "goodput_rps",
    "p50_ms",
    "p99_ms",
    "loss_pct",
    "brownout_s",
    "transitions",
    "hedged",
    "breaker_opens",
    "schema_version",
];

/// Which mechanisms the controlled half of each pair enables.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ControlMode {
    Brownout,
    Breaker,
    Hedge,
    Full,
}

impl ControlMode {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "brownout" => Some(ControlMode::Brownout),
            "breaker" => Some(ControlMode::Breaker),
            "hedge" => Some(ControlMode::Hedge),
            "full" => Some(ControlMode::Full),
            _ => None,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            ControlMode::Brownout => "brownout",
            ControlMode::Breaker => "breaker",
            ControlMode::Hedge => "hedge",
            ControlMode::Full => "full",
        }
    }

    fn overload(&self) -> OverloadControl {
        let all = OverloadControl::standard();
        match self {
            ControlMode::Brownout => {
                OverloadControl { brownout: all.brownout, ..OverloadControl::off() }
            }
            ControlMode::Breaker => OverloadControl {
                breaker: Some(BreakerPolicy::standard()),
                ..OverloadControl::off()
            },
            ControlMode::Hedge => {
                OverloadControl { hedge: Some(HedgePolicy::standard()), ..OverloadControl::off() }
            }
            ControlMode::Full => all,
        }
    }
}

#[derive(Debug)]
struct Args {
    replicas: usize,
    loads: Vec<f64>,
    requests: usize,
    seed: u64,
    mtbf_factors: Vec<f64>,
    mttr_factor: f64,
    deadline_factor: f64,
    link_gbs: f64,
    routing: RoutingPolicy,
    batch: usize,
    queue_depth: usize,
    control: ControlMode,
    trace: Option<String>,
}

impl Args {
    fn from_flags(f: &Flags) -> Result<Self, String> {
        let args = Args {
            replicas: f.num("--replicas", "an integer")?,
            loads: f.list("--loads", "numbers")?,
            requests: f.num("--requests", "an integer")?,
            seed: f.num("--seed", "an integer")?,
            mtbf_factors: f.list("--mtbf-factors", "numbers")?,
            mttr_factor: f.num("--mttr-factor", "a number")?,
            deadline_factor: f.num("--deadline-factor", "a number")?,
            link_gbs: f.num("--link-gbs", "a number")?,
            routing: f.choice("--routing", "routing policy", "rr|jsq|low", RoutingPolicy::parse)?,
            batch: f.num("--batch", "an integer")?,
            queue_depth: f.num("--queue-depth", "an integer")?,
            control: f.choice(
                "--control",
                "control mode",
                "brownout|breaker|hedge|full",
                ControlMode::parse,
            )?,
            trace: f.opt_text("--trace"),
        };
        if args.replicas == 0 || args.requests == 0 || args.batch == 0 || args.queue_depth == 0 {
            return Err("--replicas, --requests, --batch and --queue-depth must be positive".into());
        }
        if args.loads.is_empty() || args.loads.iter().any(|l| !(*l > 0.0 && l.is_finite())) {
            return Err("--loads must be a non-empty list of positive numbers".into());
        }
        // `inf` is a legal factor here (= that row runs fault-free), NaN
        // and non-positive values are not.
        if args.mtbf_factors.is_empty() || args.mtbf_factors.iter().any(|f| f.is_nan() || *f <= 0.0)
        {
            return Err(
                "--mtbf-factors must be a non-empty list of positive numbers (inf ok)".into()
            );
        }
        if !(args.mttr_factor > 0.0 && args.mttr_factor.is_finite()) {
            return Err("--mttr-factor must be positive and finite".into());
        }
        if !(args.deadline_factor > 0.0 && args.deadline_factor.is_finite()) {
            return Err("--deadline-factor must be positive and finite".into());
        }
        if !(args.link_gbs > 0.0 && args.link_gbs.is_finite()) {
            return Err("--link-gbs must be positive and finite".into());
        }
        Ok(args)
    }
}

/// The binary entry point: parse `argv` (plus the shared harness flags)
/// and run the sweep; malformed flags print the usage text to stderr and
/// exit non-zero.
pub fn main(argv: impl Iterator<Item = String>) -> ExitCode {
    SweepSpec::new("brownout_sweep").flags(FLAGS).columns(SWEEP_COLUMNS).main(
        argv,
        Args::from_flags,
        run,
    )
}

/// The fault plan for one grid row (`inf` = fault-free), following the
/// `degradation_sweep` span-relative convention.
fn point_faults(args: &Args, requests: &[ServeRequest], factor: f64) -> FaultPlan {
    if !factor.is_finite() {
        return FaultPlan::none();
    }
    let span = requests.last().map(|r| r.arrival_s).unwrap_or(0.0).max(1e-6);
    FaultPlan::seeded(args.replicas, 2.0 * span, factor * span, args.mttr_factor * span, args.seed)
}

/// One table row + JSON point from one run.
fn emit(out: &mut PointOutput, load: f64, factor: f64, control: &str, report: &FleetReport) {
    let m = &report.metrics;
    let ov = &m.overload;
    let (p50, p99) = m.latency.as_ref().map_or((f64::NAN, f64::NAN), |l| (l.p50_s, l.p99_s));
    let brownout_s: f64 = ov.per_replica_brownout_s.iter().sum();
    out.row(vec![
        format!("{load:.2}"),
        if factor.is_finite() { format!("{factor:.2}") } else { "inf".into() },
        control.to_string(),
        m.completed.to_string(),
        m.shed.to_string(),
        format!("{:.1}", m.goodput_rps),
        format!("{:.3}", p50 * 1e3),
        format!("{:.3}", p99 * 1e3),
        format!("{:.3}", ov.mean_accuracy_loss_pct),
        format!("{brownout_s:.4}"),
        ov.brownout_transitions.to_string(),
        ov.hedged.to_string(),
        ov.breaker_opens.to_string(),
        SCHEMA_VERSION.to_string(),
    ]);
    out.point(JsonValue::obj(vec![
        ("load", JsonValue::Num(load)),
        ("mtbf_factor", if factor.is_finite() { JsonValue::Num(factor) } else { JsonValue::Null }),
        ("control", JsonValue::Str(control.into())),
        ("completed", JsonValue::Int(m.completed as i64)),
        ("shed", JsonValue::Int(m.shed as i64)),
        ("shed_rate", JsonValue::Num(m.shed_rate)),
        ("goodput_rps", JsonValue::Num(m.goodput_rps)),
        ("p50_s", JsonValue::Num(p50)),
        ("p99_s", JsonValue::Num(p99)),
        ("mean_accuracy_loss_pct", JsonValue::Num(ov.mean_accuracy_loss_pct)),
        ("max_accuracy_loss_pct", JsonValue::Num(ov.max_accuracy_loss_pct)),
        ("brownout_s", JsonValue::Num(brownout_s)),
        ("brownout_transitions", JsonValue::Int(ov.brownout_transitions as i64)),
        ("hedged", JsonValue::Int(ov.hedged as i64)),
        ("hedge_wins", JsonValue::Int(ov.hedge_wins as i64)),
        ("hedge_cancelled", JsonValue::Int(ov.hedge_cancelled as i64)),
        ("breaker_opens", JsonValue::Int(ov.breaker_opens as i64)),
        ("makespan_s", JsonValue::Num(m.makespan_s)),
    ]));
}

fn run(h: &Harness<Args>) {
    let args = h.args();
    let case = mini_case();
    let mut spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);

    let sys_cfg = SystemConfig { host_link_gbs: args.link_gbs, ..SystemConfig::paper() };
    let system = CtaSystem::new(sys_cfg);
    let mut cost = CostModel::new();
    let probe = poisson_requests(&spec, 1, 1.0, args.seed);
    let solo = cost.request_service_s(&system, &probe[0]);
    // Deadline-bearing traffic: goodput below counts only deadline-met
    // completions, which is what overload control is supposed to protect.
    let deadline_s = args.deadline_factor * solo;
    spec.class = QosClass::interactive(deadline_s);

    let base = {
        let mut cfg = FleetConfig::sharded(sys_cfg, args.replicas);
        cfg.routing = args.routing;
        cfg.batch = BatchPolicy::up_to(args.batch);
        cfg.admission = AdmissionPolicy::bounded(args.queue_depth);
        cfg
    };

    let grid: Vec<(f64, f64)> = args
        .loads
        .iter()
        .flat_map(|&load| args.mtbf_factors.iter().map(move |&factor| (load, factor)))
        .collect();

    h.run_grid(
        &format!(
            "Brownout sweep — {} replicas, link {} GB/s, deadline {:.3} ms ({}× solo), control {}, routing {}",
            args.replicas,
            args.link_gbs,
            deadline_s * 1e3,
            args.deadline_factor,
            args.control.label(),
            args.routing.label()
        ),
        &grid,
        |&(load, factor)| {
            let mut out = PointOutput::new();
            let rate = load * args.replicas as f64 / solo;
            let requests = poisson_requests(&spec, args.requests, rate, args.seed);
            let mut cfg = base.clone();
            cfg.faults = point_faults(args, &requests, factor);
            // Disabled half: exactly the plain fleet (the golden-pinned
            // code path), reported first for side-by-side reading.
            cfg.overload = OverloadControl::off();
            let off = simulate_fleet(&cfg, &requests);
            assert_eq!(off.metrics.completed + off.metrics.shed, args.requests, "conservation");
            emit(&mut out, load, factor, "off", &off);
            // Controlled half on the same trace and fault schedule.
            cfg.overload = args.control.overload();
            let on = simulate_fleet(&cfg, &requests);
            assert_eq!(on.metrics.completed + on.metrics.shed, args.requests, "conservation");
            emit(&mut out, load, factor, args.control.label(), &on);
            out
        },
        |json| {
            json.set("experiment", JsonValue::Str("brownout_sweep".into()))
                .set("case", JsonValue::Str(case.name()))
                .set("replicas", JsonValue::Int(args.replicas as i64))
                .set("link_gbs", JsonValue::Num(args.link_gbs))
                .set("solo_service_s", JsonValue::Num(solo))
                .set("deadline_s", JsonValue::Num(deadline_s))
                .set("deadline_factor", JsonValue::Num(args.deadline_factor))
                .set("mttr_factor", JsonValue::Num(args.mttr_factor))
                .set("control", JsonValue::Str(args.control.label().into()))
                .set("routing", JsonValue::Str(args.routing.label().into()))
                .set("batch", JsonValue::Int(args.batch as i64))
                .set("queue_depth", JsonValue::Int(args.queue_depth as i64))
                .set("requests_per_point", JsonValue::Int(args.requests as i64))
                .set("seed", JsonValue::Int(args.seed as i64));
        },
    );

    // Telemetry pass: the harshest controlled point (last load, last MTBF
    // factor), with the brownout/breaker/hedge lanes in the trace and the
    // overload-control section in the aggregate report.
    if let Some(path) = &args.trace {
        let load = *args.loads.last().expect("non-empty loads");
        let factor = *args.mtbf_factors.last().expect("non-empty factors");
        let rate = load * args.replicas as f64 / solo;
        let requests = poisson_requests(&spec, args.requests, rate, args.seed);
        let mut cfg = base.clone();
        cfg.faults = point_faults(args, &requests, factor);
        cfg.overload = args.control.overload();
        export_trace(
            path,
            &format!("Trace — load {load:.2}, control {} → {path}", args.control.label()),
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
        assert_eq!(ok.control, ControlMode::Brownout);
        assert!(ok.mtbf_factors[0].is_infinite(), "default grid includes the fault-free row");
        let brown = parse(&["--control", "brownout"]).expect("valid mode");
        assert!(brown.control.overload().brownout.is_some());
        assert!(brown.control.overload().breaker.is_none());

        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--control"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--control", "chaos"]).unwrap_err().contains("unknown control mode"));
        assert!(parse(&["--loads", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--mtbf-factors", "nan"]).unwrap_err().contains("positive"));
        assert!(parse(&["--deadline-factor", "-3"]).unwrap_err().contains("positive"));
        assert!(parse(&["--link-gbs", "inf"]).unwrap_err().contains("positive and finite"));
    }

    #[test]
    fn csv_header_carries_schema_version() {
        assert_eq!(SWEEP_COLUMNS.last(), Some(&"schema_version"));
        assert_eq!(SCHEMA_VERSION, 2, "bump this pin alongside the layout");
    }

    #[test]
    fn every_mode_enables_exactly_what_its_name_says() {
        let on = |m: ControlMode| {
            let o = m.overload();
            (o.brownout.is_some(), o.breaker.is_some(), o.hedge.is_some())
        };
        assert_eq!(on(ControlMode::Brownout), (true, false, false));
        assert_eq!(on(ControlMode::Breaker), (false, true, false));
        assert_eq!(on(ControlMode::Hedge), (false, false, true));
        assert_eq!(on(ControlMode::Full), (true, true, true));
    }
}
