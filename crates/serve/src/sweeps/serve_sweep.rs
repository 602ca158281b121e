//! Fleet serving sweep: throughput, tail latency, goodput and shed rate
//! across offered-load points and replica counts.
//!
//! For each (replica count, load multiplier) pair the harness generates a
//! seeded Poisson trace at `multiplier × replicas / solo_service` requests
//! per second — i.e. load is expressed relative to the fleet's aggregate
//! no-queueing capacity — plays it through [`crate::simulate_fleet`],
//! and reports the aggregate metrics. Output follows the `cta-bench`
//! conventions: an aligned stdout table plus `results/serve_sweep.csv`
//! and `results/serve_sweep.json`.
//!
//! The flags and their defaults are declared once, in the `FLAGS` table
//! below; the usage text printed on a malformed invocation is generated
//! from it.
//!
//! With `--faults` each sweep point injects a seeded MTBF/MTTR crash
//! schedule ([`crate::FaultPlan::seeded`]) over twice the trace span;
//! evicted requests are requeued under the default retry budget and
//! crash-orphaned work that cannot be placed is shed as `ReplicaLost`.
//! With `--brownout` each sweep point runs under the standard quality-
//! brownout controller ([`crate::BrownoutConfig::standard`]): replicas
//! under sustained queueing degrade their CTA cluster budgets along the
//! calibrated ladder, and the JSON gains per-point quality-loss
//! attribution fields. Without the flag the output is byte-identical to
//! the pre-brownout harness. Malformed flags print a usage message to
//! stderr and exit non-zero.
//!
//! With `--trace <path>` the harness re-runs the final sweep point with
//! the telemetry ring buffer attached and writes a Chrome Trace Format
//! file (open it in `chrome://tracing` or Perfetto): one track group per
//! replica with SA/CIM/CAG/PAG/host/runtime lanes, request lifecycle
//! intervals, and queue-depth counters. The trace is validated before it
//! is written, and tracing never changes the sweep numbers — the sink is
//! compiled out of the untraced runs.
//!
//! With `--tenants N` (or `--scheduler`) every sweep point routes its
//! arrivals through the multi-tenant front end ([`crate::TenancyConfig`]):
//! requests are striped over `N` equal-weight tenants (`tenant = id % N`)
//! and drained by the chosen scheduler (default `drr`). The single-tenant
//! configuration (`--tenants 1`, any scheduler) is pinned bitwise against
//! the tenancy-off fleet — CSV, JSON and trace included (the `golden`
//! integration tests enforce it) — and multi-tenant runs add per-point
//! `fairness_index` fields plus `tenants`/`scheduler` metadata to the
//! JSON only, so the default layout never moves. `tenant_sweep` is the
//! dedicated experiment for skewed mixes, quotas and autoscaling.
//!
//! With `--arrivals diurnal` the Poisson trace is replaced by a diurnally
//! modulated one ([`cta_workloads::DiurnalSpec`]): the point rate
//! becomes the daytime rate of a four-cycle day/night pattern (night at
//! 0.25x) with a 4x flash crowd early in the second cycle.
//!
//! Everything is deterministic for a fixed `--seed`: running the sweep
//! twice — at any `--jobs` value — produces byte-identical tables.

use std::process::ExitCode;

use cta_bench::{parse_num, Flag, Flags, SCHEMA_VERSION};
use cta_sim::{CtaSystem, SystemConfig};
use cta_telemetry::JsonValue;
use cta_workloads::{case_task, mini_case, DiurnalSpec, FlashCrowd};

use crate::harness::{export_trace, Harness, PointOutput, SweepSpec};
use crate::{
    poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, BatchPolicy,
    BrownoutConfig, CostModel, FaultPlan, FleetConfig, LoadSpec, OverloadControl, RoutingPolicy,
    SchedulerPolicy, ServeRequest, TenancyConfig,
};

/// The sweep's own flags and defaults; the harness appends the shared
/// `--jobs` and `--pool-trace`.
const FLAGS: &[Flag] = &[
    Flag::value("--replicas", "1,4"),
    Flag::value("--loads", "0.2,0.5,0.8,1.1,1.5"),
    Flag::value("--requests", "200"),
    Flag::value("--seed", "7"),
    Flag::value("--routing", "jsq"),
    Flag::value("--batch", "4"),
    Flag::value("--queue-depth", "64"),
    Flag::optional("--trace", "<path.json>"),
    Flag::optional("--faults", "<mtbf_s>:<mttr_s>"),
    Flag::switch("--brownout"),
    Flag::value("--arrivals", "poisson"),
    Flag::optional("--tenants", "N"),
    Flag::value("--scheduler", "drr"),
];

/// CSV/stdout column layout. The trailing `schema_version` column repeats
/// [`cta_bench::SCHEMA_VERSION`] on every row so a bare
/// `results/serve_sweep.csv` identifies its layout generation without the
/// JSON report.
const SWEEP_COLUMNS: &[&str] = &[
    "replicas",
    "load",
    "offered_rps",
    "completed",
    "shed",
    "tput_rps",
    "goodput_rps",
    "p50_ms",
    "p99_ms",
    "util",
    "schema_version",
];

/// A parsed `--faults mtbf:mttr` spec (both in seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultSpec {
    mtbf_s: f64,
    mttr_s: f64,
}

impl FaultSpec {
    fn parse(s: &str) -> Result<Self, String> {
        let (mtbf, mttr) = s
            .split_once(':')
            .ok_or_else(|| format!("--faults takes <mtbf_s>:<mttr_s>, got {s:?}"))?;
        let mtbf_s: f64 =
            mtbf.parse().map_err(|_| format!("--faults MTBF must be a number, got {mtbf:?}"))?;
        let mttr_s: f64 =
            mttr.parse().map_err(|_| format!("--faults MTTR must be a number, got {mttr:?}"))?;
        if !(mtbf_s > 0.0 && mtbf_s.is_finite() && mttr_s > 0.0 && mttr_s.is_finite()) {
            return Err(format!("--faults times must be positive and finite, got {s:?}"));
        }
        Ok(Self { mtbf_s, mttr_s })
    }
}

/// The arrival process a sweep point generates its trace from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrivals {
    /// Constant-rate Poisson arrivals (the default).
    Poisson,
    /// Diurnally modulated arrivals with a flash-crowd overlay.
    Diurnal,
}

impl Arrivals {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "poisson" => Some(Arrivals::Poisson),
            "diurnal" => Some(Arrivals::Diurnal),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Arrivals::Poisson => "poisson",
            Arrivals::Diurnal => "diurnal",
        }
    }
}

#[derive(Debug)]
struct Args {
    replicas: Vec<usize>,
    loads: Vec<f64>,
    requests: usize,
    seed: u64,
    routing: RoutingPolicy,
    batch: usize,
    queue_depth: usize,
    trace: Option<String>,
    faults: Option<FaultSpec>,
    brownout: bool,
    arrivals: Arrivals,
    /// `Some` when `--tenants` or `--scheduler` was given: the tenancy
    /// front end is enabled with this many equal-weight tenants.
    tenants: Option<u32>,
    scheduler: SchedulerPolicy,
}

impl Args {
    /// The tenancy configuration this invocation asked for, if any.
    fn tenancy(&self) -> Option<TenancyConfig> {
        self.tenants.map(|n| TenancyConfig::equal_weight(n, self.scheduler))
    }
}

impl Args {
    fn from_flags(f: &Flags) -> Result<Self, String> {
        let args = Args {
            replicas: f.list("--replicas", "integers")?,
            loads: f.list("--loads", "numbers")?,
            requests: f.num("--requests", "an integer")?,
            seed: f.num("--seed", "an integer")?,
            routing: f.choice("--routing", "routing policy", "rr|jsq|low", RoutingPolicy::parse)?,
            batch: f.num("--batch", "an integer")?,
            queue_depth: f.num("--queue-depth", "an integer")?,
            trace: f.opt_text("--trace"),
            faults: f.opt("--faults", FaultSpec::parse)?,
            // A bare switch: the brownout ladder and controller are the
            // calibrated standards, not CLI-tunable knobs.
            brownout: f.switch("--brownout"),
            arrivals: f.choice(
                "--arrivals",
                "arrival process",
                "poisson|diurnal",
                Arrivals::parse,
            )?,
            // `--scheduler` alone implies a single tenant.
            tenants: f
                .opt("--tenants", |s| parse_num(s, "--tenants", "an integer"))?
                .or(f.switch("--scheduler").then_some(1)),
            scheduler: f.choice(
                "--scheduler",
                "scheduler",
                "fifo|drr|wfq",
                SchedulerPolicy::parse,
            )?,
        };
        if args.replicas.is_empty() || args.loads.is_empty() {
            return Err("empty sweep: --replicas and --loads must be non-empty".into());
        }
        if args.loads.iter().any(|l| !(*l > 0.0 && l.is_finite())) {
            return Err("--loads must be a non-empty list of positive numbers".into());
        }
        if args.batch == 0 {
            return Err("--batch must be positive".into());
        }
        if args.queue_depth == 0 {
            return Err("--queue-depth must be positive".into());
        }
        if args.requests == 0 {
            return Err("--requests must be positive".into());
        }
        if args.replicas.contains(&0) {
            return Err("--replicas entries must be positive".into());
        }
        if args.tenants == Some(0) {
            return Err("--tenants must be positive".into());
        }
        Ok(args)
    }
}

/// The binary entry point: parse `argv` (plus the shared harness flags)
/// and run the sweep; malformed flags print the usage text to stderr and
/// exit non-zero.
pub fn main(argv: impl Iterator<Item = String>) -> ExitCode {
    SweepSpec::new("serve_sweep").flags(FLAGS).columns(SWEEP_COLUMNS).main(
        argv,
        Args::from_flags,
        run,
    )
}

/// The fault plan for one sweep point: a seeded MTBF/MTTR schedule over
/// twice the trace span (so outages can land anywhere in the run),
/// deterministic in (spec, replicas, trace, seed).
fn point_faults(
    spec: Option<FaultSpec>,
    replicas: usize,
    requests: &[ServeRequest],
    seed: u64,
) -> FaultPlan {
    match spec {
        None => FaultPlan::none(),
        Some(f) => {
            let span = requests.last().map(|r| r.arrival_s).unwrap_or(0.0).max(1e-6);
            FaultPlan::seeded(replicas, 2.0 * span, f.mtbf_s, f.mttr_s, seed)
        }
    }
}

/// The fleet configuration for one sweep point (faults attached later,
/// once the point's arrival trace exists).
fn point_config(args: &Args, replicas: usize) -> FleetConfig {
    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), replicas);
    cfg.routing = args.routing;
    cfg.batch = BatchPolicy::up_to(args.batch);
    cfg.admission = AdmissionPolicy::bounded(args.queue_depth);
    if args.brownout {
        cfg.overload = OverloadControl {
            brownout: Some(BrownoutConfig::standard()),
            ..OverloadControl::off()
        };
    }
    cfg.tenancy = args.tenancy();
    cfg
}

/// The arrival trace for one sweep point. Poisson traces come straight
/// from [`poisson_requests`]; diurnal traces treat the point rate as the
/// daytime rate of a four-cycle day/night pattern (night at 0.25x) with
/// a 4x flash crowd early in the second cycle, sized so the cycle
/// structure fits the trace span whatever `--requests` and the rate are.
fn point_requests(args: &Args, spec: &LoadSpec, rate: f64, seed: u64) -> Vec<ServeRequest> {
    let requests = raw_point_requests(args, spec, rate, seed);
    match args.tenants {
        // Stripe arrivals over the equal-weight tenants round-robin.
        Some(n) if n > 1 => requests
            .into_iter()
            .map(|r| {
                let t = (r.id % n as u64) as u32;
                r.with_tenant(t)
            })
            .collect(),
        _ => requests,
    }
}

fn raw_point_requests(args: &Args, spec: &LoadSpec, rate: f64, seed: u64) -> Vec<ServeRequest> {
    match args.arrivals {
        Arrivals::Poisson => poisson_requests(spec, args.requests, rate, seed),
        Arrivals::Diurnal => {
            let period = (args.requests as f64 / rate / 4.0).max(1e-6);
            let diurnal = DiurnalSpec::new(rate, period, 0.6, 0.25).with_flash(FlashCrowd::new(
                1.1 * period,
                0.2 * period,
                4.0,
            ));
            diurnal
                .arrival_times(args.requests, seed)
                .into_iter()
                .enumerate()
                .map(|(id, t)| {
                    ServeRequest::uniform(
                        id as u64,
                        t,
                        spec.class,
                        spec.task,
                        spec.layers,
                        spec.heads,
                    )
                })
                .collect()
        }
    }
}

fn run(h: &Harness<Args>) {
    let args = h.args();
    let case = mini_case();
    let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);

    // Fleet capacity normalisation: one replica serves one request every
    // `solo` seconds when nothing queues.
    let system = CtaSystem::new(SystemConfig::paper());
    let mut cost = CostModel::new();
    let probe = poisson_requests(&spec, 1, 1.0, args.seed);
    let solo = cost.request_service_s(&system, &probe[0]);

    let grid: Vec<(usize, f64)> = args
        .replicas
        .iter()
        .flat_map(|&replicas| args.loads.iter().map(move |&load| (replicas, load)))
        .collect();

    h.run_grid(
        &format!(
            "Fleet serving sweep — {}×{} heads/layer, solo service {:.3} ms, routing {}",
            case.model.layers,
            case.model.heads,
            solo * 1e3,
            args.routing.label()
        ),
        &grid,
        |&(replicas, load)| {
            let mut out = PointOutput::new();
            let mut cfg = point_config(args, replicas);
            let rate = load * replicas as f64 / solo;
            let requests = point_requests(args, &spec, rate, args.seed);
            cfg.faults = point_faults(args.faults, replicas, &requests, args.seed);
            let report = simulate_fleet(&cfg, &requests);
            let m = &report.metrics;
            let (p50, p99, tput) = m
                .latency
                .as_ref()
                .map_or((f64::NAN, f64::NAN, 0.0), |l| (l.p50_s, l.p99_s, l.throughput_rps));
            let util = m.per_replica_utilization.iter().sum::<f64>()
                / m.per_replica_utilization.len() as f64;
            out.row(vec![
                replicas.to_string(),
                format!("{load:.2}"),
                format!("{rate:.1}"),
                m.completed.to_string(),
                m.shed.to_string(),
                format!("{tput:.1}"),
                format!("{:.1}", m.goodput_rps),
                format!("{:.3}", p50 * 1e3),
                format!("{:.3}", p99 * 1e3),
                format!("{util:.2}"),
                SCHEMA_VERSION.to_string(),
            ]);
            let mut point = JsonValue::obj(vec![
                ("replicas", JsonValue::Int(replicas as i64)),
                ("load", JsonValue::Num(load)),
                ("offered_rps", JsonValue::Num(rate)),
                ("offered", JsonValue::Int(m.offered as i64)),
                ("completed", JsonValue::Int(m.completed as i64)),
                ("shed", JsonValue::Int(m.shed as i64)),
                ("shed_rate", JsonValue::Num(m.shed_rate)),
                ("throughput_rps", JsonValue::Num(tput)),
                ("goodput_rps", JsonValue::Num(m.goodput_rps)),
                ("p50_s", JsonValue::Num(p50)),
                ("p99_s", JsonValue::Num(p99)),
                ("mean_utilization", JsonValue::Num(util)),
                ("makespan_s", JsonValue::Num(m.makespan_s)),
            ]);
            // Fault fields ride along only when --faults is given so the
            // default report layout is byte-identical to the healthy sweep.
            if args.faults.is_some() {
                let min_avail =
                    m.per_replica_availability.iter().copied().fold(f64::INFINITY, f64::min);
                if let JsonValue::Obj(fields) = &mut point {
                    fields.push(("retried".into(), JsonValue::Int(m.retried as i64)));
                    fields.push(("retry_events".into(), JsonValue::Int(m.retry_events as i64)));
                    fields.push(("min_availability".into(), JsonValue::Num(min_avail)));
                }
            }
            // Per-tenant isolation numbers ride along only for genuinely
            // multi-tenant runs, so `--tenants 1` stays byte-identical to
            // the tenancy-off report.
            if args.tenants.is_some_and(|n| n > 1) {
                let t = report.metrics.tenancy.as_ref().expect("tenancy stats reported");
                if let JsonValue::Obj(fields) = &mut point {
                    fields.push(("fairness_index".into(), JsonValue::Num(t.fairness_index)));
                    fields.push(("max_slowdown".into(), JsonValue::Num(t.max_slowdown)));
                }
            }
            // Likewise, brownout attribution only with --brownout.
            if args.brownout {
                let ov = &m.overload;
                let brownout_s: f64 = ov.per_replica_brownout_s.iter().sum();
                if let JsonValue::Obj(fields) = &mut point {
                    fields.push((
                        "mean_accuracy_loss_pct".into(),
                        JsonValue::Num(ov.mean_accuracy_loss_pct),
                    ));
                    fields.push((
                        "max_accuracy_loss_pct".into(),
                        JsonValue::Num(ov.max_accuracy_loss_pct),
                    ));
                    fields.push((
                        "brownout_transitions".into(),
                        JsonValue::Int(ov.brownout_transitions as i64),
                    ));
                    fields.push(("brownout_s".into(), JsonValue::Num(brownout_s)));
                }
            }
            out.point(point);
            out
        },
        |json| {
            json.set("experiment", JsonValue::Str("serve_sweep".into()))
                .set("case", JsonValue::Str(case.name()))
                .set("layers", JsonValue::Int(case.model.layers as i64))
                .set("heads", JsonValue::Int(case.model.heads as i64))
                .set("solo_service_s", JsonValue::Num(solo))
                .set("routing", JsonValue::Str(args.routing.label().into()))
                .set("batch", JsonValue::Int(args.batch as i64))
                .set("queue_depth", JsonValue::Int(args.queue_depth as i64))
                .set("requests_per_point", JsonValue::Int(args.requests as i64))
                .set("seed", JsonValue::Int(args.seed as i64))
                .set("distinct_task_shapes", JsonValue::Int(cost.distinct_shapes() as i64));
            if let Some(f) = args.faults {
                json.set("fault_mtbf_s", JsonValue::Num(f.mtbf_s))
                    .set("fault_mttr_s", JsonValue::Num(f.mttr_s));
            }
            if args.brownout {
                json.set("brownout", JsonValue::Bool(true));
            }
            // Arrivals metadata only when non-default, so the default
            // report bytes stay pinned.
            if args.arrivals != Arrivals::Poisson {
                json.set("arrivals", JsonValue::Str(args.arrivals.label().into()));
            }
            // Tenancy metadata only for multi-tenant runs: the pinned
            // single-tenant replay must reproduce the golden JSON bytes.
            if args.tenants.is_some_and(|n| n > 1) {
                json.set("tenants", JsonValue::Int(args.tenants.unwrap_or(1) as i64))
                    .set("scheduler", JsonValue::Str(args.scheduler.label().into()));
            }
        },
    );

    // Telemetry pass: re-run the final sweep point with the ring buffer
    // attached and export a Chrome trace. The traced run reproduces the
    // untraced one bit for bit (NullSink vs RingBufferSink is pinned by
    // the determinism-guard test), so the sweep numbers above still
    // describe exactly what the trace shows.
    if let Some(path) = &args.trace {
        let replicas = *args.replicas.last().expect("non-empty sweep");
        let load = *args.loads.last().expect("non-empty sweep");
        let mut cfg = point_config(args, replicas);
        let rate = load * replicas as f64 / solo;
        let requests = point_requests(args, &spec, rate, args.seed);
        cfg.faults = point_faults(args.faults, replicas, &requests, args.seed);
        export_trace(
            path,
            &format!("Trace — {replicas} replicas @ load {load:.2} → {path}"),
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
    fn args_parse_reports_malformed_flags_instead_of_panicking() {
        assert!(parse(&[]).is_ok());
        assert!(!parse(&[]).unwrap().brownout);
        let ok = parse(&["--routing", "rr", "--faults", "5:0.5", "--brownout"]).expect("valid");
        assert_eq!(ok.routing, RoutingPolicy::RoundRobin);
        assert_eq!(ok.faults, Some(FaultSpec { mtbf_s: 5.0, mttr_s: 0.5 }));
        assert!(ok.brownout);
        // --brownout is a bare switch: a trailing word is a flag error.
        assert!(parse(&["--brownout", "yes"]).unwrap_err().contains("unknown flag"));

        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--routing", "chaotic"]).unwrap_err().contains("unknown routing policy"));
        assert!(parse(&["--loads", "0.5,oops"]).unwrap_err().contains("--loads"));
        assert!(parse(&["--faults", "5"]).unwrap_err().contains("mtbf"));
        assert!(parse(&["--faults", "0:1"]).unwrap_err().contains("positive"));
        assert!(parse(&["--replicas", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--batch", "0"]).unwrap_err().contains("positive"));
    }

    #[test]
    fn arrivals_flag_parses_with_a_poisson_default() {
        let d = parse(&[]).expect("defaults");
        assert_eq!(d.arrivals, Arrivals::Poisson);
        let ev = parse(&["--arrivals", "diurnal"]).expect("valid");
        assert_eq!(ev.arrivals, Arrivals::Diurnal);
        assert!(parse(&["--arrivals", "tidal"]).unwrap_err().contains("unknown arrival process"));
    }

    #[test]
    fn tenancy_flags_default_off_and_parse_gracefully() {
        let d = parse(&[]).expect("defaults");
        assert_eq!(d.tenants, None, "tenancy stays off without a flag");
        assert!(d.tenancy().is_none());
        // --scheduler alone implies a single tenant, the pinned replay
        // configuration.
        let one = parse(&["--scheduler", "drr"]).expect("valid");
        assert_eq!(one.tenants, Some(1));
        assert_eq!(one.tenancy(), Some(TenancyConfig::equal_weight(1, SchedulerPolicy::Drr)));
        let many = parse(&["--tenants", "4", "--scheduler", "wfq"]).expect("valid");
        assert_eq!(many.tenancy(), Some(TenancyConfig::equal_weight(4, SchedulerPolicy::Wfq)));
        assert!(parse(&["--tenants", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--tenants", "many"]).unwrap_err().contains("--tenants"));
        assert!(parse(&["--scheduler", "chaos"]).unwrap_err().contains("unknown scheduler"));
    }

    #[test]
    fn multi_tenant_requests_are_striped_round_robin() {
        let args = parse(&["--tenants", "3", "--requests", "30"]).expect("valid");
        let case = mini_case();
        let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);
        let reqs = point_requests(&args, &spec, 50.0, 7);
        assert!(reqs.iter().all(|r| r.tenant == (r.id % 3) as u32));
        // Single-tenant parses leave the trace untouched (tenant 0 is
        // the default id), so the golden replay sees identical inputs.
        let one = parse(&["--scheduler", "drr", "--requests", "30"]).expect("valid");
        assert_eq!(point_requests(&one, &spec, 50.0, 7), {
            let off = parse(&["--requests", "30"]).expect("valid");
            point_requests(&off, &spec, 50.0, 7)
        });
    }

    #[test]
    fn diurnal_points_are_sorted_deterministic_and_distinct_from_poisson() {
        let mut args = parse(&["--arrivals", "diurnal", "--requests", "100"]).expect("valid");
        let case = mini_case();
        let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);
        let a = point_requests(&args, &spec, 50.0, 7);
        let b = point_requests(&args, &spec, 50.0, 7);
        assert_eq!(a, b, "diurnal traces are seeded");
        assert_eq!(a.len(), 100);
        assert!(a.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        args.arrivals = Arrivals::Poisson;
        let p = point_requests(&args, &spec, 50.0, 7);
        assert_ne!(a, p, "diurnal modulation changes the trace");
    }

    #[test]
    fn csv_header_carries_schema_version() {
        assert_eq!(SWEEP_COLUMNS.last(), Some(&"schema_version"));
        assert_eq!(SCHEMA_VERSION, 2, "bump this pin alongside the layout");
        // Header renders exactly as downstream plotting scripts expect.
        let t = cta_bench::CsvTable::new("serve_sweep", SWEEP_COLUMNS);
        assert!(t.to_csv().starts_with(
            "replicas,load,offered_rps,completed,shed,tput_rps,\
             goodput_rps,p50_ms,p99_ms,util,schema_version\n"
        ));
    }
}
