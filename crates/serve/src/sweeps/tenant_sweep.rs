//! Multi-tenant isolation sweep: goodput, tail latency and Jain
//! fairness versus tenant skew × scheduler policy × scale-out policy.
//!
//! This is the headline experiment for the `cta-tenancy` subsystem. A
//! Zipf tenant mix ([`cta_workloads::TenantMix`]) stamps a seeded
//! Poisson trace so a few hot tenants offer most of the traffic, every
//! request carries a deadline a few multiples of the solo service time,
//! and the fleet is driven past saturation (`--load` > 1). FIFO then
//! serves tenants in proportion to what they *offer* — the hot tenants
//! flood the shared queue and cold tenants starve behind them — while
//! DRR/WFQ serve tenants in proportion to their *weights*, so equal
//! weights mean equal goodput regardless of skew. Jain's fairness index
//! over per-tenant goodput turns that into one number per point: the
//! acceptance bar for the subsystem is DRR ≥ 0.95 where FIFO < 0.7 at
//! 16:1 skew (`crates/serve/tests/tenancy.rs` pins it; this sweep shows
//! the same separation as data).
//!
//! The flags and their defaults are declared once, in the `FLAGS` table
//! below; the usage text printed on a malformed invocation is generated
//! from it.
//!
//! The grid is `skew × scheduler × autoscale`. Backpressure is `hold`
//! throughout — full replica queues exert backpressure into the fair
//! queue instead of shedding, which is what makes the scheduler's
//! drain order decide who gets served. `--quota rps:burst` arms the
//! per-tenant token bucket (off by default) and `--autoscale reactive`
//! runs each point on the deterministic autoscaler (min = half the
//! fleet), so its `scale_ups`/`final_active` columns show the fleet
//! breathing with the offered load.
//!
//! **Outputs.** The stdout table and `results/tenant_sweep.{csv,json}`
//! are deterministic for a fixed `--seed` at any `--jobs` value; the
//! JSON's `engine` key is always `"event"`, the one fleet driver.
//! Wall-clock
//! throughput is *not* deterministic and is written separately to
//! `results/BENCH_tenancy.json` (one entry per point with `wall_s` and
//! `events_per_sec`; run with `--jobs 1` for uncontended numbers).
//! With `--trace <path>` the final point is re-run traced; held
//! arrivals land on the tenancy telemetry lane
//! ([`cta_telemetry::Module::Tenancy`]) as per-tenant backlog tracks.
//!
//! CI runs the smoke configuration of this sweep, checks the DRR/FIFO
//! fairness separation on the emitted CSV, and uploads the BENCH
//! sidecar; see `.github/workflows/ci.yml`.

use std::process::ExitCode;
use std::sync::Mutex;

use cta_bench::{parse_num, BenchSidecar, Flag, Flags, JsonValue, SCHEMA_VERSION};
use cta_sim::{CtaSystem, SystemConfig};
use cta_workloads::{case_task, mini_case, TenantMix};

use crate::harness::{export_trace, Harness, PointOutput, SweepSpec};
use crate::{
    poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, AutoscalePolicy,
    Backpressure, BatchPolicy, CostModel, FleetConfig, LoadSpec, QosClass, QuotaPolicy,
    RoutingPolicy, SchedulerPolicy, ServeRequest, TenancyConfig,
};

/// The sweep's own flags and defaults; the harness appends the shared
/// `--jobs`, `--kernels` and `--pool-trace`.
const FLAGS: &[Flag] = &[
    Flag::value("--tenants", "16"),
    Flag::value("--skew", "0,1"),
    Flag::value("--scheduler", "fifo,drr,wfq"),
    Flag::value("--autoscale", "none"),
    Flag::value("--replicas", "2"),
    Flag::value("--load", "6.0"),
    Flag::value("--requests", "1200"),
    Flag::value("--seed", "7"),
    Flag::optional("--quota", "<rps>:<burst>"),
    Flag::value("--deadline-factor", "40"),
    Flag::value("--batch", "2"),
    Flag::value("--queue-depth", "2"),
    Flag::optional("--trace", "<path.json>"),
];

/// CSV/stdout column layout; the trailing `schema_version` column repeats
/// [`cta_bench::SCHEMA_VERSION`] on every row.
const SWEEP_COLUMNS: &[&str] = &[
    "skew",
    "scheduler",
    "autoscale",
    "offered_rps",
    "completed",
    "shed",
    "quota_shed",
    "goodput_rps",
    "p99_ms",
    "fairness",
    "max_slowdown",
    "scale_ups",
    "final_active",
    "schema_version",
];

/// Scale-out policies the `--autoscale` axis can enumerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalePolicy {
    /// Fixed fleet: every replica enabled for the whole run.
    None,
    /// [`AutoscalePolicy::reactive`] between half the fleet and the
    /// full fleet, warmup a few solo service times.
    Reactive,
}

impl ScalePolicy {
    fn label(&self) -> &'static str {
        match self {
            ScalePolicy::None => "none",
            ScalePolicy::Reactive => "reactive",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(ScalePolicy::None),
            "reactive" => Some(ScalePolicy::Reactive),
            _ => None,
        }
    }
}

/// Parses a `--quota <rps>:<burst>` token bucket.
fn parse_quota(v: &str) -> Result<QuotaPolicy, String> {
    let (rate, burst) =
        v.split_once(':').ok_or_else(|| format!("--quota wants <rps>:<burst>, got {v:?}"))?;
    let rate: f64 = parse_num(rate, "--quota", "a number for rps")?;
    let burst: f64 = parse_num(burst, "--quota", "a number for burst")?;
    if !(rate > 0.0 && rate.is_finite() && burst > 0.0 && burst.is_finite()) {
        return Err("--quota rps and burst must be positive and finite".into());
    }
    Ok(QuotaPolicy::new(rate, burst))
}

#[derive(Debug)]
struct Args {
    tenants: u32,
    skews: Vec<f64>,
    schedulers: Vec<SchedulerPolicy>,
    autoscale: Vec<ScalePolicy>,
    replicas: usize,
    load: f64,
    requests: usize,
    seed: u64,
    quota: Option<QuotaPolicy>,
    deadline_factor: f64,
    batch: usize,
    queue_depth: usize,
    trace: Option<String>,
}

impl Args {
    fn from_flags(f: &Flags) -> Result<Self, String> {
        let args = Args {
            tenants: f.num("--tenants", "an integer")?,
            skews: f.list("--skew", "numbers")?,
            schedulers: f.choices(
                "--scheduler",
                "scheduler",
                "fifo|drr|wfq",
                SchedulerPolicy::parse,
            )?,
            autoscale: f.choices(
                "--autoscale",
                "autoscale policy",
                "none|reactive",
                ScalePolicy::parse,
            )?,
            replicas: f.num("--replicas", "an integer")?,
            load: f.num("--load", "a number")?,
            requests: f.num("--requests", "an integer")?,
            seed: f.num("--seed", "an integer")?,
            quota: f.opt("--quota", parse_quota)?,
            deadline_factor: f.num("--deadline-factor", "a number")?,
            batch: f.num("--batch", "an integer")?,
            queue_depth: f.num("--queue-depth", "an integer")?,
            trace: f.opt_text("--trace"),
        };
        if args.tenants == 0 {
            return Err("--tenants must be positive".into());
        }
        if args.skews.is_empty() || args.skews.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err("--skew must be a non-empty list of non-negative numbers".into());
        }
        if args.schedulers.is_empty() {
            return Err("--scheduler must name at least one policy".into());
        }
        if args.autoscale.is_empty() {
            return Err("--autoscale must name at least one policy".into());
        }
        if args.replicas == 0 || args.requests == 0 || args.batch == 0 || args.queue_depth == 0 {
            return Err("--replicas, --requests, --batch and --queue-depth must be positive".into());
        }
        if !(args.load > 0.0 && args.load.is_finite()) {
            return Err("--load must be positive and finite".into());
        }
        if !(args.deadline_factor > 0.0 && args.deadline_factor.is_finite()) {
            return Err("--deadline-factor must be positive and finite".into());
        }
        Ok(args)
    }
}

/// The binary entry point: parse `argv` (plus the shared harness flags)
/// and run the sweep; malformed flags print the usage text to stderr and
/// exit non-zero.
pub fn main(argv: impl Iterator<Item = String>) -> ExitCode {
    SweepSpec::new("tenant_sweep").flags(FLAGS).columns(SWEEP_COLUMNS).main(
        argv,
        Args::from_flags,
        run,
    )
}

/// One grid point: skew × scheduler × scale-out policy.
type Point = (usize, f64, SchedulerPolicy, ScalePolicy);

/// The Poisson trace for one point, Zipf-stamped with tenant ids and
/// deadlined at `deadline_factor` solo service times. Priority 100
/// deliberately sits below the admission depth-exemption threshold —
/// every tenant faces the same queue-depth and deadline policy, so the
/// scheduler alone decides who is served.
fn point_requests(args: &Args, spec: &LoadSpec, skew: f64, solo: f64) -> Vec<ServeRequest> {
    const TENANT_SLO: &str = "tenant-slo";
    let class =
        QosClass { name: TENANT_SLO, priority: 100, deadline_s: Some(args.deadline_factor * solo) };
    let rate = args.load * args.replicas as f64 / solo;
    let mix = TenantMix::new(args.tenants, skew);
    let owners = mix.assign(args.requests, args.seed);
    let mut spec = *spec;
    spec.class = class;
    poisson_requests(&spec, args.requests, rate, args.seed)
        .into_iter()
        .zip(owners)
        .map(|(r, tenant)| r.with_tenant(tenant))
        .collect()
}

fn point_config(
    args: &Args,
    scheduler: SchedulerPolicy,
    scale: ScalePolicy,
    solo: f64,
) -> FleetConfig {
    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), args.replicas);
    cfg.routing = RoutingPolicy::JoinShortestQueue;
    cfg.batch = BatchPolicy::up_to(args.batch);
    cfg.admission = AdmissionPolicy::bounded(args.queue_depth);
    let mut tenancy = TenancyConfig::equal_weight(args.tenants, scheduler);
    tenancy.backpressure = Backpressure::Hold;
    tenancy.quota = args.quota;
    if scale == ScalePolicy::Reactive {
        let min = (args.replicas / 2).max(1);
        tenancy.autoscale = Some(AutoscalePolicy::reactive(min, args.replicas, 8.0 * solo));
    }
    cfg.tenancy = Some(tenancy);
    cfg
}

fn run(h: &Harness<Args>) {
    let args = h.args();
    let case = mini_case();
    let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);

    let system = CtaSystem::new(SystemConfig::paper());
    let mut cost = CostModel::new();
    let probe = poisson_requests(&spec, 1, 1.0, args.seed);
    let solo = cost.request_service_s(&system, &probe[0]);

    // Wall-clock measurements per point, collected out-of-band so the
    // pinned CSV/JSON stay deterministic. (grid index, events, wall_s).
    let timings: Mutex<Vec<(usize, u64, f64)>> = Mutex::new(Vec::new());

    let mut grid: Vec<Point> = Vec::new();
    for &skew in &args.skews {
        for &scheduler in &args.schedulers {
            for &scale in &args.autoscale {
                grid.push((grid.len(), skew, scheduler, scale));
            }
        }
    }

    h.run_grid(
        &format!(
            "Tenant sweep — {} tenants, {} replicas @ load {:.2}, \
             solo service {:.3} ms",
            args.tenants,
            args.replicas,
            args.load,
            solo * 1e3
        ),
        &grid,
        |&(index, skew, scheduler, scale)| {
            let mut out = PointOutput::new();
            let requests = point_requests(args, &spec, skew, solo);
            let cfg = point_config(args, scheduler, scale, solo);
            let rate = args.load * args.replicas as f64 / solo;
            let start = std::time::Instant::now();
            let report = simulate_fleet(&cfg, &requests);
            let wall_s = start.elapsed().as_secs_f64();
            timings.lock().expect("timings").push((index, report.events_processed, wall_s));
            let m = &report.metrics;
            assert_eq!(m.completed + m.shed, args.requests, "accounting identity");
            let t = m.tenancy.as_ref().expect("tenancy stats reported");
            let p99 = m.latency.as_ref().map_or(f64::NAN, |l| l.p99_s);
            out.row(vec![
                format!("{skew:.2}"),
                scheduler.label().to_string(),
                scale.label().to_string(),
                format!("{rate:.1}"),
                m.completed.to_string(),
                m.shed.to_string(),
                t.quota_shed.to_string(),
                format!("{:.1}", m.goodput_rps),
                format!("{:.3}", p99 * 1e3),
                format!("{:.3}", t.fairness_index),
                format!("{:.2}", t.max_slowdown),
                t.scale_ups.to_string(),
                t.final_active.to_string(),
                SCHEMA_VERSION.to_string(),
            ]);
            out.point(JsonValue::obj(vec![
                ("skew", JsonValue::Num(skew)),
                ("scheduler", JsonValue::Str(scheduler.label().into())),
                ("autoscale", JsonValue::Str(scale.label().into())),
                ("offered_rps", JsonValue::Num(rate)),
                ("completed", JsonValue::Int(m.completed as i64)),
                ("shed", JsonValue::Int(m.shed as i64)),
                ("quota_shed", JsonValue::Int(t.quota_shed as i64)),
                ("goodput_rps", JsonValue::Num(m.goodput_rps)),
                ("p99_s", JsonValue::Num(p99)),
                ("fairness_index", JsonValue::Num(t.fairness_index)),
                ("max_slowdown", JsonValue::Num(t.max_slowdown)),
                ("scale_ups", JsonValue::Int(t.scale_ups as i64)),
                ("scale_downs", JsonValue::Int(t.scale_downs as i64)),
                ("final_active", JsonValue::Int(t.final_active as i64)),
                ("events", JsonValue::Int(report.events_processed as i64)),
            ]));
            out
        },
        |json| {
            json.set("experiment", JsonValue::Str("tenant_sweep".into()))
                .set("case", JsonValue::Str(case.name()))
                .set("engine", JsonValue::Str("event".into()))
                .set("tenants", JsonValue::Int(args.tenants as i64))
                .set("replicas", JsonValue::Int(args.replicas as i64))
                .set("load", JsonValue::Num(args.load))
                .set("solo_service_s", JsonValue::Num(solo))
                .set("requests", JsonValue::Int(args.requests as i64))
                .set("deadline_factor", JsonValue::Num(args.deadline_factor))
                .set("backpressure", JsonValue::Str(Backpressure::Hold.label().into()))
                .set(
                    "quota",
                    match &args.quota {
                        Some(q) => JsonValue::obj(vec![
                            ("rate_rps", JsonValue::Num(q.rate_rps)),
                            ("burst", JsonValue::Num(q.burst)),
                        ]),
                        None => JsonValue::Null,
                    },
                )
                .set("routing", JsonValue::Str(RoutingPolicy::JoinShortestQueue.label().into()))
                .set("batch", JsonValue::Int(args.batch as i64))
                .set("queue_depth", JsonValue::Int(args.queue_depth as i64))
                .set("seed", JsonValue::Int(args.seed as i64));
        },
    );

    // Wall-clock throughput sidecar: explicitly nondeterministic, so it
    // lives in its own BENCH_ report instead of the pinned files. The
    // sidecar merges one run per (git SHA, date) so the file keeps a
    // trajectory across PRs instead of only the latest numbers.
    let mut measured = timings.into_inner().expect("timings");
    measured.sort_unstable_by_key(|&(index, _, _)| index);
    let mut bench = BenchSidecar::new("BENCH_tenancy");
    bench
        .set("experiment", JsonValue::Str("tenant_sweep".into()))
        .set("engine", JsonValue::Str("event".into()))
        .set("tenants", JsonValue::Int(args.tenants as i64))
        .set("replicas", JsonValue::Int(args.replicas as i64))
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
                    .map(|&(index, events, wall_s)| {
                        let (_, skew, scheduler, scale) = grid[index];
                        JsonValue::obj(vec![
                            ("skew", JsonValue::Num(skew)),
                            ("scheduler", JsonValue::Str(scheduler.label().into())),
                            ("autoscale", JsonValue::Str(scale.label().into())),
                            ("events", JsonValue::Int(events as i64)),
                            ("wall_s", JsonValue::Num(wall_s)),
                            ("events_per_sec", JsonValue::Num(events as f64 / wall_s.max(1e-12))),
                        ])
                    })
                    .collect(),
            ),
        );
    bench.save();

    // Telemetry pass: re-run the final point traced. Held arrivals show
    // up as per-tenant backlog counters on the tenancy lane.
    if let Some(path) = &args.trace {
        let &(_, skew, scheduler, scale) = grid.last().expect("non-empty sweep");
        let requests = point_requests(args, &spec, skew, solo);
        let cfg = point_config(args, scheduler, scale, solo);
        export_trace(
            path,
            &format!(
                "Trace — skew {skew:.2}, {} scheduler, autoscale {} → {path}",
                scheduler.label(),
                scale.label()
            ),
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
        assert_eq!(ok.tenants, 16);
        assert_eq!(ok.skews, vec![0.0, 1.0]);
        assert_eq!(
            ok.schedulers,
            vec![SchedulerPolicy::Fifo, SchedulerPolicy::Drr, SchedulerPolicy::Wfq]
        );
        assert_eq!(ok.autoscale, vec![ScalePolicy::None]);
        assert!(ok.quota.is_none());
        let full = parse(&[
            "--tenants",
            "8",
            "--skew",
            "0,0.5,1.5",
            "--scheduler",
            "drr,wfq",
            "--autoscale",
            "none,reactive",
            "--quota",
            "100:4",
        ])
        .expect("valid");
        assert_eq!(full.tenants, 8);
        assert_eq!(full.autoscale, vec![ScalePolicy::None, ScalePolicy::Reactive]);
        assert_eq!(full.quota, Some(QuotaPolicy::new(100.0, 4.0)));

        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--tenants", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--tenants", "many"]).unwrap_err().contains("--tenants"));
        assert!(parse(&["--skew", "-1"]).unwrap_err().contains("non-negative"));
        assert!(parse(&["--skew", "0,oops"]).unwrap_err().contains("--skew"));
        assert!(parse(&["--scheduler", "chaos"]).unwrap_err().contains("unknown scheduler"));
        assert!(parse(&["--autoscale", "wild"]).unwrap_err().contains("unknown autoscale"));
        assert!(parse(&["--quota", "100"]).unwrap_err().contains("<rps>:<burst>"));
        assert!(parse(&["--quota", "0:4"]).unwrap_err().contains("positive"));
        assert!(parse(&["--load", "-2"]).unwrap_err().contains("positive"));
        assert!(parse(&["--deadline-factor", "0"]).unwrap_err().contains("positive"));
    }

    #[test]
    fn point_requests_are_zipf_stamped_and_deadlined() {
        let args = parse(&["--tenants", "4", "--skew", "1", "--requests", "200"]).expect("valid");
        let case = mini_case();
        let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);
        let solo = 0.01;
        let a = point_requests(&args, &spec, 1.0, solo);
        assert_eq!(a, point_requests(&args, &spec, 1.0, solo), "seeded");
        assert_eq!(a.len(), 200);
        assert!(a.iter().all(|r| r.tenant < 4));
        assert!(a.iter().all(|r| r.class.deadline_s == Some(args.deadline_factor * solo)));
        assert!(
            a.iter().all(|r| r.class.priority == 100),
            "below the depth-exemption threshold: no tenant bypasses admission"
        );
        // Zipf skew 1 over 4 tenants: tenant 0 is hottest.
        let hot = a.iter().filter(|r| r.tenant == 0).count();
        let cold = a.iter().filter(|r| r.tenant == 3).count();
        assert!(hot > 2 * cold, "skew shows in the stamp ({hot} vs {cold})");
    }

    #[test]
    fn csv_header_carries_schema_version() {
        assert_eq!(SWEEP_COLUMNS.last(), Some(&"schema_version"));
        let t = cta_bench::CsvTable::new("tenant_sweep", SWEEP_COLUMNS);
        assert!(t.to_csv().starts_with(
            "skew,scheduler,autoscale,offered_rps,completed,shed,quota_shed,\
             goodput_rps,p99_ms,fairness,max_slowdown,scale_ups,final_active,schema_version\n"
        ));
    }
}
