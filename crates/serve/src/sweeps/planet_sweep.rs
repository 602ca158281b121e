//! Planet-scale fleet sweep: goodput, tail latency and availability for
//! thousand-replica fleets under a diurnal + flash-crowd arrival
//! pattern, driven by the calendar-queue event core.
//!
//! The fleet driver pops exactly the due event from a calendar queue in
//! O(1) amortized time instead of rescanning every replica for the next
//! due instant (the reference scan kept as a test oracle,
//! `cta_serve::reference`), which is what makes thousand-replica sweeps
//! practical. Routing is fixed to round-robin —
//! the only O(1)-per-arrival policy; JSQ/LOW would reintroduce a
//! full-fleet scan on every admission and dominate the profile.
//!
//! The flags and their defaults are declared once, in the `FLAGS` table
//! below; the usage text printed on a malformed invocation is generated
//! from it.
//!
//! Each point simulates `replicas × requests-per-replica` requests from
//! a seeded diurnal trace ([`cta_workloads::DiurnalSpec`]): the offered
//! rate `load × replicas / solo_service` is the daytime rate of a
//! four-cycle day/night pattern (night at 0.25x) with a 4x flash crowd
//! early in the second cycle. `--mtbf-factor` follows the
//! `degradation_sweep` span-relative convention (`inf` disables
//! faults), so availability is exercised, not just reported as 1.
//!
//! **Outputs.** The stdout table and `results/planet_sweep.{csv,json}`
//! are deterministic for a fixed `--seed` at any `--jobs` value — the
//! `events` column counts handler invocations, which the reference scan
//! agrees with exactly. The JSON's `engine` key is always `"event"`.
//! Wall-clock event throughput is *not* deterministic, so it is kept
//! out of the pinned reports and written separately to
//! `results/BENCH_events.json` (one entry per point with `wall_s` and
//! `events_per_sec`; run with `--jobs 1` for uncontended numbers).
//! With `--trace <path>` the final point is re-run traced and the
//! export gains an `events` lane ([`cta_telemetry::Module::Events`])
//! carrying the sampled calendar-queue occupancy as a counter track.
//!
//! CI runs the 1k-replica smoke configuration of this sweep and
//! validates the exported trace; see `.github/workflows/ci.yml`.

use std::process::ExitCode;
use std::sync::Mutex;

use cta_bench::{BenchSidecar, Flag, Flags, JsonValue, SCHEMA_VERSION};
use cta_sim::{CtaSystem, SystemConfig};
use cta_telemetry::{Module, TraceSink, TrackId};
use cta_workloads::{case_task, mini_case, DiurnalSpec, FlashCrowd};

use crate::harness::{export_trace, Harness, PointOutput, SweepSpec};
use crate::{
    poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, BatchPolicy,
    CostModel, FaultPlan, FleetConfig, LoadSpec, RoutingPolicy, ServeRequest,
};

/// The sweep's own flags and defaults; the harness appends the shared
/// `--jobs`, `--kernels` and `--pool-trace`.
const FLAGS: &[Flag] = &[
    Flag::value("--replicas", "250,1000"),
    Flag::value("--load", "0.7"),
    Flag::value("--requests-per-replica", "4"),
    Flag::value("--seed", "7"),
    Flag::value("--mtbf-factor", "1"),
    Flag::value("--mttr-factor", "0.02"),
    Flag::value("--batch", "4"),
    Flag::value("--queue-depth", "64"),
    Flag::optional("--trace", "<path.json>"),
];

/// CSV/stdout column layout; the trailing `schema_version` column repeats
/// [`cta_bench::SCHEMA_VERSION`] on every row.
const SWEEP_COLUMNS: &[&str] = &[
    "replicas",
    "requests",
    "offered_rps",
    "completed",
    "shed",
    "goodput_rps",
    "p50_ms",
    "p99_ms",
    "min_avail",
    "events",
    "schema_version",
];

#[derive(Debug)]
struct Args {
    replicas: Vec<usize>,
    load: f64,
    requests_per_replica: usize,
    seed: u64,
    mtbf_factor: f64,
    mttr_factor: f64,
    batch: usize,
    queue_depth: usize,
    trace: Option<String>,
}

impl Args {
    fn from_flags(f: &Flags) -> Result<Self, String> {
        let args = Args {
            replicas: f.list("--replicas", "integers")?,
            load: f.num("--load", "a number")?,
            requests_per_replica: f.num("--requests-per-replica", "an integer")?,
            seed: f.num("--seed", "an integer")?,
            mtbf_factor: f.num("--mtbf-factor", "a number")?,
            mttr_factor: f.num("--mttr-factor", "a number")?,
            batch: f.num("--batch", "an integer")?,
            queue_depth: f.num("--queue-depth", "an integer")?,
            trace: f.opt_text("--trace"),
        };
        if args.replicas.is_empty() || args.replicas.contains(&0) {
            return Err("--replicas must be a non-empty list of positive integers".into());
        }
        if args.requests_per_replica == 0 || args.batch == 0 || args.queue_depth == 0 {
            return Err("--requests-per-replica, --batch and --queue-depth must be positive".into());
        }
        if !(args.load > 0.0 && args.load.is_finite()) {
            return Err("--load must be positive and finite".into());
        }
        // `inf` is a legal MTBF factor (= fault-free run).
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
    SweepSpec::new("planet_sweep").flags(FLAGS).columns(SWEEP_COLUMNS).main(
        argv,
        Args::from_flags,
        run,
    )
}

/// The diurnal + flash-crowd trace for one fleet size (the serve_sweep
/// shape: four day/night cycles at night 0.25x, 4x flash crowd early in
/// the second cycle).
fn point_requests(spec: &LoadSpec, count: usize, rate: f64, seed: u64) -> Vec<ServeRequest> {
    let period = (count as f64 / rate / 4.0).max(1e-6);
    let diurnal = DiurnalSpec::new(rate, period, 0.6, 0.25).with_flash(FlashCrowd::new(
        1.1 * period,
        0.2 * period,
        4.0,
    ));
    diurnal
        .arrival_times(count, seed)
        .into_iter()
        .enumerate()
        .map(|(id, t)| {
            ServeRequest::uniform(id as u64, t, spec.class, spec.task, spec.layers, spec.heads)
        })
        .collect()
}

fn point_config(args: &Args, replicas: usize, requests: &[ServeRequest]) -> FleetConfig {
    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), replicas);
    cfg.routing = RoutingPolicy::RoundRobin;
    cfg.batch = BatchPolicy::up_to(args.batch);
    cfg.admission = AdmissionPolicy::bounded(args.queue_depth);
    if args.mtbf_factor.is_finite() {
        let span = requests.last().map(|r| r.arrival_s).unwrap_or(0.0).max(1e-6);
        cfg.faults = FaultPlan::seeded(
            replicas,
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

    let system = CtaSystem::new(SystemConfig::paper());
    let mut cost = CostModel::new();
    let probe = poisson_requests(&spec, 1, 1.0, args.seed);
    let solo = cost.request_service_s(&system, &probe[0]);

    // Wall-clock measurements per point, collected out-of-band so the
    // pinned CSV/JSON stay deterministic. (grid index, events, wall_s).
    let timings: Mutex<Vec<(usize, u64, f64)>> = Mutex::new(Vec::new());

    let grid: Vec<(usize, usize)> = args.replicas.iter().copied().enumerate().collect();

    h.run_grid(
        &format!(
            "Planet sweep — diurnal + flash crowd @ load {:.2}, \
             {} requests/replica, solo service {:.3} ms",
            args.load,
            args.requests_per_replica,
            solo * 1e3
        ),
        &grid,
        |&(index, replicas)| {
            let mut out = PointOutput::new();
            let count = replicas * args.requests_per_replica;
            let rate = args.load * replicas as f64 / solo;
            let requests = point_requests(&spec, count, rate, args.seed);
            let cfg = point_config(args, replicas, &requests);
            let start = std::time::Instant::now();
            let report = simulate_fleet(&cfg, &requests);
            let wall_s = start.elapsed().as_secs_f64();
            timings.lock().expect("timings").push((index, report.events_processed, wall_s));
            let m = &report.metrics;
            assert_eq!(m.completed + m.shed, count, "accounting identity");
            let (p50, p99) =
                m.latency.as_ref().map_or((f64::NAN, f64::NAN), |l| (l.p50_s, l.p99_s));
            let min_avail =
                m.per_replica_availability.iter().copied().fold(f64::INFINITY, f64::min);
            out.row(vec![
                replicas.to_string(),
                count.to_string(),
                format!("{rate:.1}"),
                m.completed.to_string(),
                m.shed.to_string(),
                format!("{:.1}", m.goodput_rps),
                format!("{:.3}", p50 * 1e3),
                format!("{:.3}", p99 * 1e3),
                format!("{min_avail:.3}"),
                report.events_processed.to_string(),
                SCHEMA_VERSION.to_string(),
            ]);
            let mut point = JsonValue::obj(vec![
                ("replicas", JsonValue::Int(replicas as i64)),
                ("requests", JsonValue::Int(count as i64)),
                ("offered_rps", JsonValue::Num(rate)),
                ("completed", JsonValue::Int(m.completed as i64)),
                ("shed", JsonValue::Int(m.shed as i64)),
                ("shed_rate", JsonValue::Num(m.shed_rate)),
                ("goodput_rps", JsonValue::Num(m.goodput_rps)),
                ("p50_s", JsonValue::Num(p50)),
                ("p99_s", JsonValue::Num(p99)),
                ("min_availability", JsonValue::Num(min_avail)),
                ("events", JsonValue::Int(report.events_processed as i64)),
                ("makespan_s", JsonValue::Num(m.makespan_s)),
            ]);
            if !report.event_queue_samples.is_empty() {
                let peak = report.event_queue_samples.iter().map(|&(_, d)| d).max().unwrap_or(0);
                if let JsonValue::Obj(fields) = &mut point {
                    fields.push(("peak_event_queue".into(), JsonValue::Int(peak as i64)));
                }
            }
            out.point(point);
            out
        },
        |json| {
            json.set("experiment", JsonValue::Str("planet_sweep".into()))
                .set("case", JsonValue::Str(case.name()))
                .set("engine", JsonValue::Str("event".into()))
                .set("arrivals", JsonValue::Str("diurnal".into()))
                .set("load", JsonValue::Num(args.load))
                .set("solo_service_s", JsonValue::Num(solo))
                .set("requests_per_replica", JsonValue::Int(args.requests_per_replica as i64))
                .set(
                    "mtbf_factor",
                    if args.mtbf_factor.is_finite() {
                        JsonValue::Num(args.mtbf_factor)
                    } else {
                        JsonValue::Null
                    },
                )
                .set("mttr_factor", JsonValue::Num(args.mttr_factor))
                .set("routing", JsonValue::Str(RoutingPolicy::RoundRobin.label().into()))
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
    let mut bench = BenchSidecar::new("BENCH_events");
    bench
        .set("experiment", JsonValue::Str("planet_sweep".into()))
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
                    .map(|&(index, events, wall_s)| {
                        JsonValue::obj(vec![
                            ("replicas", JsonValue::Int(args.replicas[index] as i64)),
                            ("events", JsonValue::Int(events as i64)),
                            ("wall_s", JsonValue::Num(wall_s)),
                            ("events_per_sec", JsonValue::Num(events as f64 / wall_s.max(1e-12))),
                        ])
                    })
                    .collect(),
            ),
        );
    bench.save();

    // Telemetry pass: re-run the largest fleet traced, then lay the
    // sampled calendar-queue occupancy onto the `events` lane as a
    // counter track next to the replica track groups.
    if let Some(path) = &args.trace {
        let replicas = *args.replicas.last().expect("non-empty sweep");
        let count = replicas * args.requests_per_replica;
        let rate = args.load * replicas as f64 / solo;
        let requests = point_requests(&spec, count, rate, args.seed);
        let cfg = point_config(args, replicas, &requests);
        export_trace(
            path,
            &format!("Trace — {replicas} replicas, diurnal + flash crowd → {path}"),
            |sink| {
                let report = simulate_fleet_traced(&cfg, &requests, sink);
                let track = TrackId::new(0, Module::Events);
                for &(t, depth) in &report.event_queue_samples {
                    sink.counter(track, "event_queue_depth", t, depth as f64);
                }
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
        assert_eq!(ok.replicas, vec![250, 1000]);
        let healthy = parse(&["--mtbf-factor", "inf"]).expect("valid");
        assert!(!healthy.mtbf_factor.is_finite());

        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--replicas", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--requests-per-replica", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--load", "-1"]).unwrap_err().contains("positive"));
        assert!(parse(&["--mtbf-factor", "nan"]).unwrap_err().contains("positive"));
    }

    #[test]
    fn csv_header_carries_schema_version() {
        assert_eq!(SWEEP_COLUMNS.last(), Some(&"schema_version"));
        assert_eq!(SCHEMA_VERSION, 2, "bump this pin alongside the layout");
    }

    #[test]
    fn point_trace_scales_with_the_fleet_and_stays_deterministic() {
        let case = mini_case();
        let spec = LoadSpec::standard(case_task(&case), case.model.layers, case.model.heads);
        let a = point_requests(&spec, 64, 5_000.0, 7);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0].arrival_s < w[1].arrival_s));
        assert_eq!(a, point_requests(&spec, 64, 5_000.0, 7));
    }
}
