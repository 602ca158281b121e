//! Randomized chaos sweep over the serving fleet: each seed expands to a
//! fault composition × feature draw ([`cta_chaos::ChaosScenario`]), runs
//! on the fleet driver, and is checked against the full invariant
//! library, including bitwise equivalence with the reference scan
//! (`cta_serve::reference`, the test oracle). Any failing seed is delta-debugged down to a minimal
//! replayable repro before the process exits non-zero.
//!
//! The flags and their defaults are declared once, in the `FLAGS` table
//! below; the usage text printed on a malformed invocation is generated
//! from it.
//!
//! **Outputs.** `results/chaos_sweep.{csv,json}` are deterministic for a
//! fixed flag set at any `--jobs` value; the JSON's `engine` key is
//! always `"both"` (driver plus oracle). On an invariant violation the
//! minimized scenario is written to `--repro-out` (replay it with
//! `--replay`).
//!
//! `--inject-bug` is the self-test of the net: every run's report is
//! corrupted post-hoc ([`cta_chaos::Mutation::DropShed`]) and the sweep
//! *fails* unless the invariant library catches the corruption on some
//! seed and the shrinker reduces that seed to ≤ 5 fault events.

use std::process::ExitCode;
use std::sync::Mutex;

use cta_bench::{parse_num, Flag, Flags, SCHEMA_VERSION};
use cta_chaos::{run_chaos, shrink, ChaosParams, ChaosScenario, Mutation, Toggle, Violation};
use cta_serve::harness::{export_trace, Harness, PointOutput, SweepSpec};
use cta_serve::simulate_fleet_traced;
use cta_telemetry::{parse_json, JsonValue};

/// The sweep's own flags and defaults; the harness appends the shared
/// `--jobs` and `--pool-trace`.
const FLAGS: &[Flag] = &[
    Flag::value("--seeds", "64"),
    Flag::value("--seed0", "1"),
    Flag::value("--replicas-max", "4"),
    Flag::value("--zones", "3"),
    Flag::value("--requests-max", "96"),
    Flag::value("--chaos-faults", "crash,zone,partition,gray,slow,stall"),
    Flag::optional("--gray-severity", "S"),
    Flag::value("--chaos-tenancy", "mix"),
    Flag::value("--chaos-brownout", "mix"),
    Flag::value("--detector", "mix"),
    Flag::value("--chaos-sessions", "mix"),
    Flag::value("--repro-out", "results/chaos_repro.json"),
    Flag::switch("--inject-bug"),
    Flag::optional("--replay", "<repro.json>"),
    Flag::optional("--trace", "<path.json>"),
];

/// The `--chaos-faults` classes, in [`ChaosParams`] switch order:
/// crashes, zone outages, partitions, gray failures, slowdowns, link
/// stalls.
const FAULT_CLASSES: [&str; 6] = ["crash", "zone", "partition", "gray", "slow", "stall"];

/// CSV/stdout column layout; the trailing `schema_version` repeats
/// [`cta_bench::SCHEMA_VERSION`] on every row.
const SWEEP_COLUMNS: &[&str] = &[
    "seed",
    "replicas",
    "tenants",
    "brownout",
    "detector",
    "sessions",
    "plan_events",
    "offered",
    "completed",
    "shed",
    "quarantines",
    "false_quarantines",
    "det_latency_ms",
    "min_availability",
    "violations",
    "schema_version",
];

#[derive(Debug)]
struct Args {
    seeds: usize,
    seed0: u64,
    params: ChaosParams,
    inject: bool,
    replay: Option<String>,
    repro_out: String,
    trace: Option<String>,
}

impl Args {
    fn from_flags(f: &Flags) -> Result<Self, String> {
        let toggle = |name, what| f.choice(name, what, "on|off|mix", Toggle::parse);
        let faults = f.choices("--chaos-faults", "fault class", &FAULT_CLASSES.join("|"), |w| {
            FAULT_CLASSES.iter().position(|class| *class == w)
        })?;
        let has = |class| faults.contains(&class);
        let args = Args {
            seeds: f.num("--seeds", "an integer")?,
            seed0: f.num("--seed0", "an integer")?,
            params: ChaosParams {
                replicas_max: f.num("--replicas-max", "an integer")?,
                zones_max: f.num("--zones", "an integer")?,
                requests_max: f.num("--requests-max", "an integer")?,
                crashes: has(0),
                zone_outages: has(1),
                partitions: has(2),
                gray: has(3),
                gray_severity: f
                    .opt("--gray-severity", |s| parse_num(s, "--gray-severity", "a number"))?,
                slowdowns: has(4),
                link_stalls: has(5),
                tenancy: toggle("--chaos-tenancy", "tenancy mode")?,
                brownout: toggle("--chaos-brownout", "brownout mode")?,
                detector: toggle("--detector", "detector mode")?,
                sessions: toggle("--chaos-sessions", "sessions mode")?,
            },
            inject: f.switch("--inject-bug"),
            replay: f.opt_text("--replay"),
            repro_out: f.get("--repro-out", |s| Ok(s.to_string()))?,
            trace: f.opt_text("--trace"),
        };
        if args.seeds == 0 {
            return Err("--seeds must be positive".into());
        }
        args.params.validate()?;
        Ok(args)
    }
}

/// The binary entry point: parse `argv` (plus the shared harness flags)
/// and run the sweep; malformed flags print the usage text to stderr and
/// exit non-zero.
pub fn main() -> ExitCode {
    SweepSpec::new("chaos_sweep").flags(FLAGS).columns(SWEEP_COLUMNS).main(
        std::env::args().skip(1),
        Args::from_flags,
        run,
    )
}

/// Loads, reruns and re-checks a repro file. Exits
/// non-zero when the scenario still violates an invariant — so a repro
/// replay that *passes* after a fix is the fix's regression test.
fn replay(path: &str, mutation: Mutation) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });
    let value = parse_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });
    // Accept both the bare scenario and the repro envelope this binary
    // writes ({"scenario": ..., "violations": ...}).
    let sc =
        ChaosScenario::from_json(value.field("scenario").unwrap_or(&value)).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        });
    println!(
        "replaying seed {} — {} replicas, {} requests, {} fault events{}",
        sc.seed,
        sc.replicas,
        sc.requests,
        sc.plan_events(),
        if mutation == Mutation::DropShed { " (with injected bug)" } else { "" }
    );
    let outcome = run_chaos(&sc, mutation);
    if outcome.ok() {
        println!("replay passed: every invariant holds");
    } else {
        for v in &outcome.violations {
            eprintln!("violation — {v}");
        }
        std::process::exit(1);
    }
}

/// Writes the minimized scenario (plus the violations it reproduces) as
/// a replayable JSON repro.
fn write_repro(path: &str, sc: &ChaosScenario, violations: &[Violation]) {
    let value = JsonValue::obj(vec![
        ("schema_version", JsonValue::Int(SCHEMA_VERSION as i64)),
        ("scenario", sc.to_json()),
        (
            "violations",
            JsonValue::Arr(
                violations
                    .iter()
                    .map(|v| {
                        JsonValue::obj(vec![
                            ("invariant", JsonValue::Str(v.kind.label().into())),
                            ("detail", JsonValue::Str(v.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        }
    }
    std::fs::write(path, value.to_json()).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("[saved {path}]");
}

fn run(h: &Harness<Args>) {
    let args = h.args();
    let mutation = if args.inject { Mutation::DropShed } else { Mutation::None };

    // --replay: a single-scenario rerun, no sweep. The repro file itself
    // records whether it was minimized under the injected bug — the
    // caller passes --inject-bug again to reproduce that mode.
    if let Some(path) = &args.replay {
        replay(path, mutation);
        return;
    }

    let seeds: Vec<u64> = (0..args.seeds as u64).map(|i| args.seed0 + i).collect();

    // Failing scenarios and the simulated-event total, collected
    // out-of-band so the pinned CSV/JSON stay deterministic.
    let failures: Mutex<Vec<(u64, ChaosScenario, Vec<Violation>)>> = Mutex::new(Vec::new());
    let events_total = Mutex::new(0u64);

    h.run_grid(
        &format!(
            "Chaos sweep — {} seeds from {}, faults on ≤{} replicas{}",
            args.seeds,
            args.seed0,
            args.params.replicas_max,
            if args.inject { " [INJECTED BUG]" } else { "" }
        ),
        &seeds,
        |&seed| {
            let sc = ChaosScenario::sample(seed, &args.params);
            let outcome = run_chaos(&sc, mutation);
            *events_total.lock().expect("events") += outcome.events_processed;
            if !outcome.ok() {
                failures.lock().expect("failures").push((
                    seed,
                    sc.clone(),
                    outcome.violations.clone(),
                ));
            }
            let m = &outcome.metrics;
            let det = m.detector.clone().unwrap_or_default();
            let min_avail = m.per_replica_availability.iter().copied().fold(1.0f64, f64::min);
            let mut out = PointOutput::new();
            out.row(vec![
                seed.to_string(),
                sc.replicas.to_string(),
                sc.tenants.to_string(),
                (sc.brownout as u8).to_string(),
                (sc.detector as u8).to_string(),
                (sc.sessions as u8).to_string(),
                sc.plan_events().to_string(),
                m.offered.to_string(),
                m.completed.to_string(),
                m.shed.to_string(),
                det.quarantines.to_string(),
                det.false_quarantines.to_string(),
                format!("{:.3}", det.mean_detection_latency_s * 1e3),
                format!("{min_avail:.4}"),
                outcome.violations.len().to_string(),
                SCHEMA_VERSION.to_string(),
            ]);
            out.point(JsonValue::obj(vec![
                ("seed", JsonValue::Int(seed as i64)),
                ("replicas", JsonValue::Int(sc.replicas as i64)),
                ("tenants", JsonValue::Int(sc.tenants as i64)),
                ("brownout", JsonValue::Bool(sc.brownout)),
                ("detector", JsonValue::Bool(sc.detector)),
                ("sessions", JsonValue::Bool(sc.sessions)),
                ("plan_events", JsonValue::Int(sc.plan_events() as i64)),
                ("offered", JsonValue::Int(m.offered as i64)),
                ("completed", JsonValue::Int(m.completed as i64)),
                ("shed", JsonValue::Int(m.shed as i64)),
                ("quarantines", JsonValue::Int(det.quarantines as i64)),
                ("false_quarantines", JsonValue::Int(det.false_quarantines as i64)),
                ("mean_detection_latency_s", JsonValue::Num(det.mean_detection_latency_s)),
                ("max_detection_latency_s", JsonValue::Num(det.max_detection_latency_s)),
                ("min_availability", JsonValue::Num(min_avail)),
                (
                    "violations",
                    JsonValue::Arr(
                        outcome.violations.iter().map(|v| JsonValue::Str(v.to_string())).collect(),
                    ),
                ),
            ]));
            out
        },
        |json| {
            json.set("experiment", JsonValue::Str("chaos_sweep".into()))
                .set("engine", JsonValue::Str("both".into()))
                .set("seeds", JsonValue::Int(args.seeds as i64))
                .set("seed0", JsonValue::Int(args.seed0 as i64))
                .set("replicas_max", JsonValue::Int(args.params.replicas_max as i64))
                .set("zones_max", JsonValue::Int(args.params.zones_max as i64))
                .set("requests_max", JsonValue::Int(args.params.requests_max as i64))
                .set("tenancy", JsonValue::Str(args.params.tenancy.label().into()))
                .set("brownout", JsonValue::Str(args.params.brownout.label().into()))
                .set("detector", JsonValue::Str(args.params.detector.label().into()))
                .set("sessions", JsonValue::Str(args.params.sessions.label().into()))
                .set("inject_bug", JsonValue::Bool(args.inject));
        },
    );

    let events = events_total.into_inner().expect("events");
    let mut failing = failures.into_inner().expect("failures");
    failing.sort_unstable_by_key(|&(seed, _, _)| seed);

    if args.inject {
        // Self-test mode: the net MUST catch the corruption somewhere,
        // and the shrinker must reduce the catch to a tiny repro.
        let Some((seed, sc, violations)) = failing.into_iter().next() else {
            eprintln!(
                "self-test FAILED: injected conservation bug escaped all {} seeds",
                args.seeds
            );
            std::process::exit(1);
        };
        let min = shrink(&sc, |cand| !run_chaos(cand, mutation).ok());
        let min_violations = run_chaos(&min, mutation).violations;
        write_repro(&args.repro_out, &min, &min_violations);
        println!(
            "self-test OK: seed {seed} caught the injected bug ({}); shrunk {} -> {} fault \
             events, {} -> {} requests",
            violations[0],
            sc.plan_events(),
            min.plan_events(),
            sc.requests,
            min.requests
        );
        if min.plan_events() > 5 {
            eprintln!(
                "self-test FAILED: minimized repro still holds {} fault events (> 5)",
                min.plan_events()
            );
            std::process::exit(1);
        }
        return;
    }

    if let Some((seed, sc, violations)) = failing.first().cloned() {
        eprintln!(
            "{} of {} seeds violated invariants; first: seed {seed}",
            failing.len(),
            args.seeds
        );
        for v in &violations {
            eprintln!("violation — {v}");
        }
        let min = shrink(&sc, |cand| !run_chaos(cand, Mutation::None).ok());
        let min_violations = run_chaos(&min, Mutation::None).violations;
        write_repro(&args.repro_out, &min, &min_violations);
        eprintln!(
            "minimized to {} fault events / {} requests / {} replicas — replay with \
             `chaos_sweep --replay {}`",
            min.plan_events(),
            min.requests,
            min.replicas,
            args.repro_out
        );
        std::process::exit(1);
    }

    println!("all {} seeds passed every invariant ({events} simulated events)", args.seeds);

    // --trace: rerun the last seed's scenario traced.
    if let Some(path) = &args.trace {
        let sc = ChaosScenario::sample(args.seed0 + args.seeds as u64 - 1, &args.params);
        let trace = sc.trace();
        let cfg = sc.fleet_config();
        export_trace(path, &format!("Chaos trace — seed {}", sc.seed), |sink| {
            simulate_fleet_traced(&cfg, &trace, sink);
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
    fn defaults_match_the_sampler_defaults() {
        let args = parse(&[]).expect("defaults valid");
        assert_eq!(args.params, ChaosParams::default());
        assert_eq!((args.seeds, args.seed0, args.inject), (64, 1, false));
        assert_eq!(args.repro_out, "results/chaos_repro.json");
    }

    #[test]
    fn chaos_faults_is_independent_of_flag_order() {
        let after = parse(&["--zones", "5", "--chaos-tenancy", "on", "--chaos-faults", "gray"]);
        let before = parse(&["--chaos-faults", "gray", "--zones", "5", "--chaos-tenancy", "on"]);
        let (after, before) = (after.expect("valid").params, before.expect("valid").params);
        assert_eq!(after, before);
        assert!(after.gray && !after.crashes && !after.link_stalls);
        assert_eq!((after.zones_max, after.tenancy), (5, Toggle::On));
    }
}
