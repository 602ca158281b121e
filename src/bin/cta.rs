//! `cta` — command-line driver for the CTA reproduction.
//!
//! Each subcommand declares its flags once, in the `COMMANDS` table; the
//! usage text (printed for `cta` without arguments) is generated from it.
//! Everything the subcommands do is a thin veneer over the library; see
//! `examples/` for the same flows as code.

use std::process::ExitCode;

use cta::baselines::GpuModel;
use cta::serve::{replay_trace, simulate_fleet, FleetConfig, QosClass};
use cta::sim::{
    area_breakdown, poisson_trace, power_trace, schedule, schedule_ffn, sweep, trace_schedule,
    AreaModel, AttentionTask, CtaAccelerator, CtaSystem, EnergyModel, HwConfig, HwConfigError,
    SystemConfig, MAX_SA_WIDTH,
};
use cta::telemetry::{chrome_trace_json, validate_chrome_trace, AggregateReport, RingBufferSink};
use cta::workloads::{
    albert_large, bert_large, evaluate_case, gpt2_large, imdb, roberta_large, squad11, squad20,
    wikitext2, CtaClass, DatasetSpec, ModelSpec, OperatingTable, TestCase,
};
use cta::Parallelism;
use cta_bench::{parse_num, usage, Flag, Flags};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage_text());
            ExitCode::FAILURE
        }
    }
}

/// The self-attention task flags (`m = n`), see [`task_from_flags`].
const TASK: [Flag; 6] = [
    Flag::required("--n", "<len>"),
    Flag::required("--k0", "<k>"),
    Flag::required("--k1", "<k>"),
    Flag::required("--k2", "<k>"),
    Flag::value("--d", "64"),
    Flag::value("--l", "6"),
];

/// The accelerator flags, see [`hw_from_flags`]; `--pag` defaults to
/// twice the SA width.
const HW: [Flag; 2] = [Flag::value("--width-b", "8"), Flag::optional("--pag", "<2*width-b>")];

/// The accuracy-case flags shared by `evaluate` and `operating-point`.
const CASE: [Flag; 2] =
    [Flag::required("--model", "<name>"), Flag::required("--dataset", "<name>")];

/// One subcommand: its name, its flag table (the concatenation of these
/// groups) and what it runs.
struct Command {
    name: &'static str,
    flags: &'static [&'static [Flag]],
    run: fn(&Flags) -> Result<(), String>,
}

const COMMANDS: [Command; 8] = [
    Command { name: "simulate", flags: &[&TASK, &HW], run: cmd_simulate },
    Command {
        name: "evaluate",
        flags: &[
            &CASE,
            &[
                Flag::required("--bucket-width", "<w>"),
                Flag::value("--samples", "2"),
                Flag::optional("--seq-len", "<n>"),
            ],
        ],
        run: cmd_evaluate,
    },
    Command {
        name: "operating-point",
        flags: &[&CASE, &[Flag::required("--class", "<cta-0|cta-0.5|cta-1>")]],
        run: cmd_operating_point,
    },
    Command { name: "area", flags: &[&HW], run: cmd_area },
    Command { name: "sweep", flags: &[&TASK], run: cmd_sweep },
    Command {
        name: "ffn",
        flags: &[
            &[
                Flag::required("--n", "<len>"),
                Flag::required("--d-model", "<w>"),
                Flag::required("--d-ffn", "<w>"),
                // The attention half of the layer may be spelled alongside;
                // the FFN schedule ignores it but checks it like `simulate`.
                Flag::optional("--k0", "<k>"),
                Flag::optional("--k1", "<k>"),
                Flag::optional("--k2", "<k>"),
            ],
            &HW,
        ],
        run: cmd_ffn,
    },
    Command {
        name: "serve",
        flags: &[
            &TASK,
            &[
                Flag::required("--layers", "<L>"),
                Flag::required("--heads", "<H>"),
                Flag::required("--load", "<0..1.2>"),
            ],
        ],
        run: cmd_serve,
    },
    Command {
        name: "trace",
        flags: &[
            &TASK,
            &HW,
            &[Flag::optional("--out", "<trace.json>"), Flag::optional("--check", "<trace.json>")],
        ],
        run: cmd_trace,
    },
];

/// The usage text: one line per subcommand, generated from its table.
fn usage_text() -> String {
    let mut text = String::from("usage:");
    for command in &COMMANDS {
        text.push('\n');
        text.push_str(&usage(&format!("  cta {}", command.name), &command.flags.concat()));
    }
    text.push_str(
        "\n\nmodels:   bert-large roberta-large albert-large gpt2-large\n\
         datasets: squad1.1 squad2.0 imdb wikitext2",
    );
    text
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let command = COMMANDS
        .iter()
        .find(|c| c.name == cmd)
        .ok_or_else(|| format!("unknown subcommand `{cmd}`"))?;
    let table = command.flags.concat();
    (command.run)(&Flags::parse(&table, rest.iter().cloned())?)
}

fn model_by_name(name: &str) -> Result<ModelSpec, String> {
    match name {
        "bert-large" => Ok(bert_large()),
        "roberta-large" => Ok(roberta_large()),
        "albert-large" => Ok(albert_large()),
        "gpt2-large" => Ok(gpt2_large()),
        other => Err(format!("unknown model `{other}`")),
    }
}

fn dataset_by_name(name: &str) -> Result<DatasetSpec, String> {
    match name {
        "squad1.1" => Ok(squad11()),
        "squad2.0" => Ok(squad20()),
        "imdb" => Ok(imdb()),
        "wikitext2" => Ok(wikitext2()),
        other => Err(format!("unknown dataset `{other}`")),
    }
}

fn class_by_name(name: &str) -> Result<CtaClass, String> {
    match name {
        "cta-0" => Ok(CtaClass::Cta0),
        "cta-0.5" => Ok(CtaClass::Cta05),
        "cta-1" => Ok(CtaClass::Cta1),
        other => Err(format!("unknown class `{other}` (cta-0 | cta-0.5 | cta-1)")),
    }
}

/// The positive integer value of `name`; zero is rejected here because
/// the library constructors assert on it.
fn positive(flags: &Flags, name: &str) -> Result<usize, String> {
    let value: usize = flags.num(name, "an integer")?;
    if value == 0 {
        return Err(format!("{name} must be positive"));
    }
    Ok(value)
}

/// The self-attention task (`m = n`) that `--n --k0 --k1 --k2 [--d 64]
/// [--l 6]` describe, with every dimension positive and no cluster
/// count above `n`.
fn task_from_flags(flags: &Flags) -> Result<AttentionTask, String> {
    let n = positive(flags, "--n")?;
    let d = positive(flags, "--d")?;
    let mut k = [0usize; 3];
    for (i, name) in ["--k0", "--k1", "--k2"].into_iter().enumerate() {
        k[i] = cluster_count(flags, name, n)?;
    }
    let l = positive(flags, "--l")?;
    Ok(AttentionTask::from_counts(n, n, d, k[0], k[1], k[2], l))
}

/// The cluster count `name`: positive and at most `n`.
fn cluster_count(flags: &Flags, name: &str, n: usize) -> Result<usize, String> {
    let k = positive(flags, name)?;
    if k > n {
        return Err(format!("{name} = {k} exceeds --n = {n}"));
    }
    Ok(k)
}

fn hw_from_flags(flags: &Flags, max_seq: usize) -> Result<HwConfig, String> {
    let b = positive(flags, "--width-b")?;
    // Validate the width before the `--pag` default doubles it.
    let hw = HwConfig::paper().with_sa_width(b);
    hw.try_validate().map_err(|e| match e {
        HwConfigError::SaWidthTooLarge(_) => {
            format!("--width-b must be at most {MAX_SA_WIDTH}, got {b}")
        }
        e => format!("--width-b {b}: {e}"),
    })?;
    let pag = flags.opt("--pag", |s| parse_num(s, "--pag", "an integer"))?.unwrap_or(2 * b);
    if pag == 0 || !pag.is_multiple_of(2) {
        return Err(format!("--pag must be a positive even number, got {pag}"));
    }
    let mut hw = hw.with_pag_parallelism(pag);
    hw.max_seq_len = hw.max_seq_len.max(max_seq);
    Ok(hw)
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let task = task_from_flags(flags)?;
    let (n, d) = (task.num_keys, task.head_dim);
    let hw = hw_from_flags(flags, n)?;
    let acc = CtaAccelerator::new(hw);
    let r = acc.simulate_head(&task);
    println!(
        "one head: {} cycles = {:.2} us @ {:.1} GHz",
        r.cycles,
        r.latency_s * 1e6,
        hw.clock_ghz
    );
    println!(
        "split: compression {} / linear {} / attention {} cycles (PAG stalls {})",
        r.schedule.compression_cycles,
        r.schedule.linear_cycles,
        r.schedule.attention_cycles,
        r.schedule.pag_stall_cycles
    );
    println!(
        "energy: {:.2} uJ (SA {:.0}%, memory {:.0}%, aux {:.0}%), power {:.2} W",
        r.energy.total_j() * 1e6,
        r.energy.sa_fraction() * 100.0,
        r.energy.memory_fraction() * 100.0,
        r.energy.aux_fraction() * 100.0,
        r.average_power_w()
    );
    let trace = power_trace(&hw, &r.schedule, &EnergyModel::default());
    println!("power: {:.2} W average, {:.2} W peak", trace.average_w, trace.peak_w);
    let gpu = GpuModel::v100();
    let dims = cta::attention::AttentionDims::self_attention(n, d, d);
    println!(
        "vs V100 (12 heads): {:.1}x speedup",
        gpu.attention_latency_s(&dims, 12) / r.latency_s
    );
    Ok(())
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let model = flags.get("--model", model_by_name)?;
    let mut dataset = flags.get("--dataset", dataset_by_name)?;
    if flags.switch("--seq-len") {
        dataset = dataset.with_seq_len(positive(flags, "--seq-len")?);
    }
    let case = TestCase::new(model, dataset);
    let width: f32 = flags.num("--bucket-width", "a number")?;
    if !(width > 0.0 && width.is_finite()) {
        return Err(format!("--bucket-width must be positive and finite, got {width}"));
    }
    let samples = positive(flags, "--samples")?;
    let cfg = cta::attention::CtaConfig::uniform(width, case.seed());
    let e = evaluate_case(&case, &cfg, samples);
    println!("{} @ width {width}", e.case_name);
    println!("accuracy loss: {:.2}%", e.accuracy_loss_pct);
    println!(
        "RL {:.1}%  RA {:.1}%  effective relations {:.1}%",
        e.complexity.rl * 100.0,
        e.complexity.ra * 100.0,
        e.complexity.effective_relations * 100.0
    );
    println!("mean k = ({:.0}, {:.0}, {:.0})", e.mean_k0, e.mean_k1, e.mean_k2);
    println!(
        "output error {:.4}, top-1 agreement {:.1}%",
        e.fidelity.output_relative_error,
        e.fidelity.top1_agreement * 100.0
    );
    Ok(())
}

fn cmd_operating_point(flags: &Flags) -> Result<(), String> {
    let model = flags.get("--model", model_by_name)?;
    let dataset = flags.get("--dataset", dataset_by_name)?;
    let class = flags.get("--class", class_by_name)?;
    let table = OperatingTable::build(&[TestCase::new(model, dataset)], Parallelism::serial());
    let (case, points) = &table.rows()[0];
    let op = points.iter().find(|p| p.class == class).expect("one point per class");
    let e = &op.evaluation;
    println!("{} {}", e.case_name, class.label());
    println!(
        "bucket width {:.3}, measured loss {:.2}% (budget {:.1}%)",
        op.config.kv_bucket_width,
        e.accuracy_loss_pct,
        class.target_loss_pct()
    );
    println!("RL {:.1}%  RA {:.1}%", e.complexity.rl * 100.0, e.complexity.ra * 100.0);
    let task = op.task(case);
    let r = CtaAccelerator::new(HwConfig::paper()).simulate_head(&task);
    println!(
        "simulated head: {} cycles ({:.1} us), {:.2} uJ",
        r.cycles,
        r.latency_s * 1e6,
        r.energy.total_j() * 1e6
    );
    Ok(())
}

fn cmd_area(flags: &Flags) -> Result<(), String> {
    let hw = hw_from_flags(flags, 512)?;
    let a = area_breakdown(&hw, &AreaModel::default());
    println!("SA {:.3} mm^2 ({:.1}%)", a.sa_mm2, a.sa_fraction() * 100.0);
    println!(
        "memory {:.3}  PAG {:.3}  CIM {:.3}  CAG {:.3} mm^2",
        a.memory_mm2, a.pag_mm2, a.cim_mm2, a.cag_mm2
    );
    println!("total {:.3} mm^2", a.total_mm2());
    Ok(())
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let task = task_from_flags(flags)?;
    let mut hw = HwConfig::paper();
    hw.max_seq_len = hw.max_seq_len.max(task.num_keys);
    let points = sweep(&hw, &task, &[4, 8, 16, 32], &[4, 8, 16, 32, 64, 128]);
    println!("{:>6} {:>6} {:>14} {:>12}", "b", "PAG", "heads/s", "stall cyc");
    for p in points {
        println!(
            "{:>6} {:>6} {:>14.0} {:>12}",
            p.sa_width, p.pag_parallelism, p.heads_per_second, p.pag_stall_cycles
        );
    }
    Ok(())
}

fn cmd_ffn(flags: &Flags) -> Result<(), String> {
    let n = positive(flags, "--n")?;
    let d_model = positive(flags, "--d-model")?;
    let d_ffn = positive(flags, "--d-ffn")?;
    for name in ["--k0", "--k1", "--k2"].into_iter().filter(|name| flags.switch(name)) {
        cluster_count(flags, name, n)?;
    }
    let hw = hw_from_flags(flags, n)?;
    let f = schedule_ffn(&hw, n, d_model, d_ffn);
    println!(
        "FFN {n} x {d_model} -> {d_ffn} -> {d_model} on one unit: {} cycles ({:.1} us)",
        f.total_cycles,
        f.total_cycles as f64 * hw.cycle_time_s() * 1e6
    );
    println!(
        "up-projection utilisation {:.0}%, down-projection {:.0}%",
        f.up.utilization(&hw) * 100.0,
        f.down.utilization(&hw) * 100.0
    );
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let task = task_from_flags(flags)?;
    let layers = positive(flags, "--layers")?;
    let heads = positive(flags, "--heads")?;
    let load: f64 = flags.num("--load", "a number")?;
    if !(load.is_finite() && load > 0.0) {
        return Err(format!("--load must be positive and finite, got {load}"));
    }
    let mut cfg = SystemConfig::paper();
    cfg.hw.max_seq_len = cfg.hw.max_seq_len.max(task.num_keys);
    let service = CtaSystem::new(cfg).run_layers(&vec![vec![task; heads]; layers]).total_s;
    let trace = poisson_trace(300, load / service, task, layers, heads, 42);
    let requests = replay_trace(&trace, QosClass::standard()).map_err(|e| e.to_string())?;
    let report = simulate_fleet(&FleetConfig::single_fifo(cfg), &requests);
    let m = report.metrics.latency.ok_or("no request completed")?;
    println!("service time {:.2} ms/request; offered load {:.0}%", service * 1e3, load * 100.0);
    println!(
        "throughput {:.1} rps | p50 {:.2} ms | p95 {:.2} ms | p99 {:.2} ms | busy {:.0}%",
        m.throughput_rps,
        m.p50_s * 1e3,
        m.p95_s * 1e3,
        m.p99_s * 1e3,
        m.busy_fraction * 100.0
    );
    Ok(())
}

fn cmd_trace(flags: &Flags) -> Result<(), String> {
    // Validation mode: `cta trace --check <path>`.
    if let Some(path) = flags.opt_text("--check") {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let stats = validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: well-formed Chrome trace ({} events, {} spans, {} async, {} counters, \
             {} tracks)",
            stats.events, stats.begins, stats.async_begins, stats.counters, stats.tracks
        );
        return Ok(());
    }

    // Generation mode: trace one head's mapping schedule.
    let task = task_from_flags(flags)?;
    let hw = hw_from_flags(flags, task.num_keys)?;
    let sched = schedule(&hw, &task);
    let mut sink = RingBufferSink::with_capacity(4096);
    trace_schedule(&mut sink, &hw, &sched, 0, 0.0);
    let events = sink.events();

    let report = AggregateReport::from_events(&events);
    print!("{}", report.render(Some(hw.cycle_time_s())));

    if let Some(path) = flags.opt_text("--out") {
        let json = chrome_trace_json(&events);
        validate_chrome_trace(&json)
            .map_err(|e| format!("internal: exported trace invalid: {e}"))?;
        std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} — open it in chrome://tracing or https://ui.perfetto.dev");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect("known subcommand")
    }

    #[test]
    fn subcommand_tables_accept_their_own_flags() {
        let table = command("simulate").flags.concat();
        let f = Flags::parse(&table, words(&["--n", "512", "--k0", "10"])).expect("parse");
        assert_eq!(f.num::<usize>("--n", "an integer").unwrap(), 512);
        assert_eq!(f.num::<usize>("--k0", "an integer").unwrap(), 10);
    }

    #[test]
    fn subcommands_reject_bare_values_and_foreign_flags() {
        let err = run(&words(&["simulate", "512"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let err = run(&words(&["area", "--n", "64"])).unwrap_err();
        assert!(err.contains("unknown flag \"--n\""), "{err}");
    }

    #[test]
    fn subcommands_reject_a_missing_value() {
        assert!(run(&words(&["simulate", "--n"])).unwrap_err().contains("--n needs a value"));
    }

    #[test]
    fn getters_parse_and_default() {
        let table = command("simulate").flags.concat();
        let f = Flags::parse(&table, words(&["--n", "64"])).expect("parse");
        assert_eq!(positive(&f, "--n").expect("n"), 64);
        assert_eq!(positive(&f, "--d").expect("d"), 64);
        assert_eq!(positive(&f, "--k0").unwrap_err(), "missing --k0");
        let bad = Flags::parse(&table, words(&["--n", "abc"])).expect("parse");
        assert!(positive(&bad, "--n").is_err());
    }

    #[test]
    fn usage_lists_every_subcommand_and_flag() {
        let text = usage_text();
        for command in &COMMANDS {
            assert!(text.contains(&format!("  cta {} ", command.name)), "{text}");
            for flag in command.flags.concat() {
                assert!(text.contains(flag.name), "{} missing from {text}", flag.name);
            }
        }
    }

    #[test]
    fn names_resolve() {
        assert!(model_by_name("bert-large").is_ok());
        assert!(model_by_name("nope").is_err());
        assert!(dataset_by_name("imdb").is_ok());
        assert!(class_by_name("cta-0.5").is_ok());
        assert!(class_by_name("cta-2").is_err());
    }

    #[test]
    fn simulate_command_runs() {
        run(&words(&["simulate", "--n", "128", "--k0", "40", "--k1", "30", "--k2", "10"]))
            .expect("simulate");
    }

    #[test]
    fn area_command_runs() {
        run(&words(&["area"])).expect("area");
    }

    #[test]
    fn ffn_command_runs() {
        run(&words(&["ffn", "--n", "128", "--d-model", "512", "--d-ffn", "2048"])).expect("ffn");
    }

    #[test]
    fn serve_command_runs() {
        run(&words(&[
            "serve", "--n", "128", "--k0", "40", "--k1", "30", "--k2", "10", "--layers", "2",
            "--heads", "12", "--load", "0.5",
        ]))
        .expect("serve");
    }

    #[test]
    fn trace_command_generates_and_checks() {
        let dir = std::env::temp_dir().join("cta-trace-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("head.json");
        let out = path.to_str().expect("utf-8 path").to_string();
        run(&words(&[
            "trace", "--n", "128", "--k0", "40", "--k1", "30", "--k2", "10", "--out", &out,
        ]))
        .expect("trace generation");
        run(&words(&["trace", "--check", &out])).expect("trace validation");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_check_rejects_garbage() {
        let dir = std::env::temp_dir().join("cta-trace-cli-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not a trace").expect("write");
        let out = path.to_str().expect("utf-8 path").to_string();
        assert!(run(&words(&["trace", "--check", &out])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&words(&["frobnicate"])).is_err());
    }
}
