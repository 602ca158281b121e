//! Integration: the `cta` command-line binary, spawned end to end.

use std::process::Command;

fn cta(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cta")).args(args).output().expect("spawn the cta binary")
}

#[test]
fn simulate_prints_cycles_and_speedup() {
    let out = cta(&["simulate", "--n", "256", "--k0", "100", "--k1", "90", "--k2", "20"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("one head:"), "{text}");
    assert!(text.contains("speedup"), "{text}");
}

#[test]
fn area_prints_totals() {
    let out = cta(&["area"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total"), "{text}");
    assert!(text.contains("mm^2"), "{text}");
}

#[test]
fn ffn_prints_utilisation() {
    let out = cta(&["ffn", "--n", "128", "--d-model", "512", "--d-ffn", "2048"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("utilisation"));
}

#[test]
fn serve_prints_percentiles() {
    let out = cta(&[
        "serve", "--n", "128", "--k0", "40", "--k1", "30", "--k2", "10", "--layers", "2",
        "--heads", "12", "--load", "0.5",
    ]);
    assert!(out.status.success());
    // Pinned to the text of the standalone FIFO model the single-replica
    // fleet replaced: the port must not move a printed digit.
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "service time 0.07 ms/request; offered load 50%\n\
         throughput 6793.7 rps | p50 0.07 ms | p95 0.26 ms | p99 0.36 ms | busy 49%\n"
    );
}

#[test]
fn trace_check_of_deeply_nested_json_fails_gracefully() {
    // 200 000 unclosed arrays: a parser recursing once per `[` without
    // a depth cap would overflow the main thread's stack and abort.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cta_cli_nested");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("nested.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write nested json");
    let out = cta(&["trace", "--check", path.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error:") && stderr.contains("nesting deeper than"), "{stderr}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = cta(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
    assert!(err.contains("usage:"));
}

#[test]
fn missing_flag_fails_with_message() {
    let out = cta(&["simulate", "--n", "64"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --k0"));
}

#[test]
fn out_of_range_flags_fail_with_an_error_not_a_panic() {
    // `<cmd> --n 64 --k0 40 --k1 30 --k2 10` plus the flags under test.
    let task = |cmd: &'static str, extra: &[&'static str]| {
        let mut args = vec![cmd, "--n", "64", "--k0", "40", "--k1", "30", "--k2", "10"];
        args.extend(extra);
        args
    };
    // `evaluate --model bert-large --dataset squad1.1` plus the flags.
    let evaluate = |extra: &[&'static str]| {
        let mut args = vec!["evaluate", "--model", "bert-large", "--dataset", "squad1.1"];
        args.extend(extra);
        args
    };
    let cases: Vec<Vec<&str>> = vec![
        vec!["simulate", "--n", "0", "--k0", "1", "--k1", "1", "--k2", "1"],
        vec!["simulate", "--n", "64", "--k0", "0", "--k1", "0", "--k2", "0"],
        vec!["simulate", "--n", "64", "--k0", "100", "--k1", "30", "--k2", "10"],
        task("simulate", &["--l", "0"]),
        task("simulate", &["--pag", "0"]),
        vec!["area", "--width-b", "0"],
        task("simulate", &["--width-b", "4611686018427387904"]),
        task("sweep", &["--d", "0"]),
        vec!["ffn", "--n", "0", "--d-model", "512", "--d-ffn", "2048"],
        task("serve", &["--layers", "0", "--heads", "12", "--load", "0.5"]),
        task("serve", &["--layers", "2", "--heads", "12", "--load", "nan"]),
        evaluate(&["--bucket-width", "0", "--samples", "1"]),
        evaluate(&["--bucket-width", "-1", "--samples", "1"]),
        evaluate(&["--bucket-width", "nan", "--samples", "1"]),
        evaluate(&["--bucket-width", "1", "--samples", "0"]),
        evaluate(&["--bucket-width", "1", "--samples", "1", "--seq-len", "0"]),
        vec![
            "operating-point",
            "--model",
            "bert-large",
            "--dataset",
            "squad1.1",
            "--class",
            "cta-0",
            "--samples",
            "0",
        ],
    ];
    for args in &cases {
        let out = cta(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {err}");
        assert!(err.contains("error:"), "{args:?}: stderr {err}");
        assert!(!err.contains("panicked"), "{args:?}: stderr {err}");
    }
}

#[test]
fn out_of_range_errors_name_the_offending_flag() {
    let task = ["--n", "64", "--k0", "40", "--k1", "30", "--k2", "10"];
    let cases: [(&str, &[&str], &str); 6] = [
        ("simulate", &["--pag", "3"], "--pag must be a positive even number, got 3"),
        ("simulate", &["--width-b", "4097"], "--width-b must be at most 4096, got 4097"),
        ("simulate", &["--k1", "65"], "--k1 = 65 exceeds --n = 64"),
        ("serve", &["--layers", "2", "--heads", "0", "--load", "0.5"], "--heads must be positive"),
        ("serve", &["--layers", "2", "--heads", "12", "--load", "-1"], "--load must be positive"),
        ("ffn", &["--d-model", "512", "--d-ffn", "0"], "--d-ffn must be positive"),
    ];
    for (cmd, extra, expect) in cases {
        let mut args = vec![cmd];
        args.extend(task);
        args.extend(extra);
        let out = cta(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {err}");
        assert!(err.contains(expect), "{args:?}: stderr {err}");
        assert!(!err.contains("panicked"), "{args:?}: stderr {err}");
    }
}

#[test]
fn unknown_flags_fail_with_usage() {
    let cases: [&[&str]; 2] = [
        &["simulate", "--n", "64", "--k0", "16", "--k1", "16", "--k2", "4", "--frobnicate", "3"],
        &["area", "--n", "64"],
    ];
    for args in cases {
        let out = cta(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {err}");
        assert!(err.contains("error: unknown flag"), "{args:?}: stderr {err}");
        assert!(err.contains("usage:"), "{args:?}: stderr {err}");
    }
}

#[test]
fn evaluate_and_operating_point_errors_name_the_flag() {
    let case = ["--model", "bert-large", "--dataset", "squad1.1"];
    let cases: [(&str, &[&str], &str); 4] = [
        (
            "evaluate",
            &["--bucket-width", "nan", "--samples", "1"],
            "--bucket-width must be positive",
        ),
        ("evaluate", &["--bucket-width", "1", "--samples", "0"], "--samples must be positive"),
        ("evaluate", &["--bucket-width", "1", "--seq-len", "0"], "--seq-len must be positive"),
        ("operating-point", &["--class", "cta-0", "--samples", "0"], "--samples must be positive"),
    ];
    for (cmd, extra, expect) in cases {
        let mut args = vec![cmd];
        args.extend(case);
        args.extend(extra);
        let out = cta(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {err}");
        assert!(err.contains(expect), "{args:?}: stderr {err}");
    }
}

#[test]
fn every_value_flag_of_every_subcommand_needs_a_value() {
    let err = String::from_utf8_lossy(&cta(&["frobnicate"]).stderr).into_owned();
    let usage = &err[err.find("usage:").expect("usage text")..];
    let commands: Vec<&str> = usage
        .lines()
        .filter_map(|line| line.strip_prefix("  cta "))
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(
        commands,
        ["simulate", "evaluate", "operating-point", "area", "sweep", "ffn", "serve", "trace"]
    );
    for command in commands {
        // The subcommand's usage: its first line plus the indented
        // continuation lines under it.
        let lead = format!("  cta {command} ");
        let section: String = usage
            .lines()
            .skip_while(|line| !line.starts_with(&lead))
            .enumerate()
            .take_while(|(i, line)| *i == 0 || line.starts_with("     "))
            .map(|(_, line)| format!("{line}\n"))
            .collect();
        let flags = cta_bench::usage_flags(&section);
        assert!(!flags.is_empty(), "{command}: {usage}");
        for (flag, takes_value) in flags {
            assert!(takes_value, "{command} {flag}: every cta flag takes a value");
            let out = cta(&[command, flag]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {flag}: stderr {err}");
            assert!(err.contains("needs a value"), "{command} {flag}: stderr {err}");
            assert!(err.contains("usage:"), "{command} {flag}: stderr {err}");
            assert!(!err.contains("panicked"), "{command} {flag}: stderr {err}");
        }
    }
}
