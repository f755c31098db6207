//! End-to-end test of the `csrplus` binary: generate → stats →
//! precompute → query/topk → exact, checking output consistency.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The binary with none of its settings variables inherited: a test
/// sets exactly the ones it checks.
fn bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_csrplus"));
    for var in ["CSRPLUS_THREADS", "CSRPLUS_PRECISION", "CSRPLUS_STORE"] {
        cmd.env_remove(var);
    }
    cmd
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csrplus_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn run_ok(args: &[&str]) -> Output {
    let out = bin().args(args).output().expect("spawn csrplus");
    assert!(
        out.status.success(),
        "csrplus {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn full_pipeline() {
    let graph = tmp("fb.txt");
    let model = tmp("fb.csrp");
    let graph_s = graph.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    // generate
    let out = run_ok(&["generate", "--dataset", "fb", "--out", graph_s]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("generated FB"));

    // stats
    let out = run_ok(&["stats", graph_s]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("nodes"));
    assert!(text.contains("avg degree"));

    // precompute
    let out = run_ok(&["precompute", graph_s, "--rank", "4", "--out", model_s]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("rank-4"));

    // query (full columns)
    let out = run_ok(&["query", model_s, "--nodes", "0,1"]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let header = text.lines().next().expect("header");
    assert!(header.contains("S[*,0]") && header.contains("S[*,1]"));
    // Self-similarity of node 0 is the first numeric column of row "0".
    let row0 = text.lines().nth(1).expect("row 0");
    let self_sim: f64 = row0.split('\t').nth(1).unwrap().parse().unwrap();
    assert!(self_sim >= 0.99, "S[0,0] = {self_sim}");

    // topk
    let out = run_ok(&["topk", model_s, "--node", "0", "--k", "3"]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(text.lines().count(), 3);
    assert!(text.contains("1."));

    // query --top
    let out = run_ok(&["query", model_s, "--nodes", "0", "--top", "2"]);
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("query 0:"));

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn exact_matches_high_rank_model() {
    let graph = tmp("exact.txt");
    let model = tmp("exact.csrp");
    let graph_s = graph.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    // A tiny deterministic graph file written by hand.
    std::fs::write(&graph, "0 1\n1 2\n2 0\n2 1\n").unwrap();
    run_ok(&["precompute", graph_s, "--rank", "3", "--epsilon", "1e-10", "--out", model_s]);

    let approx = run_ok(&["query", model_s, "--nodes", "1"]);
    let exact = run_ok(&["exact", graph_s, "--nodes", "1", "--epsilon", "1e-10"]);
    let parse_col = |text: &str| -> Vec<f64> {
        text.lines().skip(1).map(|l| l.split('\t').nth(1).unwrap().parse().unwrap()).collect()
    };
    let a = parse_col(&String::from_utf8_lossy(&approx.stdout));
    let b = parse_col(&String::from_utf8_lossy(&exact.stdout));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() < 1e-4, "{x} vs {y}");
    }

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = bin().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = bin().args(["query", "/nonexistent.csrp", "--nodes", "0"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // A bad settings value is a usage error naming its variable, not a
    // silent default.
    let bad_values = [
        ("CSRPLUS_THREADS", "abc"),
        ("CSRPLUS_THREADS", "0"),
        ("CSRPLUS_PRECISION", "f16"),
        ("CSRPLUS_STORE", "mmpa"),
    ];
    for (var, bad) in bad_values {
        let out = bin().args(["stats", "g.txt"]).env(var, bad).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{var}={bad} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(var) && err.contains("usage"), "{var}={bad}: {err}");
    }
}

#[test]
fn settings_variables_reach_the_commands() {
    let graph = tmp("settings.txt");
    let model = tmp("settings.csrp");
    let graph_s = graph.to_str().unwrap();
    let model_s = model.to_str().unwrap();
    std::fs::write(&graph, "0 1\n1 2\n2 0\n2 1\n").unwrap();

    // `inspect`'s dtype column shows the precision the build stored, and
    // its first line shows how the store opened the file.
    let u_dtype = |env: &[(&str, &str)], extra: &[&str]| -> String {
        let mut args = vec!["precompute", graph_s, "--rank", "2", "--out", model_s];
        args.extend_from_slice(extra);
        let out = bin().args(&args).envs(env.iter().copied()).output().expect("spawn");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let out =
            bin().args(["inspect", model_s]).envs(env.iter().copied()).output().expect("spawn");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let owned = env.contains(&("CSRPLUS_STORE", "owned")) || !cfg!(unix);
        let opened = if owned { "opened owned" } else { "opened memory-mapped" };
        assert!(text.contains(opened), "{text}");
        let row = text.lines().find(|l| l.starts_with("u ")).expect("u section row");
        row.split_whitespace().nth(1).unwrap().to_string()
    };
    assert_eq!(u_dtype(&[], &[]), "f64");
    assert_eq!(u_dtype(&[("CSRPLUS_PRECISION", "f32")], &[]), "f32");
    assert_eq!(u_dtype(&[("CSRPLUS_PRECISION", "f32")], &["--precision", "f64"]), "f64");
    assert_eq!(u_dtype(&[("CSRPLUS_STORE", "owned")], &["--precision", "f32"]), "f32");

    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&model).ok();
}
