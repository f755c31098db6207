//! `figures` — regenerates every table and figure of the CSR+ paper.
//!
//! ```text
//! cargo run -p csrplus-bench --release --bin figures -- <experiment> [--scale test|bench] [--out DIR]
//!
//! experiments:
//!   fig2       total time, CSR+ vs CSR-NI/CSR-IT/CSR-RLS, all datasets
//!   fig3       CSR+ preprocessing vs query time, |Q| ∈ {100..700}
//!   fig4       effect of rank r on time, all methods
//!   fig5       effect of |Q| on time, all methods
//!   fig6       total memory, all methods, all datasets
//!   fig7       CSR+ per-phase memory vs |Q|
//!   fig8       effect of rank r on memory
//!   fig9       effect of |Q| on memory
//!   table1     empirical complexity-scaling check (time vs n, r, |Q|)
//!   table3     AvgDiff accuracy vs exact, r ∈ {25,50,100,200}
//!   ablation-svd        randomized-SVD knobs vs accuracy/time
//!   ablation-squaring   repeated squaring vs linear subspace iteration
//!   ablation-stages     NI → CSR+ optimisation stages (Thm 3.1–3.5)
//!   ablation-backend    randomized vs Lanczos truncated SVD
//!   ablation-pruning    top-k norm-pruning effectiveness
//!   extras     extension baselines (CoSimMate, RP-CoSim) vs CSR+
//!   all        everything above
//! ```
//!
//! Measured numbers come from this machine on the scaled analogues; each
//! row also carries the algorithm's memory-model footprint at the paper's
//! full dataset size, which reproduces the original crash frontier.

use csrplus_bench::report::{fmt_secs, render_table, write_csv, Row};
use csrplus_bench::runner::{self, Algo, RunParams};
use csrplus_bench::workloads::{workload, Workload};
use csrplus_core::{exact, metrics, CsrPlusConfig, CsrPlusModel};
use csrplus_datasets::{DatasetId, Scale};
use csrplus_linalg::kron::kron;
use csrplus_linalg::randomized::{randomized_svd, RandomizedSvdConfig};
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOC: csrplus_memtrack::TrackingAllocator = csrplus_memtrack::TrackingAllocator;

const DEFAULT_Q: usize = 100;
const QUERY_SEED: u64 = 0xBE9C;

struct Options {
    scale: Scale,
    out_dir: PathBuf,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options { scale: Scale::Test, out_dir: PathBuf::from("results") };
    let mut experiments: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(String::as_str) {
                    Some("bench") => Scale::Bench,
                    Some("test") => Scale::Test,
                    other => {
                        eprintln!("unknown scale {other:?} (use test|bench)");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                i += 1;
                opts.out_dir = PathBuf::from(args.get(i).cloned().unwrap_or_default());
            }
            exp => experiments.push(exp.to_string()),
        }
        i += 1;
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = [
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "table1",
            "table3",
            "ablation-svd",
            "ablation-squaring",
            "ablation-stages",
            "ablation-backend",
            "ablation-pruning",
            "extras",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let scale_name = match opts.scale {
        Scale::Test => "test",
        Scale::Bench => "bench",
    };
    println!("# CSR+ figure harness — scale: {scale_name}, output: {}\n", opts.out_dir.display());

    for exp in &experiments {
        let t0 = Instant::now();
        match exp.as_str() {
            "fig2" => fig2(&opts),
            "fig3" => fig3(&opts),
            "fig4" => fig4(&opts),
            "fig5" => fig5(&opts),
            "fig6" => fig6(&opts),
            "fig7" => fig7(&opts),
            "fig8" => fig8(&opts),
            "fig9" => fig9(&opts),
            "table1" => table1(&opts),
            "table3" => table3(&opts),
            "ablation-svd" => ablation_svd(&opts),
            "ablation-squaring" => ablation_squaring(&opts),
            "ablation-stages" => ablation_stages(&opts),
            "ablation-backend" => ablation_backend(&opts),
            "ablation-pruning" => ablation_pruning(&opts),
            "extras" => extras(&opts),
            other => {
                eprintln!("unknown experiment {other}");
                std::process::exit(2);
            }
        }
        println!("({exp} finished in {:.1?})\n", t0.elapsed());
    }
}

fn emit(opts: &Options, name: &str, title: &str, rows: Vec<Row>) {
    print!("{}", render_table(title, &rows));
    let path = opts.out_dir.join(format!("{name}.csv"));
    match write_csv(&path, &rows) {
        Ok(()) => println!("→ wrote {}", path.display()),
        Err(e) => eprintln!("! could not write {}: {e}", path.display()),
    }
}

fn run_cell(
    exp: &str,
    w: &Workload,
    algo: Algo,
    queries: &[usize],
    params: &RunParams,
    param_desc: &str,
) -> Row {
    let r = runner::run(algo, w, queries, params, false);
    Row::from_result(exp, w.id.name(), param_desc, &r)
}

// ---------------------------------------------------------------- figures

/// Figure 2: total time of all methods on every dataset (defaults).
fn fig2(opts: &Options) {
    let mut rows = Vec::new();
    let params = RunParams::default();
    for id in DatasetId::all() {
        let w = workload(id, opts.scale);
        let queries = w.queries(DEFAULT_Q, QUERY_SEED);
        for algo in Algo::paper_set() {
            rows.push(run_cell("fig2", &w, algo, &queries, &params, "defaults"));
        }
    }
    emit(opts, "fig2_total_time", "Figure 2: total time (|Q|=100, c=0.6, r=5)", rows);
}

/// Figure 3: CSR+ preprocessing vs query time as |Q| grows.
fn fig3(opts: &Options) {
    let mut rows = Vec::new();
    let params = RunParams::default();
    for id in DatasetId::all() {
        let w = workload(id, opts.scale);
        for q in [100usize, 300, 500, 700] {
            let queries = w.queries(q, QUERY_SEED);
            rows.push(run_cell("fig3", &w, Algo::CsrPlus, &queries, &params, &format!("|Q|={q}")));
        }
    }
    emit(
        opts,
        "fig3_phase_time",
        "Figure 3: CSR+ preprocessing vs query time per |Q| (pre(s) constant, query grows)",
        rows,
    );
}

/// Figure 4: effect of low rank r on time.
fn fig4(opts: &Options) {
    let mut rows = Vec::new();
    for id in DatasetId::sweep_set() {
        let w = workload(id, opts.scale);
        let queries = w.queries(DEFAULT_Q, QUERY_SEED);
        for r in [5usize, 10, 15, 20, 25] {
            // Tighter wall-clock guard: CSR-NI's O(r⁴n²) precompute at
            // r ≥ 10 already exceeds minutes on the medium analogues —
            // exactly the blow-up the figure demonstrates, so the guard
            // records it as a time-skip instead of waiting it out.
            let params = RunParams { rank: r, max_predicted_flops: 5e10, ..Default::default() };
            for algo in Algo::paper_set() {
                rows.push(run_cell("fig4", &w, algo, &queries, &params, &format!("r={r}")));
            }
        }
    }
    emit(opts, "fig4_rank_time", "Figure 4: effect of rank r on CPU time", rows);
}

/// Figure 5: effect of |Q| on time.
fn fig5(opts: &Options) {
    let mut rows = Vec::new();
    let params = RunParams::default();
    for id in DatasetId::sweep_set() {
        let w = workload(id, opts.scale);
        for q in [100usize, 300, 500, 700] {
            let queries = w.queries(q, QUERY_SEED);
            for algo in Algo::paper_set() {
                rows.push(run_cell("fig5", &w, algo, &queries, &params, &format!("|Q|={q}")));
            }
        }
    }
    emit(opts, "fig5_queries_time", "Figure 5: effect of query size |Q| on CPU time", rows);
}

/// Figure 6: total memory of all methods on every dataset.
fn fig6(opts: &Options) {
    let mut rows = Vec::new();
    // Memory-faithful: NI must not silently switch to streaming.
    let params = RunParams { ni_streamed_fallback: false, ..Default::default() };
    for id in DatasetId::all() {
        let w = workload(id, opts.scale);
        let queries = w.queries(DEFAULT_Q, QUERY_SEED);
        for algo in Algo::paper_set() {
            rows.push(run_cell("fig6", &w, algo, &queries, &params, "defaults"));
        }
    }
    emit(
        opts,
        "fig6_total_memory",
        "Figure 6: total memory (measured peak at run scale; paper-scale model column)",
        rows,
    );
}

/// Figure 7: CSR+ per-phase memory as |Q| grows.
fn fig7(opts: &Options) {
    let mut rows = Vec::new();
    for id in DatasetId::all() {
        let w = workload(id, opts.scale);
        for q in [100usize, 300, 500, 700] {
            let queries = w.queries(q, QUERY_SEED);
            let r = runner::run(Algo::CsrPlus, &w, &queries, &RunParams::default(), false);
            // Two rows per cell: one per phase.
            let mut pre = Row::from_result("fig7", w.id.name(), &format!("|Q|={q} pre"), &r);
            pre.peak_bytes = r.peak_precompute_bytes;
            pre.query_s = f64::NAN;
            rows.push(pre);
            let mut qr = Row::from_result("fig7", w.id.name(), &format!("|Q|={q} query"), &r);
            qr.peak_bytes = r.peak_query_bytes;
            qr.precompute_s = f64::NAN;
            rows.push(qr);
        }
    }
    emit(opts, "fig7_phase_memory", "Figure 7: CSR+ memory per phase vs |Q|", rows);
}

/// Figure 8: effect of rank r on memory.
fn fig8(opts: &Options) {
    let mut rows = Vec::new();
    for id in DatasetId::sweep_set() {
        let w = workload(id, opts.scale);
        let queries = w.queries(DEFAULT_Q, QUERY_SEED);
        for r in [5usize, 10, 15, 20, 25] {
            let params = RunParams { rank: r, ni_streamed_fallback: false, ..Default::default() };
            for algo in Algo::paper_set() {
                rows.push(run_cell("fig8", &w, algo, &queries, &params, &format!("r={r}")));
            }
        }
    }
    emit(opts, "fig8_rank_memory", "Figure 8: effect of rank r on memory", rows);
}

/// Figure 9: effect of |Q| on memory.
fn fig9(opts: &Options) {
    let mut rows = Vec::new();
    let params = RunParams { ni_streamed_fallback: false, ..Default::default() };
    for id in DatasetId::sweep_set() {
        let w = workload(id, opts.scale);
        for q in [100usize, 300, 500, 700] {
            let queries = w.queries(q, QUERY_SEED);
            for algo in Algo::paper_set() {
                rows.push(run_cell("fig9", &w, algo, &queries, &params, &format!("|Q|={q}")));
            }
        }
    }
    emit(opts, "fig9_queries_memory", "Figure 9: effect of |Q| on memory", rows);
}

/// Extension baselines (not in the paper's figures): CoSimMate and
/// RP-CoSim against CSR+ on the two small datasets, with accuracy.
fn extras(opts: &Options) {
    let mut rows = Vec::new();
    let params = RunParams::default();
    println!("== Extras: extension baselines (CoSimMate, RP-CoSim) ==");
    for id in [DatasetId::Fb, DatasetId::P2p] {
        let w = workload(id, opts.scale);
        let queries = w.queries(DEFAULT_Q.min(w.n()), QUERY_SEED);
        let exact_s = exact::multi_source(&w.transition, &queries, 0.6, 1e-9);
        for algo in [Algo::CsrPlus, Algo::CoSimMate, Algo::RpCoSim] {
            let r = runner::run(algo, &w, &queries, &params, true);
            if let Some(s) = &r.output {
                let err = metrics::avg_diff(s, &exact_s);
                println!("  {:<4} {:<10} AvgDiff={err:.4e}", id.name(), algo.name());
            }
            rows.push(Row::from_result("extras", w.id.name(), "defaults", &r));
        }
    }
    emit(opts, "extras_baselines", "Extension baselines vs CSR+", rows);
}

// ----------------------------------------------------------------- tables

/// Table 1 (empirical): growth-rate spot check of CSR+'s complexity —
/// time should scale ~linearly in n (at fixed m/n), mildly in r, and
/// sublinearly in |Q| (preprocessing dominates).
fn table1(opts: &Options) {
    use csrplus_graph::generators::chung_lu::{chung_lu, ChungLuConfig};
    use csrplus_graph::TransitionMatrix;

    println!("== Table 1 (empirical scaling of CSR+) ==");
    let mut lines = vec!["dimension,low,high,time_low_s,time_high_s,growth,ideal".to_string()];

    let time_at = |n: usize, r: usize, q: usize| -> f64 {
        let g = chung_lu(&ChungLuConfig { n, m: n * 8, gamma_out: 2.2, gamma_in: 2.2, seed: 11 })
            .expect("valid");
        let t = TransitionMatrix::from_graph(&g);
        let cfg = CsrPlusConfig { rank: r, ..Default::default() };
        let queries = csrplus_graph::sample::sample_queries(&g, q, 5);
        let t0 = Instant::now();
        let model = CsrPlusModel::precompute(&t, &cfg).expect("precompute");
        let _ = model.multi_source(&queries).expect("query");
        t0.elapsed().as_secs_f64()
    };

    let (n0, n1) = (8_000usize, 32_000);
    let (tn0, tn1) = (time_at(n0, 5, 100), time_at(n1, 5, 100));
    println!(
        "  n: {n0}→{n1}: {} → {} (growth {:.1}x, linear ideal 4x)",
        fmt_secs(tn0),
        fmt_secs(tn1),
        tn1 / tn0
    );
    lines.push(format!("n,{n0},{n1},{tn0:.6},{tn1:.6},{:.2},4", tn1 / tn0));

    let (r0, r1) = (5usize, 20);
    let (tr0, tr1) = (time_at(16_000, r0, 100), time_at(16_000, r1, 100));
    println!(
        "  r: {r0}→{r1}: {} → {} (growth {:.1}x; between r (4x) and r² (16x))",
        fmt_secs(tr0),
        fmt_secs(tr1),
        tr1 / tr0
    );
    lines.push(format!("r,{r0},{r1},{tr0:.6},{tr1:.6},{:.2},4-16", tr1 / tr0));

    let (q0, q1) = (100usize, 700);
    let (tq0, tq1) = (time_at(16_000, 5, q0), time_at(16_000, 5, q1));
    println!(
        "  |Q|: {q0}→{q1}: {} → {} (growth {:.1}x; sublinear — preprocessing dominates)",
        fmt_secs(tq0),
        fmt_secs(tq1),
        tq1 / tq0
    );
    lines.push(format!("Q,{q0},{q1},{tq0:.6},{tq1:.6},{:.2},<7", tq1 / tq0));

    let path = opts.out_dir.join("table1_scaling.csv");
    std::fs::create_dir_all(&opts.out_dir).ok();
    if std::fs::write(&path, lines.join("\n")).is_ok() {
        println!("→ wrote {}", path.display());
    }
}

/// Table 3: AvgDiff of CSR+ vs exact on FB and P2P with |Q| = 100,
/// r ∈ {25, 50, 100, 200}; cross-checks CSR-NI equality where NI survives.
fn table3(opts: &Options) {
    println!("== Table 3: AvgDiff (CSR+ vs exact CoSimRank), |Q|=100 ==");
    let mut lines = vec!["dataset,r,avg_diff,precompute_s,ni_agrees".to_string()];
    for id in [DatasetId::Fb, DatasetId::P2p] {
        let w = workload(id, opts.scale);
        let queries = w.queries(DEFAULT_Q.min(w.n()), QUERY_SEED);
        let exact_s = exact::multi_source(&w.transition, &queries, 0.6, 1e-9);
        print!("  {:<4}", id.name());
        for r in [25usize, 50, 100, 200] {
            let r_eff = r.min(w.n());
            // Flat spectra (the ER-shaped P2P analogue) need a sharper
            // sketch at high rank, or the captured subspace is not the
            // true top-r and AvgDiff loses its monotone trend.
            let cfg = CsrPlusConfig {
                rank: r_eff,
                epsilon: 1e-8,
                power_iterations: 6,
                oversample: 16,
                ..Default::default()
            };
            let t0 = Instant::now();
            let model = CsrPlusModel::precompute(&w.transition, &cfg).expect("precompute");
            let pre = t0.elapsed().as_secs_f64();
            let s = model.multi_source(&queries).expect("query");
            let err = metrics::avg_diff(&s, &exact_s);
            // NI equality check where the tensor products are feasible.
            let ni_agrees = if runner::predicted_flops(
                Algo::CsrNi,
                w.n(),
                w.m(),
                r_eff,
                queries.len(),
            ) < 4e10
            {
                let mut ni = csrplus_baselines::CsrNi::new(csrplus_baselines::CsrNiConfig {
                    rank: r_eff,
                    mode: csrplus_baselines::NiMode::Streamed,
                    ..Default::default()
                });
                csrplus_core::CoSimRankEngine::precompute(&mut ni, &w.transition)
                    .expect("ni precompute");
                let s_ni =
                    csrplus_core::CoSimRankEngine::multi_source(&ni, &queries).expect("ni query");
                Some(s.max_abs_diff(&s_ni) < 1e-6)
            } else {
                None
            };
            let mark = match ni_agrees {
                Some(true) => "=NI",
                Some(false) => "≠NI!",
                None => "",
            };
            print!("  r={r_eff}: {err:.4e}{mark}");
            lines.push(format!(
                "{},{r_eff},{err},{pre},{}",
                id.name(),
                ni_agrees.map(|b| b.to_string()).unwrap_or_default()
            ));
        }
        println!();
    }
    let path = opts.out_dir.join("table3_accuracy.csv");
    std::fs::create_dir_all(&opts.out_dir).ok();
    if std::fs::write(&path, lines.join("\n")).is_ok() {
        println!("→ wrote {}", path.display());
    }
}

// -------------------------------------------------------------- ablations

/// Ablation: randomized-SVD power iterations and oversampling vs
/// accuracy (AvgDiff) and preprocessing time.
fn ablation_svd(opts: &Options) {
    println!("== Ablation: randomized SVD knobs (FB, r=10, |Q|=50) ==");
    let w = workload(DatasetId::Fb, opts.scale);
    let queries = w.queries(50, QUERY_SEED);
    let exact_s = exact::multi_source(&w.transition, &queries, 0.6, 1e-9);
    let mut lines = vec!["power_iterations,oversample,avg_diff,precompute_s".to_string()];
    for p in [0usize, 1, 2, 4] {
        for s in [4usize, 8, 16] {
            let cfg = CsrPlusConfig {
                rank: 10,
                power_iterations: p,
                oversample: s,
                ..Default::default()
            };
            let t0 = Instant::now();
            let model = CsrPlusModel::precompute(&w.transition, &cfg).expect("precompute");
            let pre = t0.elapsed().as_secs_f64();
            let out = model.multi_source(&queries).expect("query");
            let err = metrics::avg_diff(&out, &exact_s);
            println!("  p={p} oversample={s:<3} AvgDiff={err:.4e}  pre={}", fmt_secs(pre));
            lines.push(format!("{p},{s},{err},{pre}"));
        }
    }
    let path = opts.out_dir.join("ablation_svd.csv");
    std::fs::create_dir_all(&opts.out_dir).ok();
    if std::fs::write(&path, lines.join("\n")).is_ok() {
        println!("→ wrote {}", path.display());
    }
}

/// Ablation: repeated squaring (Algorithm 1 line 5) vs plain linear
/// iteration for the subspace fixed point.
fn ablation_squaring(opts: &Options) {
    use csrplus_core::model::{solve_subspace_fixed_point, solve_subspace_fixed_point_linear};
    println!("== Ablation: repeated squaring vs linear iteration (P fixed point) ==");
    let w = workload(DatasetId::Fb, opts.scale);
    let cfg = CsrPlusConfig { rank: 25.min(w.n()), ..Default::default() };
    let model = CsrPlusModel::precompute(&w.transition, &cfg).expect("precompute");
    let h0 = model.h0();
    let mut lines =
        vec!["epsilon,squaring_iters,squaring_s,linear_iters,linear_s,max_diff".to_string()];
    for eps in [1e-3f64, 1e-5, 1e-8, 1e-12] {
        let k_sq = csrplus_core::config::squaring_iterations(0.6, eps);
        let k_lin = csrplus_core::config::linear_iterations(0.6, eps);
        let reps = 200; // the solve is tiny; repeat for measurable time
        let t0 = Instant::now();
        let mut p_sq = None;
        for _ in 0..reps {
            p_sq = Some(solve_subspace_fixed_point(h0, 0.6, k_sq).expect("sq"));
        }
        let t_sq = t0.elapsed().as_secs_f64() / reps as f64;
        let t1 = Instant::now();
        let mut p_lin = None;
        for _ in 0..reps {
            p_lin = Some(solve_subspace_fixed_point_linear(h0, 0.6, k_lin).expect("lin"));
        }
        let t_lin = t1.elapsed().as_secs_f64() / reps as f64;
        let diff = p_sq.unwrap().max_abs_diff(&p_lin.unwrap());
        println!(
            "  ε={eps:>6.0e}: squaring {k_sq} iters ({}) vs linear {k_lin} iters ({}) — agree to {diff:.1e}",
            fmt_secs(t_sq),
            fmt_secs(t_lin)
        );
        lines.push(format!("{eps},{k_sq},{t_sq},{k_lin},{t_lin},{diff}"));
    }
    let path = opts.out_dir.join("ablation_squaring.csv");
    std::fs::create_dir_all(&opts.out_dir).ok();
    if std::fs::write(&path, lines.join("\n")).is_ok() {
        println!("→ wrote {}", path.display());
    }
}

/// Ablation: randomized subspace iteration vs Golub–Kahan–Lanczos as the
/// truncated-SVD backend — accuracy and preprocessing time per dataset.
fn ablation_backend(opts: &Options) {
    use csrplus_core::SvdBackend;
    println!("== Ablation: SVD backend (r=10, |Q|=50) ==");
    let mut lines = vec!["dataset,backend,avg_diff,precompute_s".to_string()];
    for id in [DatasetId::Fb, DatasetId::P2p] {
        let w = workload(id, opts.scale);
        let queries = w.queries(50, QUERY_SEED);
        let exact_s = exact::multi_source(&w.transition, &queries, 0.6, 1e-9);
        for (name, backend) in
            [("randomized", SvdBackend::Randomized), ("lanczos", SvdBackend::Lanczos)]
        {
            let cfg = CsrPlusConfig { rank: 10, backend, ..Default::default() };
            let t0 = Instant::now();
            let model = CsrPlusModel::precompute(&w.transition, &cfg).expect("precompute");
            let pre = t0.elapsed().as_secs_f64();
            let s = model.multi_source(&queries).expect("query");
            let err = metrics::avg_diff(&s, &exact_s);
            println!("  {:<4} {name:<11} AvgDiff={err:.4e}  pre={}", id.name(), fmt_secs(pre));
            lines.push(format!("{},{name},{err},{pre}", id.name()));
        }
    }
    let path = opts.out_dir.join("ablation_backend.csv");
    std::fs::create_dir_all(&opts.out_dir).ok();
    if std::fs::write(&path, lines.join("\n")).is_ok() {
        println!("→ wrote {}", path.display());
    }
}

/// Ablation: Cauchy–Schwarz pruning effectiveness of `top_k_pruned` —
/// the fraction of candidates whose exact score is computed, per dataset.
fn ablation_pruning(opts: &Options) {
    println!("== Ablation: top-k norm pruning (r=10, k=10, 50 queries) ==");
    let mut lines = vec!["dataset,n,avg_scanned,scan_fraction".to_string()];
    for id in DatasetId::all() {
        let w = workload(id, opts.scale);
        let cfg = CsrPlusConfig { rank: 10.min(w.n()), ..Default::default() };
        let model = CsrPlusModel::precompute(&w.transition, &cfg).expect("precompute");
        let queries = w.queries(50, QUERY_SEED);
        let mut total = 0usize;
        for &q in &queries {
            total += model.top_k_scan(q, 10, None).expect("top-k").scanned;
        }
        let avg = total as f64 / queries.len() as f64;
        let frac = avg / w.n() as f64;
        println!(
            "  {:<4} n={:<9} avg candidates scored: {avg:>10.0} ({:.1}% of n)",
            id.name(),
            w.n(),
            100.0 * frac
        );
        lines.push(format!("{},{},{avg},{frac}", id.name(), w.n()));
    }
    let path = opts.out_dir.join("ablation_pruning.csv");
    std::fs::create_dir_all(&opts.out_dir).ok();
    if std::fs::write(&path, lines.join("\n")).is_ok() {
        println!("→ wrote {}", path.display());
    }
}

/// Ablation: the optimisation stages from CSR-NI to CSR+ — timing each
/// successive theorem's version of the bottleneck computation.
fn ablation_stages(opts: &Options) {
    println!("== Ablation: NI → CSR+ optimisation stages (Theorems 3.1–3.5) ==");
    let w = workload(DatasetId::Fb, opts.scale);
    let n = w.n();
    let r = 5usize;
    let svd = randomized_svd(&w.transition, &RandomizedSvdConfig { rank: r, ..Default::default() })
        .expect("svd");
    // Paper convention Q = VΣUᵀ.
    let (u, v, sigma) = (svd.v, svd.u, svd.sigma);
    let mut lines = vec!["stage,description,seconds".to_string()];
    let record = |stage: &str, desc: &str, secs: f64, lines: &mut Vec<String>| {
        println!("  {stage:<16} {desc:<56} {}", fmt_secs(secs));
        lines.push(format!("{stage},{desc},{secs}"));
    };

    // Stage 0 — naive (V⊗V)ᵀ(U⊗U): O(r⁴n²), via streamed Kronecker rows.
    let t0 = Instant::now();
    {
        use csrplus_linalg::kron::KronPair;
        let pu = KronPair::new(&u, &u);
        let pv = KronPair::new(&v, &v);
        let r2 = r * r;
        let mut m = csrplus_linalg::DenseMatrix::zeros(r2, r2);
        let mut urow = vec![0.0; r2];
        let mut vrow = vec![0.0; r2];
        for i in 0..n * n {
            pu.row_into(i, &mut urow);
            pv.row_into(i, &mut vrow);
            for (a, &va) in vrow.iter().enumerate() {
                if va != 0.0 {
                    csrplus_linalg::vector::axpy(va, &urow, m.row_mut(a));
                }
            }
        }
        std::hint::black_box(&m);
    }
    record(
        "stage0-naive",
        "NI tensor product (V⊗V)ᵀ(U⊗U) — O(r⁴n²)",
        t0.elapsed().as_secs_f64(),
        &mut lines,
    );

    // Stage 1 — Theorem 3.1: mixed product Θ⊗Θ with Θ = VᵀU.
    let t1 = Instant::now();
    let theta = v.matmul_transpose_a(&u).expect("Θ");
    let m_fast = kron(&theta, &theta);
    std::hint::black_box(&m_fast);
    record(
        "stage1-thm3.1",
        "mixed product Θ⊗Θ (Θ = VᵀU) — O(r²n + r⁴)",
        t1.elapsed().as_secs_f64(),
        &mut lines,
    );

    // Stage 2 — Theorems 3.3/3.4: solve P in the r×r subspace instead of
    // forming and inverting Λ (r²×r²).
    let t2 = Instant::now();
    let us = u.scale_columns(&sigma);
    let h0 = v.matmul_transpose_a(&us).expect("H₀");
    let p = csrplus_core::model::solve_subspace_fixed_point(&h0, 0.6, 5).expect("P");
    record(
        "stage2-thm3.4",
        "P = cHPHᵀ + I by repeated squaring in r×r — O(r²n + r³)",
        t2.elapsed().as_secs_f64(),
        &mut lines,
    );

    // Stage 3 — Theorem 3.5: query via Z[U]ᵀ instead of (U⊗U) rows.
    let queries = w.queries(DEFAULT_Q, QUERY_SEED);
    let t3 = Instant::now();
    let sps = p.scale_rows(&sigma).scale_columns(&sigma);
    let z = u.matmul(&sps).expect("Z");
    let uq = u.select_rows(&queries);
    let s = z.matmul_transpose_b(&uq).expect("S");
    std::hint::black_box(&s);
    record(
        "stage3-thm3.5",
        "query [S]_{*,Q} = I + cZ[U]ᵀ — O(nr|Q|)",
        t3.elapsed().as_secs_f64(),
        &mut lines,
    );

    let path = opts.out_dir.join("ablation_stages.csv");
    std::fs::create_dir_all(&opts.out_dir).ok();
    if std::fs::write(&path, lines.join("\n")).is_ok() {
        println!("→ wrote {}", path.display());
    }
}
