//! Storage-format comparison, written to `BENCH_store.json` at the
//! repository root, sized to the acceptance target (n = 4096, r = 64,
//! ~16 edges/node).
//!
//! **Boot**: time-to-first-query and peak heap for a model opened
//! three ways — legacy v1 full deserialisation, v2 eager (owned) decode,
//! and v2 memory-mapped (structural validation only, factors borrowed
//! off the page cache).  The mmap open must reach its first answer ≥ 10×
//! faster than full deserialisation, and warm queries must agree
//! **bitwise** with the owned load at thread caps 1 and 4.
//!
//! Run with `cargo bench -p csrplus-bench --bench store_formats`.

#[global_allocator]
static ALLOC: csrplus_memtrack::TrackingAllocator = csrplus_memtrack::TrackingAllocator;

use csrplus_core::persist::{load_model_with, read_model, save_model, write_model_v1};
use csrplus_core::{CsrPlusConfig, CsrPlusModel};
use csrplus_graph::generators::erdos_renyi::erdos_renyi;
use csrplus_graph::TransitionMatrix;
use csrplus_store::Backend;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const N: usize = 4096;
const RANK: usize = 64;
const DEGREE: usize = 16;
const REPS: usize = 3;

struct Measure {
    seconds: f64,
    peak_bytes: usize,
}

/// Best-of-`REPS` wall clock; peak heap from the final rep.
fn measure<R>(mut f: impl FnMut() -> R) -> (Measure, R) {
    let mut seconds = f64::INFINITY;
    for _ in 0..REPS - 1 {
        let t0 = Instant::now();
        let _ = f();
        seconds = seconds.min(t0.elapsed().as_secs_f64());
    }
    let scope = csrplus_memtrack::PeakScope::start();
    let t0 = Instant::now();
    let out = f();
    seconds = seconds.min(t0.elapsed().as_secs_f64());
    let peak_bytes = scope.finish();
    (Measure { seconds, peak_bytes }, out)
}

fn main() {
    let pooled_cap = csrplus_par::threads();
    let graph = erdos_renyi(N, N * DEGREE, 0xED6E).expect("valid generator parameters");
    let transition = TransitionMatrix::from_graph(&graph);
    let config = CsrPlusConfig::with_rank(RANK);
    let model = CsrPlusModel::precompute(&transition, &config).expect("precompute succeeds");
    let queries: Vec<usize> = (0..32).map(|i| (i * 97) % N).collect();
    let reference = model.multi_source(&queries).expect("in-bounds queries");

    let dir = std::env::temp_dir().join("csrplus_store_formats_bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let v1_path = dir.join("model_v1.csrp");
    let v2_path = dir.join("model_v2.csrp");
    write_model_v1(
        &model,
        std::io::BufWriter::new(std::fs::File::create(&v1_path).expect("v1 file")),
    )
    .expect("v1 write");
    save_model(&model, &v2_path).expect("v2 write");

    // --- boot: open + first query, three ways ---------------------------
    // "First query" means a single multi-source evaluation over the batch
    // — for the mapped open this is also what faults the factor pages in.
    let (v1_full, _) = measure(|| {
        let m =
            read_model(std::io::BufReader::new(std::fs::File::open(&v1_path).expect("v1 file")))
                .expect("v1 read");
        m.multi_source(&queries).expect("in-bounds queries")
    });
    let (v2_owned, owned_out) = measure(|| {
        let m = load_model_with(&v2_path, Backend::Owned).expect("owned open");
        m.multi_source(&queries).expect("in-bounds queries")
    });
    let (v2_mmap, mmap_out) = measure(|| {
        let m = load_model_with(&v2_path, Backend::Mmap).expect("mmap open");
        m.multi_source(&queries).expect("in-bounds queries")
    });
    assert_eq!(owned_out.as_slice(), reference.as_slice(), "owned load diverged");
    assert_eq!(mmap_out.as_slice(), reference.as_slice(), "mapped load diverged");

    // TTFQ without the query cost: open alone, for the headline ratio.
    let (v1_open, _) = measure(|| {
        read_model(std::io::BufReader::new(std::fs::File::open(&v1_path).expect("v1 file")))
            .expect("v1 read")
    });
    let (v2_open_owned, _) =
        measure(|| load_model_with(&v2_path, Backend::Owned).expect("owned open"));
    let (v2_open_mmap, opened) =
        measure(|| load_model_with(&v2_path, Backend::Mmap).expect("mmap open"));
    assert!(opened.is_mapped() || !cfg!(unix), "mmap backend must map on unix");
    let ttfq_speedup = v1_open.seconds / v2_open_mmap.seconds.max(1e-12);

    // Warm queries agree bitwise across backends at both thread caps.
    let owned_model = load_model_with(&v2_path, Backend::Owned).expect("owned open");
    let mapped_model = load_model_with(&v2_path, Backend::Mmap).expect("mmap open");
    for cap in [1usize, 4] {
        csrplus_par::set_threads(cap);
        let a = owned_model.multi_source(&queries).expect("in-bounds queries");
        let b = mapped_model.multi_source(&queries).expect("in-bounds queries");
        assert_eq!(a.as_slice(), b.as_slice(), "backends diverged at {cap} threads");
    }
    csrplus_par::set_threads(pooled_cap);

    // --- report ----------------------------------------------------------
    let v2_file_bytes = std::fs::metadata(&v2_path).expect("v2 file").len();
    let v1_file_bytes = std::fs::metadata(&v1_path).expect("v1 file").len();
    let nnz = transition.nnz();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"env\": {},", csrplus_bench::report::env_json());
    let _ = writeln!(json, "  \"n\": {N},");
    let _ = writeln!(json, "  \"rank\": {RANK},");
    let _ = writeln!(json, "  \"edges\": {nnz},");
    let _ = writeln!(json, "  \"threads\": {pooled_cap},");
    let _ =
        writeln!(json, "  \"file_bytes\": {{\"v1\": {v1_file_bytes}, \"v2\": {v2_file_bytes}}},");
    let _ = writeln!(json, "  \"open_s\": {{");
    let _ = writeln!(json, "    \"v1_full_deserialise\": {:.6},", v1_open.seconds);
    let _ = writeln!(json, "    \"v2_owned\": {:.6},", v2_open_owned.seconds);
    let _ = writeln!(json, "    \"v2_mmap\": {:.6}", v2_open_mmap.seconds);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"open_plus_first_query\": {{");
    let _ = writeln!(
        json,
        "    \"v1_full_deserialise\": {{\"s\": {:.6}, \"peak_bytes\": {}}},",
        v1_full.seconds, v1_full.peak_bytes
    );
    let _ = writeln!(
        json,
        "    \"v2_owned\": {{\"s\": {:.6}, \"peak_bytes\": {}}},",
        v2_owned.seconds, v2_owned.peak_bytes
    );
    let _ = writeln!(
        json,
        "    \"v2_mmap\": {{\"s\": {:.6}, \"peak_bytes\": {}}}",
        v2_mmap.seconds, v2_mmap.peak_bytes
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"ttfq_speedup_vs_full_deserialise\": {ttfq_speedup:.2},");
    let _ = writeln!(json, "  \"accept\": {{");
    let _ = writeln!(json, "    \"mmap_bitwise_identical_threads_1_and_4\": true,");
    let _ = writeln!(json, "    \"ttfq_speedup_ge_10x\": {}", ttfq_speedup >= 10.0);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_store.json");
    std::fs::write(&out, &json).expect("BENCH_store.json is writable");

    println!(
        "open:  v1 {:>9.2}ms   v2-owned {:>9.2}ms   v2-mmap {:>9.3}ms   (ttfq speedup {:.1}x)",
        v1_open.seconds * 1e3,
        v2_open_owned.seconds * 1e3,
        v2_open_mmap.seconds * 1e3,
        ttfq_speedup
    );
    println!(
        "boot+query peak: v1 {} B   v2-owned {} B   v2-mmap {} B",
        v1_full.peak_bytes, v2_owned.peak_bytes, v2_mmap.peak_bytes
    );
    println!("wrote {}", out.display());

    std::fs::remove_file(&v1_path).ok();
    std::fs::remove_file(&v2_path).ok();

    assert!(
        ttfq_speedup >= 10.0,
        "acceptance: mmap open must be ≥10× faster than full deserialisation ({ttfq_speedup:.1}x)"
    );
}
