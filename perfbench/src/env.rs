//! The environment block printed with every result: what was measured,
//! on what, with which settings.

use crate::client::body_hash;
use crate::json;
use std::path::Path;

/// The commit when run from a git checkout: `.git/HEAD` resolved one
/// level, read as plain files.  `None` elsewhere (an exported tree).
fn commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(root.join(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// A hash over every Rust source and manifest under `crates/` and the
/// benchmark's own directory, so results from trees without git history
/// still name the code they measured.
fn source_fingerprint(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().into_owned();
        let bytes = std::fs::read(path).unwrap_or_default();
        h = body_hash(&[h.to_le_bytes().as_slice(), rel.as_bytes(), &bytes].concat());
    }
    format!("{h:016x}:{}", files.len())
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// The server settings a run used, as a JSON object.
fn server_config(cfg: &csrplus_serve::ServeConfig) -> String {
    format!(
        concat!(
            "{{\"workers\":{},\"queue_depth\":{},\"max_batch\":{},\"linger_us\":{},",
            "\"cache_capacity\":{},\"cache_shards\":{},\"timeout_ms\":{},",
            "\"cache_admission\":{},\"adaptive_linger\":{},\"degrade_rank\":{}}}"
        ),
        cfg.workers,
        cfg.queue_depth,
        cfg.max_batch,
        cfg.linger.as_micros(),
        cfg.cache_capacity,
        cfg.cache_shards,
        cfg.timeout.as_millis(),
        cfg.cache_admission,
        cfg.adaptive_linger,
        cfg.degrade_rank.map_or("null".to_string(), |r| r.to_string()),
    )
}

/// The model a run served.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelShape {
    /// Nodes.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Rank.
    pub rank: usize,
    /// Bytes of the persisted artifact (0 when none was written).
    pub artifact_bytes: u64,
}

/// The full environment block as a JSON object.
pub fn block(
    root: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
    server: &csrplus_serve::ServeConfig,
    shape: ModelShape,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        concat!(
            "{{\"commit\":{},\"source_fingerprint\":{},\"nproc\":{},\"isa\":{},",
            "\"threads\":{},\"precision\":{},\"workload\":{},\"seed\":{},\"trace\":{},",
            "\"server\":{},\"model\":{{\"n\":{},\"m\":{},\"rank\":{},\"artifact_bytes\":{}}}}}"
        ),
        commit(root).map_or("null".to_string(), |c| json::string(&c)),
        json::string(&source_fingerprint(root)),
        nproc,
        json::string(csrplus_linalg::simd::active()),
        csrplus_par::threads(),
        json::string(csrplus_core::storage_precision().name()),
        json::string(workload),
        seed,
        trace,
        server_config(server),
        shape.n,
        shape.m,
        shape.rank,
        shape.artifact_bytes,
    )
}
