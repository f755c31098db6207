//! Hand-rolled argument parsing (no external CLI crates).

use csrplus_core::Precision;
use csrplus_datasets::{DatasetId, Scale};
use csrplus_graph::partition::Reordering;
use csrplus_store::Backend;
use std::path::PathBuf;

/// Usage text printed on parse errors.
pub const USAGE: &str = "\
usage:
  csrplus generate   --dataset <fb|p2p|yt|wt|tw|wb> [--scale test|bench] --out <graph.txt>
  csrplus stats      <graph.txt>
  csrplus precompute <graph.txt> [--rank R] [--damping C] [--epsilon E]
                     [--reorder identity|degree|rcm|labelprop] --out <model.csrp>
  csrplus query      <model.csrp> --nodes 1,3,5 [--top K]
  csrplus topk       <model.csrp> --node N [--k K]
  csrplus exact      <graph.txt> --nodes 1,3 [--damping C] [--epsilon E]
  csrplus join       <model.csrp> --threshold T [--limit N]
  csrplus serve      <model.csrp> [--port P] [--workers N] [--batch B] [--linger-us U]
                     [--cache ANSWERS] [--timeout-ms MS]
                     [--max-requests N]
                     [--cache-admission] [--adaptive-linger]
                     [--degrade-rank R [--degrade-watermark D]]
                     [--ingest <graph.txt> [--ingest-refresh N]
                      [--ingest-checkpoint <ckpt.csrp>]]
                     [--shards host:port,host:port [--shard-timeout-ms MS] [--hedge-ms MS]]
  csrplus shard      <model.csrp> --rows LO:HI [--port P] [--workers N] [--batch B]
                     [--linger-us U] [--cache ANSWERS] [--timeout-ms MS]
                     [--max-requests N] [--cache-admission] [--adaptive-linger]
  csrplus pack       <model.csrp> --out <packed.csrp>
  csrplus inspect    <model.csrp> [--verify]

global flags (any position), each overriding its environment variable:
  --threads N        cap the shared worker pool at N threads
                     (CSRPLUS_THREADS; default: available parallelism)
  --precision f64|f32
                     storage precision for newly built models: f32 halves
                     the U/Z footprint, accumulation stays f64
                     (CSRPLUS_PRECISION; default: f64; a loaded model
                     keeps the precision its file stores)

environment:
  CSRPLUS_STORE=auto|mmap|owned
                     how model files are opened: mmap borrows the factors
                     from the page cache, owned reads and verifies the
                     whole file (default: auto, mmap on Unix)";

/// A fully parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic dataset analogue as a SNAP file.
    Generate {
        /// Which dataset family.
        dataset: DatasetId,
        /// Generation scale.
        scale: Scale,
        /// Output path.
        out: PathBuf,
    },
    /// Print graph statistics.
    Stats {
        /// Graph path.
        graph: PathBuf,
    },
    /// Precompute a CSR+ model from a graph.
    Precompute {
        /// Graph path.
        graph: PathBuf,
        /// Target rank.
        rank: usize,
        /// Damping factor.
        damping: f64,
        /// Accuracy.
        epsilon: f64,
        /// Locality-aware node reordering applied before precompute.
        reorder: Reordering,
        /// Output model path.
        out: PathBuf,
    },
    /// Multi-source query against a saved model.
    Query {
        /// Model path.
        model: PathBuf,
        /// Query node ids.
        nodes: Vec<usize>,
        /// If set, print only the top-K rows per query.
        top: Option<usize>,
    },
    /// Top-k most similar nodes to a single node.
    Topk {
        /// Model path.
        model: PathBuf,
        /// The query node.
        node: usize,
        /// How many results.
        k: usize,
    },
    /// Similarity join: all pairs scoring at least a threshold.
    Join {
        /// Model path.
        model: PathBuf,
        /// Minimum similarity.
        threshold: f64,
        /// Print at most this many pairs.
        limit: usize,
    },
    /// Serve the model over HTTP (pooled, batched and cached).
    Serve {
        /// Model path.
        model: PathBuf,
        /// TCP port (0 = ephemeral; the bound address is printed).
        port: u16,
        /// Worker threads (default: available parallelism).
        workers: Option<usize>,
        /// Maximum coalesced batch size `|Q|`.
        batch: usize,
        /// Micro-batch linger window in microseconds.
        linger_us: u64,
        /// Answer-cache capacity in ranked top-k answers (0 disables).
        cache: usize,
        /// Per-request timeout in milliseconds.
        timeout_ms: u64,
        /// Serve this many connections then exit.
        max_requests: Option<usize>,
        /// Coordinator mode: scatter-gather over these shard servers.
        shards: Vec<String>,
        /// Coordinator: per-shard request budget in milliseconds.
        shard_timeout_ms: u64,
        /// Coordinator: straggler hedge delay in milliseconds (0 = off).
        hedge_ms: u64,
        /// TinyLFU admission control in front of the answer cache.
        cache_admission: bool,
        /// Load-aware batch linger (scales with queue pressure).
        adaptive_linger: bool,
        /// Pressure-degraded rank policy for opted-in requests.
        degrade_rank: Option<usize>,
        /// Queue-depth watermark for degradation (default: half the
        /// admission queue).
        degrade_watermark: Option<usize>,
        /// Live ingestion: build the serving model from this graph and
        /// accept `POST /edges` edit batches.
        ingest: Option<PathBuf>,
        /// Rebuild (full re-precompute) after this many applied edits
        /// (0 = never rebuild, incremental updates only).
        ingest_refresh: usize,
        /// Checkpoint every published epoch to this artifact path.
        ingest_checkpoint: Option<PathBuf>,
    },
    /// Serve one contiguous internal row range of a model (shard mode).
    Shard {
        /// Model path (the same artifact every shard and the coordinator
        /// open; mmap keeps the resident cost at the slice actually read).
        model: PathBuf,
        /// Internal row range `lo..hi` this shard owns.
        rows: (usize, usize),
        /// TCP port (0 = ephemeral; the bound address is printed).
        port: u16,
        /// Worker threads (default: available parallelism).
        workers: Option<usize>,
        /// Maximum coalesced batch size `|Q|`.
        batch: usize,
        /// Micro-batch linger window in microseconds.
        linger_us: u64,
        /// Answer-cache capacity in ranked top-k answers (0 disables).
        cache: usize,
        /// Per-request timeout in milliseconds.
        timeout_ms: u64,
        /// Serve this many connections then exit.
        max_requests: Option<usize>,
        /// TinyLFU admission control in front of the answer cache.
        cache_admission: bool,
        /// Load-aware batch linger (scales with queue pressure).
        adaptive_linger: bool,
    },
    /// Rewrite a model file in the current (v2, mmap-able) format.
    Pack {
        /// Input model path (any supported version).
        input: PathBuf,
        /// Output path for the repacked v2 artifact.
        out: PathBuf,
    },
    /// Print a model file's version and section table.
    Inspect {
        /// Model path.
        model: PathBuf,
        /// Also verify every section checksum (reads the whole file).
        verify: bool,
    },
    /// Exact (iterative) multi-source CoSimRank straight off the graph.
    Exact {
        /// Graph path.
        graph: PathBuf,
        /// Query node ids.
        nodes: Vec<usize>,
        /// Damping factor.
        damping: f64,
        /// Accuracy.
        epsilon: f64,
    },
}

/// Process-level settings: each comes from its global flag, else its
/// environment variable, else its default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Worker-pool cap (`--threads`, `CSRPLUS_THREADS`); `None` leaves the
    /// pool at the machine's available parallelism.
    pub threads: Option<usize>,
    /// Storage precision of newly built models (`--precision`,
    /// `CSRPLUS_PRECISION`).
    pub precision: Precision,
    /// How model files are opened (`CSRPLUS_STORE`).
    pub store: Backend,
}

/// The values of the settings' environment variables (`None`: unset).
#[derive(Debug, Clone, Copy, Default)]
pub struct Env<'a> {
    /// `CSRPLUS_THREADS`.
    pub threads: Option<&'a str>,
    /// `CSRPLUS_PRECISION`.
    pub precision: Option<&'a str>,
    /// `CSRPLUS_STORE`.
    pub store: Option<&'a str>,
}

/// Strips the global `--threads N` and `--precision P` flags (valid in
/// any position) out of `argv` and resolves every [`Settings`] field
/// against `env`.  Extracting the pairs *before* subcommand dispatch keeps
/// a value token from being mistaken for a positional argument by
/// [`parse`].  A bad value, in a flag or a variable, is an error naming
/// it — never a silent default.
pub fn extract_settings(argv: &[String], env: Env) -> Result<(Settings, Vec<String>), String> {
    let mut threads = env_setting("CSRPLUS_THREADS", env.threads, parse_threads)?;
    let mut precision = env_setting("CSRPLUS_PRECISION", env.precision, parse_precision)?;
    let store = env_setting("CSRPLUS_STORE", env.store, parse_store)?;
    let mut rest = Vec::with_capacity(argv.len());
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => threads = Some(flag_setting(arg, it.next(), parse_threads)?),
            "--precision" => precision = Some(flag_setting(arg, it.next(), parse_precision)?),
            _ => rest.push(arg.clone()),
        }
    }
    let settings = Settings {
        threads,
        precision: precision.unwrap_or(Precision::F64),
        store: store.unwrap_or(Backend::Auto),
    };
    Ok((settings, rest))
}

/// Parses a set variable's value, naming the variable in the error.
fn env_setting<T>(
    name: &str,
    value: Option<&str>,
    parse: fn(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    value.map(|v| parse(v).map_err(|e| format!("{name}: {e}"))).transpose()
}

/// Parses a flag's value token, naming the flag in the error.
fn flag_setting<T>(
    flag: &str,
    value: Option<&String>,
    parse: fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("missing value for {flag}"))?;
    parse(v).map_err(|e| format!("{flag}: {e}"))
}

/// A worker-pool cap: a positive integer.
fn parse_threads(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("invalid thread count {v:?} (expected an integer ≥ 1)")),
    }
}

/// A storage precision: `f64` or `f32`.
fn parse_precision(v: &str) -> Result<Precision, String> {
    match v {
        "f64" => Ok(Precision::F64),
        "f32" => Ok(Precision::F32),
        _ => Err(format!("unknown precision {v:?} (expected f64|f32)")),
    }
}

/// A store backend: `auto`, `mmap` or `owned`.
fn parse_store(v: &str) -> Result<Backend, String> {
    match v {
        "auto" => Ok(Backend::Auto),
        "mmap" => Ok(Backend::Mmap),
        "owned" => Ok(Backend::Owned),
        _ => Err(format!("unknown store backend {v:?} (expected auto|mmap|owned)")),
    }
}

/// Parses `argv` (without the program name).  A flag that [`USAGE`] does
/// not list for the subcommand is an error, so a misspelt or removed
/// option never falls back to its default unnoticed.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&String> = it.collect();
    let parsed = match sub.as_str() {
        "generate" => parse_generate(&rest),
        "stats" => {
            let graph = positional(&rest, 0)?;
            Ok(Command::Stats { graph })
        }
        "precompute" => parse_precompute(&rest),
        "query" => parse_query(&rest),
        "topk" => parse_topk(&rest),
        "exact" => parse_exact(&rest),
        "join" => parse_join(&rest),
        "serve" => parse_serve(&rest),
        "shard" => parse_shard(&rest),
        "pack" => Ok(Command::Pack {
            input: positional(&rest, 0)?,
            out: PathBuf::from(require(&rest, "--out")?),
        }),
        "inspect" => Ok(Command::Inspect {
            model: positional(&rest, 0)?,
            verify: has_flag(&rest, "--verify"),
        }),
        other => return Err(format!("unknown subcommand {other:?}")),
    };
    if let Some(flag) =
        rest.iter().find(|a| a.starts_with("--") && !usage_flags(sub).any(|f| f == **a))
    {
        return Err(format!("unknown flag {flag:?}"));
    }
    parsed
}

/// Every `--flag` on `sub`'s lines of [`USAGE`]: its first line and the
/// indented lines that continue it.  The usage text is the one list of
/// the flags a subcommand accepts, so it cannot fall out of step with the
/// parser.  The global flags are not on these lines; [`extract_settings`]
/// strips them first.
fn usage_flags(sub: &str) -> impl Iterator<Item = &'static str> {
    let head = format!("  csrplus {sub} ");
    USAGE
        .lines()
        .skip_while(move |line| !line.starts_with(&head))
        .enumerate()
        .take_while(|(i, line)| *i == 0 || line.starts_with("     "))
        .flat_map(|(_, line)| line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
        .filter(|word| word.starts_with("--"))
}

/// The `idx`-th token that is neither a flag nor a flag's value, so a
/// path may come after flags (`precompute --rank 3 g.txt`).  Every flag
/// takes one value except the switches [`USAGE`] writes as `[--flag]`.
fn positional(rest: &[&String], idx: usize) -> Result<PathBuf, String> {
    let mut tokens = rest.iter();
    let mut found = Vec::new();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            found.push(token);
        } else if !USAGE.contains(&format!("[{token}]")) {
            tokens.next();
        }
    }
    found.get(idx).map(PathBuf::from).ok_or_else(|| "missing positional argument".to_string())
}

fn flag_value<'a>(rest: &'a [&'a String], name: &str) -> Option<&'a str> {
    rest.iter().position(|a| *a == name).and_then(|i| rest.get(i + 1)).map(|s| s.as_str())
}

fn has_flag(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| *a == name)
}

fn require<'a>(rest: &'a [&'a String], name: &str) -> Result<&'a str, String> {
    flag_value(rest, name).ok_or_else(|| format!("missing required flag {name}"))
}

fn parse_num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {what}: {v:?}"))
}

/// The value of numeric flag `name` (`--port`), or `default` if absent.
fn num_flag<T: std::str::FromStr>(rest: &[&String], name: &str, default: T) -> Result<T, String> {
    Ok(opt_num_flag(rest, name)?.unwrap_or(default))
}

/// The value of numeric flag `name` (`--workers`), if present.
fn opt_num_flag<T: std::str::FromStr>(rest: &[&String], name: &str) -> Result<Option<T>, String> {
    flag_value(rest, name).map(|v| parse_num(v, &name[2..])).transpose()
}

fn parse_nodes(v: &str) -> Result<Vec<usize>, String> {
    let nodes: Result<Vec<usize>, _> = v.split(',').map(|p| p.trim().parse()).collect();
    let nodes = nodes.map_err(|_| format!("invalid node list: {v:?}"))?;
    if nodes.is_empty() {
        return Err("empty node list".to_string());
    }
    Ok(nodes)
}

/// Parses a `LO:HI` internal row range (half-open, `LO < HI`).
fn parse_rows(v: &str) -> Result<(usize, usize), String> {
    let (lo, hi) = v.split_once(':').ok_or_else(|| format!("invalid rows {v:?}: want LO:HI"))?;
    let lo: usize = parse_num(lo, "rows")?;
    let hi: usize = parse_num(hi, "rows")?;
    if lo >= hi {
        return Err(format!("invalid rows {v:?}: LO must be below HI"));
    }
    Ok((lo, hi))
}

/// Parses a comma-separated `host:port` list.
fn parse_shards(v: &str) -> Result<Vec<String>, String> {
    let shards: Vec<String> =
        v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
    if shards.is_empty() {
        return Err(format!("empty shard list {v:?}"));
    }
    Ok(shards)
}

fn parse_dataset(v: &str) -> Result<DatasetId, String> {
    match v.to_ascii_lowercase().as_str() {
        "fb" => Ok(DatasetId::Fb),
        "p2p" => Ok(DatasetId::P2p),
        "yt" => Ok(DatasetId::Yt),
        "wt" => Ok(DatasetId::Wt),
        "tw" => Ok(DatasetId::Tw),
        "wb" => Ok(DatasetId::Wb),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

fn parse_scale(v: Option<&str>) -> Result<Scale, String> {
    match v {
        None | Some("test") => Ok(Scale::Test),
        Some("bench") => Ok(Scale::Bench),
        Some(other) => Err(format!("unknown scale {other:?}")),
    }
}

fn parse_generate(rest: &[&String]) -> Result<Command, String> {
    Ok(Command::Generate {
        dataset: parse_dataset(require(rest, "--dataset")?)?,
        scale: parse_scale(flag_value(rest, "--scale"))?,
        out: PathBuf::from(require(rest, "--out")?),
    })
}

fn parse_precompute(rest: &[&String]) -> Result<Command, String> {
    Ok(Command::Precompute {
        graph: positional(rest, 0)?,
        rank: num_flag(rest, "--rank", 5)?,
        damping: num_flag(rest, "--damping", 0.6)?,
        epsilon: num_flag(rest, "--epsilon", 1e-5)?,
        reorder: match flag_value(rest, "--reorder") {
            None => Reordering::Identity,
            Some(v) => Reordering::parse(v).ok_or_else(|| format!("unknown reordering {v:?}"))?,
        },
        out: PathBuf::from(require(rest, "--out")?),
    })
}

fn parse_query(rest: &[&String]) -> Result<Command, String> {
    Ok(Command::Query {
        model: positional(rest, 0)?,
        nodes: parse_nodes(require(rest, "--nodes")?)?,
        top: opt_num_flag(rest, "--top")?,
    })
}

fn parse_topk(rest: &[&String]) -> Result<Command, String> {
    Ok(Command::Topk {
        model: positional(rest, 0)?,
        node: parse_num(require(rest, "--node")?, "node")?,
        k: num_flag(rest, "--k", 10)?,
    })
}

fn parse_join(rest: &[&String]) -> Result<Command, String> {
    Ok(Command::Join {
        model: positional(rest, 0)?,
        threshold: parse_num(require(rest, "--threshold")?, "threshold")?,
        limit: num_flag(rest, "--limit", 100)?,
    })
}

fn parse_serve(rest: &[&String]) -> Result<Command, String> {
    Ok(Command::Serve {
        model: positional(rest, 0)?,
        port: num_flag(rest, "--port", 8100)?,
        workers: opt_num_flag(rest, "--workers")?,
        batch: num_flag(rest, "--batch", 32)?,
        linger_us: num_flag(rest, "--linger-us", 200)?,
        cache: num_flag(rest, "--cache", 1024)?,
        timeout_ms: num_flag(rest, "--timeout-ms", 5000)?,
        max_requests: opt_num_flag(rest, "--max-requests")?,
        shards: match flag_value(rest, "--shards") {
            Some(v) => parse_shards(v)?,
            None => Vec::new(),
        },
        shard_timeout_ms: num_flag(rest, "--shard-timeout-ms", 2000)?,
        hedge_ms: num_flag(rest, "--hedge-ms", 50)?,
        cache_admission: has_flag(rest, "--cache-admission"),
        adaptive_linger: has_flag(rest, "--adaptive-linger"),
        degrade_rank: match flag_value(rest, "--degrade-rank") {
            Some(v) => {
                let r: usize = parse_num(v, "degrade-rank")?;
                if r == 0 {
                    return Err("--degrade-rank must be at least 1".to_string());
                }
                Some(r)
            }
            None => None,
        },
        degrade_watermark: match flag_value(rest, "--degrade-watermark") {
            Some(v) => {
                if !has_flag(rest, "--degrade-rank") {
                    return Err("--degrade-watermark requires --degrade-rank".to_string());
                }
                Some(parse_num(v, "degrade-watermark")?)
            }
            None => None,
        },
        ingest: match flag_value(rest, "--ingest") {
            Some(v) => {
                if has_flag(rest, "--shards") {
                    return Err(
                        "--ingest updates a local model; a coordinator has none (drop --shards)"
                            .to_string(),
                    );
                }
                Some(PathBuf::from(v))
            }
            None => {
                for flag in ["--ingest-refresh", "--ingest-checkpoint"] {
                    if has_flag(rest, flag) {
                        return Err(format!("{flag} requires --ingest"));
                    }
                }
                None
            }
        },
        ingest_refresh: num_flag(rest, "--ingest-refresh", 0)?,
        ingest_checkpoint: flag_value(rest, "--ingest-checkpoint").map(PathBuf::from),
    })
}

fn parse_shard(rest: &[&String]) -> Result<Command, String> {
    Ok(Command::Shard {
        model: positional(rest, 0)?,
        rows: parse_rows(require(rest, "--rows")?)?,
        port: num_flag(rest, "--port", 8100)?,
        workers: opt_num_flag(rest, "--workers")?,
        batch: num_flag(rest, "--batch", 32)?,
        linger_us: num_flag(rest, "--linger-us", 200)?,
        cache: num_flag(rest, "--cache", 1024)?,
        timeout_ms: num_flag(rest, "--timeout-ms", 5000)?,
        max_requests: opt_num_flag(rest, "--max-requests")?,
        cache_admission: has_flag(rest, "--cache-admission"),
        adaptive_linger: has_flag(rest, "--adaptive-linger"),
    })
}

fn parse_exact(rest: &[&String]) -> Result<Command, String> {
    Ok(Command::Exact {
        graph: positional(rest, 0)?,
        nodes: parse_nodes(require(rest, "--nodes")?)?,
        damping: num_flag(rest, "--damping", 0.6)?,
        epsilon: num_flag(rest, "--epsilon", 1e-8)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_generate_full() {
        let cmd = parse(&argv("generate --dataset fb --scale bench --out g.txt")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                dataset: DatasetId::Fb,
                scale: Scale::Bench,
                out: PathBuf::from("g.txt")
            }
        );
    }

    #[test]
    fn generate_defaults_scale_to_test() {
        let cmd = parse(&argv("generate --dataset p2p --out g.txt")).unwrap();
        assert!(matches!(cmd, Command::Generate { scale: Scale::Test, .. }));
    }

    #[test]
    fn flag_values_before_the_path_are_not_the_path() {
        match parse(&argv("precompute --rank 3 fig1.txt --out m.csrp")).unwrap() {
            Command::Precompute { graph, rank, out, .. } => {
                assert_eq!(graph, PathBuf::from("fig1.txt"));
                assert_eq!(rank, 3);
                assert_eq!(out, PathBuf::from("m.csrp"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("topk --k 2 m.csrp --node 1")).unwrap() {
            Command::Topk { model, node, k } => {
                assert_eq!(model, PathBuf::from("m.csrp"));
                assert_eq!((node, k), (1, 2));
            }
            other => panic!("{other:?}"),
        }
        // Switches take no value: the path after one is still the path.
        match parse(&argv("inspect --verify m.csrp")).unwrap() {
            Command::Inspect { model, verify } => {
                assert_eq!(model, PathBuf::from("m.csrp"));
                assert!(verify);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse(&argv("precompute --rank 3 --out m.csrp")).unwrap_err(),
            "missing positional argument"
        );
    }

    #[test]
    fn parse_precompute_defaults() {
        let cmd = parse(&argv("precompute g.txt --out m.csrp")).unwrap();
        match cmd {
            Command::Precompute { rank, damping, epsilon, .. } => {
                assert_eq!(rank, 5);
                assert_eq!(damping, 0.6);
                assert_eq!(epsilon, 1e-5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let unknown = |line: &str| parse(&argv(line)).unwrap_err();
        assert_eq!(
            unknown("precompute g.txt --backend lanczos --out m.csrp"),
            r#"unknown flag "--backend""#
        );
        assert_eq!(unknown("precompute g.txt --rnak 3 --out m.csrp"), r#"unknown flag "--rnak""#);
        assert_eq!(unknown("topk m.csrp --node 1 --kk 2"), r#"unknown flag "--kk""#);
        assert_eq!(unknown("stats g.txt --bogus"), r#"unknown flag "--bogus""#);
        // A flag of one subcommand is unknown to another.
        assert_eq!(unknown("shard m.csrp --rows 0:4 --ingest g.txt"), r#"unknown flag "--ingest""#);
        assert_eq!(unknown("inspect m.csrp --out x"), r#"unknown flag "--out""#);
    }

    #[test]
    fn parse_query_nodes_list() {
        let cmd = parse(&argv("query m.csrp --nodes 1,3,5 --top 7")).unwrap();
        match cmd {
            Command::Query { nodes, top, .. } => {
                assert_eq!(nodes, vec![1, 3, 5]);
                assert_eq!(top, Some(7));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_topk_defaults_k() {
        let cmd = parse(&argv("topk m.csrp --node 4")).unwrap();
        assert!(matches!(cmd, Command::Topk { node: 4, k: 10, .. }));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).unwrap_err().contains("unknown subcommand"));
        assert!(parse(&argv("generate --out g.txt")).unwrap_err().contains("--dataset"));
        assert!(parse(&argv("generate --dataset nope --out g"))
            .unwrap_err()
            .contains("unknown dataset"));
        assert!(parse(&argv("query m --nodes x,y")).unwrap_err().contains("invalid node list"));
        assert!(parse(&argv("query m --nodes ,")).is_err());
        assert!(parse(&argv("precompute g.txt --rank abc --out m"))
            .unwrap_err()
            .contains("invalid rank"));
    }

    #[test]
    fn parse_join() {
        let cmd = parse(&argv("join m.csrp --threshold 0.25 --limit 5")).unwrap();
        match cmd {
            Command::Join { threshold, limit, .. } => {
                assert_eq!(threshold, 0.25);
                assert_eq!(limit, 5);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("join m.csrp")).unwrap_err().contains("--threshold"));
    }

    #[test]
    fn parse_serve() {
        let cmd = parse(&argv("serve m.csrp --port 0")).unwrap();
        assert!(matches!(cmd, Command::Serve { port: 0, .. }));
        let cmd = parse(&argv("serve m.csrp")).unwrap();
        match cmd {
            Command::Serve {
                port,
                workers,
                batch,
                linger_us,
                cache,
                timeout_ms,
                max_requests,
                ..
            } => {
                assert_eq!(port, 8100);
                assert_eq!(workers, None);
                assert_eq!(batch, 32);
                assert_eq!(linger_us, 200);
                assert_eq!(cache, 1024);
                assert_eq!(timeout_ms, 5000);
                assert_eq!(max_requests, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_serve_tuning_flags() {
        let cmd = parse(&argv(
            "serve m.csrp --workers 4 --batch 16 --linger-us 50 --cache 0 \
             --timeout-ms 250 --max-requests 3",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                workers, batch, linger_us, cache, timeout_ms, max_requests, ..
            } => {
                assert_eq!(workers, Some(4));
                assert_eq!(batch, 16);
                assert_eq!(linger_us, 50);
                assert_eq!(cache, 0);
                assert_eq!(timeout_ms, 250);
                assert_eq!(max_requests, Some(3));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve m.csrp --workers lots")).unwrap_err().contains("workers"));
    }

    #[test]
    fn parse_pack_and_inspect() {
        let cmd = parse(&argv("pack old.csrp --out new.csrp")).unwrap();
        assert_eq!(
            cmd,
            Command::Pack { input: PathBuf::from("old.csrp"), out: PathBuf::from("new.csrp") }
        );
        assert!(parse(&argv("pack old.csrp")).unwrap_err().contains("--out"));

        let cmd = parse(&argv("inspect m.csrp")).unwrap();
        assert_eq!(cmd, Command::Inspect { model: PathBuf::from("m.csrp"), verify: false });
        let cmd = parse(&argv("inspect m.csrp --verify")).unwrap();
        assert!(matches!(cmd, Command::Inspect { verify: true, .. }));
    }

    #[test]
    fn exact_parses() {
        let cmd = parse(&argv("exact g.txt --nodes 0,2 --damping 0.8")).unwrap();
        match cmd {
            Command::Exact { nodes, damping, epsilon, .. } => {
                assert_eq!(nodes, vec![0, 2]);
                assert_eq!(damping, 0.8);
                assert_eq!(epsilon, 1e-8);
            }
            other => panic!("{other:?}"),
        }
    }

    fn settings(line: &str, env: Env) -> Result<(Settings, Vec<String>), String> {
        extract_settings(&argv(line), env)
    }

    #[test]
    fn settings_flags_are_stripped_in_any_position() {
        let (s, rest) = settings("--threads 4 stats g.txt", Env::default()).unwrap();
        assert_eq!(s.threads, Some(4));
        assert_eq!(parse(&rest).unwrap(), Command::Stats { graph: PathBuf::from("g.txt") });

        // After the subcommand, before the positional: the value token must
        // not be mistaken for the graph path.
        let (s, rest) =
            settings("stats --threads 2 --precision f32 g.txt", Env::default()).unwrap();
        assert_eq!((s.threads, s.precision), (Some(2), Precision::F32));
        assert_eq!(parse(&rest).unwrap(), Command::Stats { graph: PathBuf::from("g.txt") });

        let (s, rest) =
            settings("precompute g.txt --precision f64 --out m", Env::default()).unwrap();
        assert_eq!(s.precision, Precision::F64);
        assert!(matches!(parse(&rest).unwrap(), Command::Precompute { .. }));

        let (s, rest) = settings("topk m.csrp --node 4", Env::default()).unwrap();
        assert_eq!(s, Settings { threads: None, precision: Precision::F64, store: Backend::Auto });
        assert_eq!(rest, argv("topk m.csrp --node 4"));
    }

    #[test]
    fn variables_set_defaults_and_flags_override_them() {
        let env = Env { threads: Some("3"), precision: Some("f32"), store: Some("owned") };
        let (s, _) = settings("stats g.txt", env).unwrap();
        assert_eq!(
            s,
            Settings { threads: Some(3), precision: Precision::F32, store: Backend::Owned }
        );
        let (s, _) = settings("stats g.txt --threads 1 --precision f64", env).unwrap();
        assert_eq!((s.threads, s.precision), (Some(1), Precision::F64));
        for (value, backend) in [("auto", Backend::Auto), ("mmap", Backend::Mmap)] {
            let (s, _) =
                settings("stats g.txt", Env { store: Some(value), ..Env::default() }).unwrap();
            assert_eq!(s.store, backend);
        }
    }

    #[test]
    fn bad_values_are_rejected_naming_their_source() {
        let err = |line: &str, env: Env| settings(line, env).unwrap_err();
        assert!(
            err("stats g.txt --threads", Env::default()).contains("missing value for --threads")
        );
        assert!(err("stats g.txt --precision", Env::default()).contains("--precision"));
        for bad in ["lots", "0", "-1"] {
            let flag = err(&format!("--threads {bad} stats g.txt"), Env::default());
            assert!(flag.starts_with("--threads: invalid thread count"), "{flag}");
        }
        for bad in ["lots", "0", "-1", " 4", ""] {
            let var = err("stats g.txt", Env { threads: Some(bad), ..Env::default() });
            assert!(var.starts_with("CSRPLUS_THREADS: invalid thread count"), "{var}");
        }
        // The old undocumented aliases are gone along with the typos.
        for bad in ["f16", "single", "mixed", "double", ""] {
            let var = err("stats g.txt", Env { precision: Some(bad), ..Env::default() });
            assert!(var.starts_with("CSRPLUS_PRECISION: unknown precision"), "{var}");
        }
        assert!(err("--precision f16 stats g.txt", Env::default())
            .starts_with("--precision: unknown precision"));
        for bad in ["mmpa", "MMAP", ""] {
            let var = err("stats g.txt", Env { store: Some(bad), ..Env::default() });
            assert!(var.starts_with("CSRPLUS_STORE: unknown store backend"), "{var}");
        }
        // A bad variable is reported even when a flag would override it.
        let var = err("--threads 2 stats g.txt", Env { threads: Some("abc"), ..Env::default() });
        assert!(var.contains("CSRPLUS_THREADS"), "{var}");
    }

    #[test]
    fn precompute_parses_reorder_flag() {
        let cmd = parse(&argv("precompute g.txt --reorder rcm --out m.csrp")).unwrap();
        assert!(matches!(cmd, Command::Precompute { reorder: Reordering::Rcm, .. }));
        let cmd = parse(&argv("precompute g.txt --out m.csrp")).unwrap();
        assert!(matches!(cmd, Command::Precompute { reorder: Reordering::Identity, .. }));
        for name in ["identity", "degree", "rcm", "labelprop"] {
            let cmd = parse(&argv(&format!("precompute g.txt --reorder {name} --out m"))).unwrap();
            assert!(matches!(cmd, Command::Precompute { reorder, .. }
                if reorder == Reordering::parse(name).unwrap()));
        }
        assert!(parse(&argv("precompute g.txt --reorder hilbert --out m"))
            .unwrap_err()
            .contains("unknown reordering"));
    }

    #[test]
    fn shard_parses_rows_and_serve_flags() {
        let cmd = parse(&argv("shard m.csrp --rows 0:512 --port 8101 --cache 0")).unwrap();
        match cmd {
            Command::Shard { model, rows, port, cache, batch, .. } => {
                assert_eq!(model, PathBuf::from("m.csrp"));
                assert_eq!(rows, (0, 512));
                assert_eq!(port, 8101);
                assert_eq!(cache, 0);
                assert_eq!(batch, 32);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("shard m.csrp")).unwrap_err().contains("--rows"));
        assert!(parse(&argv("shard m.csrp --rows 5")).unwrap_err().contains("LO:HI"));
        assert!(parse(&argv("shard m.csrp --rows 5:5")).unwrap_err().contains("below"));
        assert!(parse(&argv("shard m.csrp --rows a:b")).unwrap_err().contains("invalid rows"));
    }

    #[test]
    fn serve_parses_coordinator_flags() {
        let cmd = parse(&argv(
            "serve m.csrp --shards 127.0.0.1:8101,127.0.0.1:8102 \
             --shard-timeout-ms 750 --hedge-ms 0",
        ))
        .unwrap();
        match cmd {
            Command::Serve { shards, shard_timeout_ms, hedge_ms, .. } => {
                assert_eq!(shards, vec!["127.0.0.1:8101", "127.0.0.1:8102"]);
                assert_eq!(shard_timeout_ms, 750);
                assert_eq!(hedge_ms, 0);
            }
            other => panic!("{other:?}"),
        }
        // No --shards ⇒ local serving with the documented defaults.
        let cmd = parse(&argv("serve m.csrp")).unwrap();
        match cmd {
            Command::Serve { shards, shard_timeout_ms, hedge_ms, .. } => {
                assert!(shards.is_empty());
                assert_eq!(shard_timeout_ms, 2000);
                assert_eq!(hedge_ms, 50);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve m.csrp --shards ,")).unwrap_err().contains("empty shard"));
    }

    #[test]
    fn serve_parses_adaptive_policy_flags() {
        // All three policies default off: today's exact-serving behaviour.
        let cmd = parse(&argv("serve m.csrp")).unwrap();
        match cmd {
            Command::Serve {
                cache_admission,
                adaptive_linger,
                degrade_rank,
                degrade_watermark,
                ..
            } => {
                assert!(!cache_admission);
                assert!(!adaptive_linger);
                assert_eq!(degrade_rank, None);
                assert_eq!(degrade_watermark, None);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "serve m.csrp --cache-admission --adaptive-linger \
             --degrade-rank 16 --degrade-watermark 8",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                cache_admission,
                adaptive_linger,
                degrade_rank,
                degrade_watermark,
                ..
            } => {
                assert!(cache_admission);
                assert!(adaptive_linger);
                assert_eq!(degrade_rank, Some(16));
                assert_eq!(degrade_watermark, Some(8));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve m.csrp --degrade-rank 0")).unwrap_err().contains("at least 1"));
        assert!(parse(&argv("serve m.csrp --degrade-watermark 4"))
            .unwrap_err()
            .contains("requires --degrade-rank"));
        assert!(parse(&argv("serve m.csrp --degrade-rank lots"))
            .unwrap_err()
            .contains("invalid degrade-rank"));
    }

    #[test]
    fn serve_parses_ingestion_flags() {
        // Ingestion defaults off: today's immutable-model serving.
        let cmd = parse(&argv("serve m.csrp")).unwrap();
        match cmd {
            Command::Serve { ingest, ingest_refresh, ingest_checkpoint, .. } => {
                assert_eq!(ingest, None);
                assert_eq!(ingest_refresh, 0);
                assert_eq!(ingest_checkpoint, None);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "serve m.csrp --ingest g.txt \
             --ingest-refresh 64 --ingest-checkpoint ckpt.csrp",
        ))
        .unwrap();
        match cmd {
            Command::Serve { ingest, ingest_refresh, ingest_checkpoint, .. } => {
                assert_eq!(ingest, Some(PathBuf::from("g.txt")));
                assert_eq!(ingest_refresh, 64);
                assert_eq!(ingest_checkpoint, Some(PathBuf::from("ckpt.csrp")));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve m.csrp --ingest g.txt --shards 127.0.0.1:8101"))
            .unwrap_err()
            .contains("drop --shards"));
        assert!(parse(&argv("serve m.csrp --ingest-refresh 8"))
            .unwrap_err()
            .contains("requires --ingest"));
        assert!(parse(&argv("serve m.csrp --ingest-checkpoint ckpt.csrp"))
            .unwrap_err()
            .contains("requires --ingest"));
    }

    #[test]
    fn shard_parses_adaptive_policy_flags() {
        let cmd = parse(&argv("shard m.csrp --rows 0:4")).unwrap();
        assert!(matches!(
            cmd,
            Command::Shard { cache_admission: false, adaptive_linger: false, .. }
        ));
        let cmd =
            parse(&argv("shard m.csrp --rows 0:4 --cache-admission --adaptive-linger")).unwrap();
        assert!(matches!(cmd, Command::Shard { cache_admission: true, adaptive_linger: true, .. }));
    }

    #[test]
    fn all_dataset_names_parse() {
        for (name, id) in [
            ("fb", DatasetId::Fb),
            ("p2p", DatasetId::P2p),
            ("yt", DatasetId::Yt),
            ("wt", DatasetId::Wt),
            ("tw", DatasetId::Tw),
            ("wb", DatasetId::Wb),
        ] {
            assert_eq!(parse_dataset(name).unwrap(), id);
            assert_eq!(parse_dataset(&name.to_uppercase()).unwrap(), id);
        }
    }
}
