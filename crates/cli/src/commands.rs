//! Command implementations.

use crate::args::{Command, Settings};
use csrplus_core::topk::select_top_k;
use csrplus_core::{exact, persist, CsrPlusConfig, CsrPlusModel};
use csrplus_graph::io::{read_snap_file, write_snap_file};
use csrplus_graph::partition::{Partitioner, Reordering};
use csrplus_graph::TransitionMatrix;
use std::error::Error;
use std::time::Instant;

/// Executes a parsed command under the process-level `settings`
/// (`threads` is already applied to the worker pool).
pub fn run(cmd: Command, settings: &Settings) -> Result<(), Box<dyn Error>> {
    let load = |path: &std::path::Path| persist::load_model_with(path, settings.store);
    match cmd {
        Command::Generate { dataset, scale, out } => {
            let t0 = Instant::now();
            let graph = dataset.spec().generate(scale)?;
            write_snap_file(&graph, &out)?;
            println!(
                "generated {} analogue: {} nodes, {} edges → {} ({:.1?})",
                dataset.name(),
                graph.num_nodes(),
                graph.num_edges(),
                out.display(),
                t0.elapsed()
            );
            Ok(())
        }
        Command::Stats { graph } => {
            let loaded = read_snap_file(&graph)?;
            let s = loaded.graph.stats();
            let comps = csrplus_graph::components::weakly_connected_components(&loaded.graph);
            println!("nodes            {}", s.nodes);
            println!("edges            {}", s.edges);
            println!("avg degree       {:.2}", s.avg_degree);
            println!("max in-degree    {}", s.max_in_degree);
            println!("max out-degree   {}", s.max_out_degree);
            println!("dangling columns {}", s.dangling_columns);
            println!("weak components  {} (giant: {} nodes)", comps.count(), comps.giant_size());
            println!("reciprocity      {:.2}", s.reciprocity);
            let hin = csrplus_graph::degree::in_degree_histogram(&loaded.graph);
            println!(
                "in-degree bins   {} (log2-binned{})",
                hin.render(),
                hin.tail_slope().map(|sl| format!(", tail slope {sl:.2}")).unwrap_or_default()
            );
            Ok(())
        }
        Command::Precompute { graph, rank, damping, epsilon, backend, reorder, out } => {
            let loaded = read_snap_file(&graph)?;
            let config = CsrPlusConfig {
                rank,
                damping,
                epsilon,
                backend,
                precision: settings.precision,
                ..Default::default()
            };
            let t0 = Instant::now();
            // Locality-aware reordering happens *before* precompute: the
            // factors are built over relabeled internal rows, and the
            // permutation rides along in the artifact so every public
            // answer still speaks original node ids.
            let perm = Partitioner::new(reorder).permutation(&loaded.graph);
            let model = if perm.is_identity() {
                let transition = TransitionMatrix::from_graph(&loaded.graph);
                CsrPlusModel::precompute(&transition, &config)?
            } else {
                let relabeled = perm.apply(&loaded.graph);
                let transition = TransitionMatrix::from_graph(&relabeled);
                CsrPlusModel::precompute(&transition, &config)?
                    .with_permutation(perm.into_order(), reorder)?
            };
            let pre = t0.elapsed();
            persist::save_model(&model, &out)?;
            println!(
                "precomputed rank-{} model over {} nodes in {:.1?} → {} ({} bytes memoised{})",
                model.rank(),
                model.n(),
                pre,
                out.display(),
                model.heap_bytes(),
                if reorder == Reordering::Identity {
                    String::new()
                } else {
                    format!(", {} ordering", reorder.name())
                }
            );
            Ok(())
        }
        Command::Query { model, nodes, top } => {
            let m = load(&model)?;
            let t0 = Instant::now();
            let s = m.multi_source(&nodes)?;
            let dt = t0.elapsed();
            match top {
                Some(k) => {
                    for (j, &q) in nodes.iter().enumerate() {
                        let top = select_top_k((0..m.n()).map(|i| (i, s.get(i, j))), k);
                        let rendered: Vec<String> =
                            top.iter().map(|(i, v)| format!("{i}:{v:.4}")).collect();
                        println!("query {q}: {}", rendered.join(" "));
                    }
                }
                None => {
                    // Full columns, one line per node.
                    print!("node");
                    for &q in &nodes {
                        print!("\tS[*,{q}]");
                    }
                    println!();
                    for i in 0..m.n() {
                        print!("{i}");
                        for j in 0..nodes.len() {
                            print!("\t{:.6}", s.get(i, j));
                        }
                        println!();
                    }
                }
            }
            eprintln!("({} nodes × {} queries in {dt:.1?})", m.n(), nodes.len());
            Ok(())
        }
        Command::Topk { model, node, k } => {
            let m = load(&model)?;
            let top = m.top_k(node, k)?;
            for (rank, (i, v)) in top.iter().enumerate() {
                println!("{:>3}. node {i:<10} {v:.6}", rank + 1);
            }
            Ok(())
        }
        Command::Join { model, threshold, limit } => {
            let m = load(&model)?;
            let t0 = Instant::now();
            let pairs = m.similarity_join(threshold, &csrplus_memtrack::MemoryBudget::default())?;
            let dt = t0.elapsed();
            for &(x, y, s) in pairs.iter().take(limit) {
                println!("{x}\t{y}\t{s:.6}");
            }
            eprintln!(
                "({} pairs ≥ {threshold} in {dt:.1?}; showing {})",
                pairs.len(),
                pairs.len().min(limit)
            );
            Ok(())
        }
        Command::Serve {
            model,
            port,
            workers,
            batch,
            linger_us,
            cache,
            timeout_ms,
            max_requests,
            shards,
            shard_timeout_ms,
            hedge_ms,
            cache_admission,
            adaptive_linger,
            degrade_rank,
            degrade_watermark,
            ingest,
            ingest_refresh,
            ingest_checkpoint,
        } => {
            let t0 = Instant::now();
            let m = load(&model)?;
            let load_time = t0.elapsed();
            let mut config = csrplus_serve::ServeConfig::default();
            if let Some(w) = workers {
                config.workers = w.max(1);
                config.queue_depth = config.workers * 16;
            }
            config.max_batch = batch.max(1);
            config.linger = std::time::Duration::from_micros(linger_us);
            config.cache_capacity = cache;
            config.timeout = std::time::Duration::from_millis(timeout_ms);
            config.max_requests = max_requests;
            config.shards = shards.clone();
            config.shard_timeout = std::time::Duration::from_millis(shard_timeout_ms);
            config.hedge = std::time::Duration::from_millis(hedge_ms);
            config.cache_admission = cache_admission;
            config.adaptive_linger = adaptive_linger;
            config.degrade_rank = degrade_rank;
            // Default watermark: half the admission queue — degradation
            // engages while there is still headroom to absorb the spike.
            config.degrade_watermark = degrade_watermark.unwrap_or(config.queue_depth / 2);
            let policies = [
                cache_admission.then_some("tinylfu-admission"),
                adaptive_linger.then_some("adaptive-linger"),
                degrade_rank.map(|_| "degrade-rank"),
            ]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>();
            if !policies.is_empty() {
                eprintln!(
                    "adaptive policies: {} (degrade rank {:?}, watermark {})",
                    policies.join(" "),
                    degrade_rank,
                    config.degrade_watermark
                );
            }
            if let Some(graph_path) = ingest {
                // The artifact donates the precompute configuration (rank,
                // damping, epsilon, backend, storage precision); the graph
                // donates the structure.
                // The dynamic engine rebuilds the factors from the graph so
                // the boot snapshot (epoch 0) reflects the graph exactly.
                let loaded = read_snap_file(&graph_path)?;
                let dyn_config = csrplus_core::dynamic::DynamicConfig {
                    base: *m.config(),
                    // The serving-layer refresh budget governs rebuilds; the
                    // engine's own interval is pushed out of the way.
                    refresh_interval: usize::MAX,
                };
                let t1 = Instant::now();
                let dynamic =
                    csrplus_core::dynamic::DynamicCsrPlus::new(&loaded.graph, dyn_config)?;
                let boot_time = t1.elapsed();
                eprintln!(
                    "live ingestion: {} nodes at rank {} precomputed from {} in {:.1?} \
                     (refresh budget {}; routes add POST /edges)",
                    dynamic.n(),
                    dynamic.model().rank(),
                    graph_path.display(),
                    boot_time,
                    if ingest_refresh == 0 {
                        "off".to_string()
                    } else {
                        ingest_refresh.to_string()
                    },
                );
                let icfg = csrplus_serve::IngestConfig {
                    refresh_budget: ingest_refresh,
                    checkpoint: ingest_checkpoint,
                };
                let f32_storage = dynamic.model().precision() == csrplus_core::Precision::F32;
                let handle = csrplus_serve::Server::start_ingesting(dynamic, port, config, icfg)?;
                handle.metrics().record_boot(load_time + boot_time, false, f32_storage);
                handle.join();
                return Ok(());
            }
            if shards.is_empty() {
                eprintln!(
                    "serving {} nodes at rank {} ({} loaded in {:.1?}; {} workers, batch ≤ {}, \
                     linger {}µs, cache {} cols; routes: /health /similarity /topk /query /metrics)",
                    m.n(),
                    m.rank(),
                    if m.is_mapped() { "mmap" } else { "owned" },
                    load_time,
                    config.workers,
                    config.max_batch,
                    linger_us,
                    cache
                );
            } else {
                eprintln!(
                    "coordinating {} nodes at rank {} over {} shards [{}] ({} loaded in {:.1?}; \
                     shard timeout {}ms, hedge {}ms, cache {} cols; routes: /health /similarity \
                     /topk /query /metrics)",
                    m.n(),
                    m.rank(),
                    shards.len(),
                    shards.join(" "),
                    if m.is_mapped() { "mmap" } else { "owned" },
                    load_time,
                    shard_timeout_ms,
                    hedge_ms,
                    cache
                );
            }
            let mapped = m.is_mapped();
            let f32_storage = m.precision() == csrplus_core::Precision::F32;
            let handle = csrplus_serve::Server::start(m, port, config)?;
            handle.metrics().record_boot(load_time, mapped, f32_storage);
            handle.join();
            Ok(())
        }
        Command::Shard {
            model,
            rows,
            port,
            workers,
            batch,
            linger_us,
            cache,
            timeout_ms,
            max_requests,
            cache_admission,
            adaptive_linger,
        } => {
            let t0 = Instant::now();
            let m = load(&model)?;
            let load_time = t0.elapsed();
            let (lo, hi) = rows;
            if hi > m.n() {
                return Err(format!("--rows {lo}:{hi} exceeds the model's {} rows", m.n()).into());
            }
            let mut config = csrplus_serve::ServeConfig::default();
            if let Some(w) = workers {
                config.workers = w.max(1);
                config.queue_depth = config.workers * 16;
            }
            config.max_batch = batch.max(1);
            config.linger = std::time::Duration::from_micros(linger_us);
            config.cache_capacity = cache;
            config.timeout = std::time::Duration::from_millis(timeout_ms);
            config.max_requests = max_requests;
            config.shard_rows = Some(rows);
            config.cache_admission = cache_admission;
            config.adaptive_linger = adaptive_linger;
            eprintln!(
                "shard serving internal rows {lo}..{hi} of {} nodes at rank {} ({} loaded in \
                 {:.1?}; {} workers; routes: /health /shard/range /shard/columns /shard/topk \
                 /metrics)",
                m.n(),
                m.rank(),
                if m.is_mapped() { "mmap" } else { "owned" },
                load_time,
                config.workers
            );
            let mapped = m.is_mapped();
            let f32_storage = m.precision() == csrplus_core::Precision::F32;
            let handle = csrplus_serve::Server::start(m, port, config)?;
            handle.metrics().record_boot(load_time, mapped, f32_storage);
            handle.join();
            Ok(())
        }
        Command::Pack { input, out } => {
            let t0 = Instant::now();
            let m = load(&input)?;
            let read = t0.elapsed();
            persist::save_model(&m, &out)?;
            let in_bytes = std::fs::metadata(&input)?.len();
            let out_bytes = std::fs::metadata(&out)?.len();
            println!(
                "packed {} ({in_bytes} bytes) → {} ({out_bytes} bytes, CSRP v{}) in {:.1?}",
                input.display(),
                out.display(),
                csrplus_store::VERSION,
                t0.elapsed()
            );
            eprintln!("(read {read:.1?}; {} nodes at rank {})", m.n(), m.rank());
            Ok(())
        }
        Command::Inspect { model, verify } => {
            // Sniff the version so legacy files get a useful report
            // instead of an error.
            let mut head = [0u8; 8];
            {
                use std::io::Read;
                std::fs::File::open(&model)?.read_exact(&mut head)?;
            }
            if &head[..4] != b"CSRP" {
                return Err("not a CSR+ model file (bad magic)".into());
            }
            let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
            let bytes = std::fs::metadata(&model)?.len();
            println!("{}: CSRP v{version}, {bytes} bytes", model.display());
            if version == 1 {
                println!("legacy streaming layout (no section table; not mmap-able)");
                println!("repack as v2 with: csrplus pack {} <out.csrp>", model.display());
                if verify {
                    let t0 = Instant::now();
                    let m = load(&model)?;
                    println!(
                        "checksum OK ({} nodes at rank {}, verified in {:.1?})",
                        m.n(),
                        m.rank(),
                        t0.elapsed()
                    );
                }
                return Ok(());
            }
            let artifact = csrplus_store::Artifact::open(&model, settings.store)?;
            println!(
                "opened {} ({} sections)",
                if artifact.is_mapped() { "memory-mapped" } else { "owned" },
                artifact.sections().len()
            );
            println!(
                "{:<16} {:>6} {:>12} {:>12} {:>14}  crc",
                "section", "dtype", "offset", "elements", "bytes"
            );
            for s in artifact.sections() {
                println!(
                    "{:<16} {:>6} {:>12} {:>12} {:>14}  {:#018x}",
                    s.name,
                    s.dtype.name(),
                    s.offset,
                    s.len,
                    s.byte_len(),
                    s.crc
                );
            }
            match artifact.section("perm") {
                None => {
                    println!("permutation      none (identity ordering; answers = internal rows)")
                }
                Some(desc) => {
                    let order = artifact.decode_u32s("perm")?;
                    let meta = artifact.decode_u64s("perm.meta")?;
                    let kind = meta
                        .first()
                        .copied()
                        .and_then(Reordering::from_tag)
                        .map(Reordering::name)
                        .unwrap_or("unknown");
                    let identity = order.iter().enumerate().all(|(i, &o)| i as u32 == o);
                    println!(
                        "permutation      {kind} ordering over {} nodes ({}, crc {:#018x})",
                        order.len(),
                        if identity { "identity" } else { "non-identity" },
                        desc.crc
                    );
                }
            }
            if verify {
                let t0 = Instant::now();
                artifact.verify()?;
                println!("all section checksums OK (verified in {:.1?})", t0.elapsed());
            }
            Ok(())
        }
        Command::Exact { graph, nodes, damping, epsilon } => {
            let loaded = read_snap_file(&graph)?;
            let transition = TransitionMatrix::from_graph(&loaded.graph);
            for &q in &nodes {
                if q >= transition.n() {
                    return Err(format!("query node {q} out of bounds").into());
                }
            }
            let s = exact::multi_source(&transition, &nodes, damping, epsilon);
            print!("node");
            for &q in &nodes {
                print!("\tS[*,{q}]");
            }
            println!();
            for i in 0..transition.n() {
                print!("{i}");
                for j in 0..nodes.len() {
                    print!("\t{:.6}", s.get(i, j));
                }
                println!();
            }
            Ok(())
        }
    }
}
