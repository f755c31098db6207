//! Binary persistence for precomputed CSR+ models.
//!
//! The whole point of the precompute/query split is to pay the SVD once;
//! this module makes the memoised state durable so a service can load a
//! model at startup and answer queries immediately.
//!
//! Two format versions share the `CSRP` magic:
//!
//! * **v2** (written by [`write_model`] / [`save_model`]) is the
//!   `csrplus-store` artifact layout: 64-byte-aligned little-endian
//!   sections behind a checksummed section table (see
//!   [`csrplus_store::format`]).  Sections: `meta` (u64 header fields),
//!   `sigma`/`u`/`z`/`p`/`h0` (the factors), and `perm`/`perm.meta` for
//!   a reordered model.  Files from older writers also carry Z norm
//!   tables (`zn.norm`, `zn.id`, `zs`); the reader ignores them.  v2
//!   files can be *memory-mapped*: [`load_model`] (the `auto` backend;
//!   [`load_model_with`] takes an explicit one) borrows `U`/`Z` straight
//!   off the page cache, making time-to-first-query independent of model
//!   size.
//! * **v1** is the legacy streaming layout (header + raw f64 payloads +
//!   trailing FNV-1a).  v1 files still load — through the slow
//!   fully-deserialising path — and `csrplus pack` rewrites them as v2.
//!
//! Both headers keep a slot for the truncated-SVD backend that built the
//! model.  Writers store 0 (randomized subspace iteration, the only
//! backend); readers also accept 1, the tag of a second backend that
//! older builds offered, and reject any other value as `Malformed`.  The
//! tag never changed how a file loads or answers.  It only told a rebuild
//! (`serve --ingest`, [`crate::dynamic::DynamicCsrPlus`]) which SVD to
//! run, and every rebuild now runs the randomized one.
//!
//! The writer streams: payload bytes pass through fixed stack scratch
//! buffers with checksums folded in on the way, so saving never buffers
//! a payload and peak RSS stays O(1) in the model size (pinned by an
//! allocation-regression test).

use crate::config::CsrPlusConfig;
use crate::error::CoSimRankError;
use crate::factor::{DenseMatrixF32, Factor};
use crate::model::CsrPlusModel;
use crate::precision::Precision;
use csrplus_graph::partition::Reordering;
use csrplus_linalg::DenseMatrix;
use csrplus_store::{Artifact, ArtifactWriter, Backend, DType, StoreError};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"CSRP";
const VERSION_V1: u32 = 1;
const VERSION: u32 = 2;

/// Sanity bound on element counts before allocating: a corrupt header
/// must not OOM us.
const MAX_ELEMENTS: usize = 1 << 36;

/// Errors specific to model (de)serialisation.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a CSR+ model (bad magic).
    BadMagic,
    /// The file uses an unsupported format version.
    UnsupportedVersion(u32),
    /// The checksum did not match (truncation or corruption).
    ChecksumMismatch {
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The payload is internally inconsistent (e.g. absurd sizes).
    Malformed(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => write!(f, "not a CSR+ model file (bad magic)"),
            PersistError::UnsupportedVersion(v) => write!(
                f,
                "unsupported model version {v}: rewrite the file as the current format \
                 with `csrplus pack <model> <out>` on a build that reads version {v}"
            ),
            PersistError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: stored {expected:#x}, computed {actual:#x}")
            }
            PersistError::Malformed(m) => write!(f, "malformed model file: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<StoreError> for PersistError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => PersistError::Io(e),
            StoreError::BadMagic => PersistError::BadMagic,
            StoreError::UnsupportedVersion(v) => PersistError::UnsupportedVersion(v),
            StoreError::ChecksumMismatch { expected, actual, .. } => {
                PersistError::ChecksumMismatch { expected, actual }
            }
            StoreError::Malformed(m) => PersistError::Malformed(m),
        }
    }
}

/// FNV-1a, the integrity (not security) checksum of the format.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// A writer that checksums everything passing through it (v1 format).
struct HashingWriter<W: Write> {
    inner: W,
    hash: Fnv1a,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter { inner, hash: Fnv1a::new() }
    }

    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_f64(&mut self, v: f64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_f64_slice(&mut self, vs: &[f64]) -> io::Result<()> {
        for &v in vs {
            self.put_f64(v)?;
        }
        Ok(())
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash.update(bytes);
        self.inner.write_all(bytes)
    }
}

/// A reader that checksums everything passing through it (v1 format).
struct HashingReader<R: Read> {
    inner: R,
    hash: Fnv1a,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader { inner, hash: Fnv1a::new() }
    }

    fn get_u32(&mut self) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        self.get(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn get_u64(&mut self) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        self.get(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn get_f64(&mut self) -> Result<f64, PersistError> {
        let mut b = [0u8; 8];
        self.get(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }

    fn get_f64_vec(&mut self, len: usize) -> Result<Vec<f64>, PersistError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    fn get(&mut self, buf: &mut [u8]) -> Result<(), PersistError> {
        self.inner.read_exact(buf)?;
        self.hash.update(buf);
        Ok(())
    }
}

/// The SVD-backend tag every writer stores: randomized subspace
/// iteration.  Readers also accept 1, which older builds wrote for their
/// Golub–Kahan–Lanczos backend (see the module doc).
const SVD_TAG: u64 = 0;

fn check_svd_tag(tag: u64) -> Result<(), PersistError> {
    match tag {
        0 | 1 => Ok(()),
        other => Err(PersistError::Malformed(format!("unknown SVD backend tag {other}"))),
    }
}

/// Serialises a model to any writer in the current (v2, mmap-able)
/// format.
///
/// The payload streams through fixed stack buffers — nothing is
/// buffered, so saving a model allocates O(1) memory regardless of size.
///
/// ```
/// use csrplus_core::{persist, CsrPlusConfig, CsrPlusModel};
/// use csrplus_graph::{generators::figure1_graph, TransitionMatrix};
///
/// let t = TransitionMatrix::from_graph(&figure1_graph());
/// let model = CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(3)).unwrap();
/// let mut buf = Vec::new();
/// persist::write_model(&model, &mut buf)?;
/// let loaded = persist::read_model(buf.as_slice())?;
/// assert_eq!(loaded.n(), 6);
/// # Ok::<(), csrplus_core::persist::PersistError>(())
/// ```
pub fn write_model<W: Write>(model: &CsrPlusModel, writer: W) -> Result<(), PersistError> {
    write_model_with_epoch(model, writer, 0)
}

/// [`write_model`] stamping an ingestion `epoch` into the artifact
/// header — how a live-updating server checkpoints a published snapshot
/// so a restart knows which model version the file holds.  Epoch 0
/// produces bytes identical to [`write_model`].
pub fn write_model_with_epoch<W: Write>(
    model: &CsrPlusModel,
    writer: W,
    epoch: u64,
) -> Result<(), PersistError> {
    let mut w = ArtifactWriter::with_epoch(writer, epoch)?;
    let cfg = model.config();
    let (n, r) = (model.n(), model.rank());
    w.section_u64s(
        "meta",
        &[
            n as u64,
            r as u64,
            cfg.oversample as u64,
            cfg.power_iterations as u64,
            cfg.seed,
            SVD_TAG,
            cfg.damping.to_bits(),
            cfg.epsilon.to_bits(),
        ],
    )?;
    w.section_f64s("sigma", model.sigma())?;
    write_factor(&mut w, "u", model.u())?;
    write_factor(&mut w, "z", model.z())?;
    w.section_f64s("p", model.p().as_slice())?;
    w.section_f64s("h0", model.h0().as_slice())?;

    // Node permutation (only when the model was built on a reordered
    // graph): `perm` holds `order[internal] = original` and `perm.meta`
    // the reordering strategy tag.  Absent sections mean identity, so
    // permutation-free artifacts stay byte-identical to older writers.
    if let Some(perm) = model.permutation() {
        w.begin_section("perm", DType::U32)?;
        for chunk in perm.order().chunks(512) {
            w.put_u32s(chunk)?;
        }
        w.end_section()?;
        w.section_u64s("perm.meta", &[perm.kind().tag()])?;
    }
    w.finish()?;
    Ok(())
}

/// Writes a dense factor section in its storage precision — the section
/// dtype (`F64` / `F32`) is what tells the loader which precision the
/// model was built with.
fn write_factor<W: Write>(
    w: &mut ArtifactWriter<W>,
    name: &str,
    f: &Factor,
) -> Result<(), PersistError> {
    match f.precision() {
        Precision::F64 => w.section_f64s(name, f.as_slice())?,
        Precision::F32 => w.section_f32s(name, f.as_f32_slice())?,
    }
    Ok(())
}

/// Serialises a model in the legacy v1 streaming format (kept for
/// migration tests and cross-version tooling; new files should use
/// [`write_model`]).
pub fn write_model_v1<W: Write>(model: &CsrPlusModel, writer: W) -> Result<(), PersistError> {
    if model.permutation().is_some() {
        // v1 has no place for the id mapping; silently dropping it would
        // make every answer come back in the wrong id space.
        return Err(PersistError::Malformed(
            "v1 format cannot carry a node permutation; save as v2 with write_model".into(),
        ));
    }
    let mut w = HashingWriter::new(writer);
    w.inner.write_all(&MAGIC)?;
    w.put_u32(VERSION_V1)?;
    let cfg = model.config();
    let (n, r) = (model.n(), model.rank());
    w.put_u64(n as u64)?;
    w.put_u64(r as u64)?;
    w.put_f64(cfg.damping)?;
    w.put_f64(cfg.epsilon)?;
    w.put_u64(cfg.oversample as u64)?;
    w.put_u64(cfg.power_iterations as u64)?;
    w.put_u64(cfg.seed)?;
    w.put_u64(SVD_TAG)?;
    w.put_f64_slice(model.sigma())?;
    // v1 stays an f64-only format: f32-storage factors are widened on the
    // way out (lossless — every f32 is exactly representable in f64).
    put_factor_widened(&mut w, model.u())?;
    put_factor_widened(&mut w, model.z())?;
    w.put_f64_slice(model.p().as_slice())?;
    w.put_f64_slice(model.h0().as_slice())?;
    let crc = w.hash.0;
    w.inner.write_all(&crc.to_le_bytes())?;
    w.inner.flush()?;
    Ok(())
}

fn put_factor_widened<W: Write>(w: &mut HashingWriter<W>, f: &Factor) -> Result<(), PersistError> {
    match f.precision() {
        Precision::F64 => w.put_f64_slice(f.as_slice())?,
        Precision::F32 => {
            let mut buf = [0f64; 256];
            for chunk in f.as_f32_slice().chunks(256) {
                for (slot, &v) in buf.iter_mut().zip(chunk.iter()) {
                    *slot = f64::from(v);
                }
                w.put_f64_slice(&buf[..chunk.len()])?;
            }
        }
    }
    Ok(())
}

/// Deserialises a model from any reader, accepting both the current v2
/// artifact layout and legacy v1 files (with integrity verification —
/// reader-based loads always fully deserialise; use [`load_model`] for
/// the zero-copy mmap path).
pub fn read_model<R: Read>(mut reader: R) -> Result<CsrPlusModel, PersistError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let mut r = HashingReader::new(reader);
    let version = r.get_u32()?;
    match version {
        VERSION_V1 => read_model_v1_body(r),
        VERSION => {
            // Reassemble the full byte stream and hand it to the store's
            // eagerly-verifying parser.
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&magic);
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            r.inner.read_to_end(&mut bytes)?;
            let artifact = Artifact::from_bytes(&bytes)?;
            model_from_artifact(&artifact)
        }
        other => Err(PersistError::UnsupportedVersion(other)),
    }
}

/// The v1 body (everything after the version field), `r`'s hash already
/// primed with the version bytes as the v1 checksum expects.
fn read_model_v1_body<R: Read>(mut r: HashingReader<R>) -> Result<CsrPlusModel, PersistError> {
    let n = r.get_u64()? as usize;
    let rank = r.get_u64()? as usize;
    if rank == 0 || rank > n || n.saturating_mul(rank) > MAX_ELEMENTS {
        return Err(PersistError::Malformed(format!("implausible sizes n={n} r={rank}")));
    }
    let damping = r.get_f64()?;
    let epsilon = r.get_f64()?;
    let oversample = r.get_u64()? as usize;
    let power_iterations = r.get_u64()? as usize;
    let seed = r.get_u64()?;
    check_svd_tag(r.get_u64()?)?;
    let sigma = r.get_f64_vec(rank)?;
    let u = r.get_f64_vec(n * rank)?;
    let z = r.get_f64_vec(n * rank)?;
    let p = r.get_f64_vec(rank * rank)?;
    let h0 = r.get_f64_vec(rank * rank)?;
    let actual = r.hash.0;
    let mut crc_bytes = [0u8; 8];
    r.inner.read_exact(&mut crc_bytes)?;
    let expected = u64::from_le_bytes(crc_bytes);
    if expected != actual {
        return Err(PersistError::ChecksumMismatch { expected, actual });
    }

    let mk = |rows: usize, cols: usize, data: Vec<f64>| -> Result<DenseMatrix, PersistError> {
        DenseMatrix::from_vec(rows, cols, data).map_err(|e| PersistError::Malformed(e.to_string()))
    };
    let config = CsrPlusConfig {
        damping,
        rank,
        epsilon,
        oversample,
        power_iterations,
        seed,
        precision: Precision::F64,
    };
    CsrPlusModel::from_parts(
        config,
        n,
        mk(n, rank, u)?,
        mk(n, rank, z)?,
        sigma,
        mk(rank, rank, p)?,
        mk(rank, rank, h0)?,
    )
    .map_err(|e: CoSimRankError| PersistError::Malformed(e.to_string()))
}

/// Builds a model from a parsed v2 artifact.  Owned artifacts decode the
/// factors into heap buffers; mapped artifacts borrow `U` and `Z`
/// zero-copy, leaving their pages untouched until the first query.
pub fn model_from_artifact(artifact: &Artifact) -> Result<CsrPlusModel, PersistError> {
    let meta = artifact.decode_u64s("meta")?;
    if meta.len() != 8 {
        return Err(PersistError::Malformed(format!(
            "meta section has {} fields, expected 8",
            meta.len()
        )));
    }
    let n = meta[0] as usize;
    let rank = meta[1] as usize;
    if rank == 0 || rank > n || n.saturating_mul(rank) > MAX_ELEMENTS {
        return Err(PersistError::Malformed(format!("implausible sizes n={n} r={rank}")));
    }
    // The section dtype — not any caller setting — decides the
    // precision, so a file always loads (and rebuilds) the way it was
    // built.
    let f32_factors = match artifact.section("u") {
        Some(s) => s.dtype == DType::F32,
        None => false,
    };
    check_svd_tag(meta[5])?;
    let config = CsrPlusConfig {
        damping: f64::from_bits(meta[6]),
        rank,
        epsilon: f64::from_bits(meta[7]),
        oversample: meta[2] as usize,
        power_iterations: meta[3] as usize,
        seed: meta[4],
        precision: if f32_factors { Precision::F32 } else { Precision::F64 },
    };
    let sigma = artifact.decode_f64s("sigma")?;
    if sigma.len() != rank {
        return Err(PersistError::Malformed(format!(
            "sigma holds {} values, expected rank {rank}",
            sigma.len()
        )));
    }
    let mk = |rows: usize, cols: usize, data: Vec<f64>| -> Result<DenseMatrix, PersistError> {
        DenseMatrix::from_vec(rows, cols, data).map_err(|e| PersistError::Malformed(e.to_string()))
    };
    let p = mk(rank, rank, artifact.decode_f64s("p")?)?;
    let h0 = mk(rank, rank, artifact.decode_f64s("h0")?)?;
    // The big factors: zero-copy off a mapped region, owned otherwise.
    let mk32 = |rows: usize, cols: usize, data: Vec<f32>| -> Result<DenseMatrixF32, PersistError> {
        DenseMatrixF32::from_vec(rows, cols, data)
            .map_err(|e| PersistError::Malformed(e.to_string()))
    };
    let (u, z) = match (artifact.is_mapped(), f32_factors) {
        (true, false) => (
            Factor::Mapped(artifact.matrix("u", n, rank)?),
            Factor::Mapped(artifact.matrix("z", n, rank)?),
        ),
        (true, true) => (
            Factor::MappedF32(artifact.matrix_f32("u", n, rank)?),
            Factor::MappedF32(artifact.matrix_f32("z", n, rank)?),
        ),
        (false, false) => (
            Factor::Owned(mk(n, rank, artifact.decode_f64s("u")?)?),
            Factor::Owned(mk(n, rank, artifact.decode_f64s("z")?)?),
        ),
        (false, true) => (
            Factor::OwnedF32(mk32(n, rank, artifact.decode_f32s("u")?)?),
            Factor::OwnedF32(mk32(n, rank, artifact.decode_f32s("z")?)?),
        ),
    };
    let model = CsrPlusModel::from_factors(config, n, u, z, sigma, p, h0)
        .map_err(|e: CoSimRankError| PersistError::Malformed(e.to_string()))?;
    // Optional node permutation (reordered-graph artifacts).
    match artifact.section("perm") {
        None => Ok(model),
        Some(_) => {
            let order = artifact.decode_u32s("perm")?;
            let meta = artifact.decode_u64s("perm.meta")?;
            let &[tag] = meta.as_slice() else {
                return Err(PersistError::Malformed(format!(
                    "perm.meta has {} fields, expected 1",
                    meta.len()
                )));
            };
            let kind = Reordering::from_tag(tag)
                .ok_or_else(|| PersistError::Malformed(format!("unknown reordering tag {tag}")))?;
            model.with_permutation(order, kind).map_err(|e| PersistError::Malformed(e.to_string()))
        }
    }
}

/// Saves a model to a file path (v2 format, streaming).
pub fn save_model<P: AsRef<Path>>(model: &CsrPlusModel, path: P) -> Result<(), PersistError> {
    save_model_with_epoch(model, path, 0)
}

/// [`save_model`] stamping an ingestion `epoch` into the artifact header
/// (see [`write_model_with_epoch`]).
pub fn save_model_with_epoch<P: AsRef<Path>>(
    model: &CsrPlusModel,
    path: P,
    epoch: u64,
) -> Result<(), PersistError> {
    let file = std::fs::File::create(path)?;
    write_model_with_epoch(model, io::BufWriter::new(file), epoch)
}

/// Reads the ingestion epoch stamped in a v2 artifact's header without
/// loading the model (v1 files and default v2 files report 0).
pub fn saved_epoch<P: AsRef<Path>>(path: P) -> Result<u64, PersistError> {
    let mut head = [0u8; 16];
    let mut f = std::fs::File::open(path)?;
    f.read_exact(&mut head)?;
    if head[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    match u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")) {
        VERSION_V1 => Ok(0),
        VERSION => Ok(u64::from_le_bytes(head[8..16].try_into().expect("8 bytes"))),
        other => Err(PersistError::UnsupportedVersion(other)),
    }
}

/// Loads a model from a file path with [`Backend::Auto`].
///
/// v2 files honour the backend — under `mmap` (what `auto` picks on
/// Unix) the dense factors are borrowed from the page cache and
/// time-to-first-query is independent of model size.  v1 files take the
/// legacy fully-deserialising path; repack them with `csrplus pack`.
pub fn load_model<P: AsRef<Path>>(path: P) -> Result<CsrPlusModel, PersistError> {
    load_model_with(path, Backend::Auto)
}

/// [`load_model`] with an explicit [`Backend`] choice.
pub fn load_model_with<P: AsRef<Path>>(
    path: P,
    backend: Backend,
) -> Result<CsrPlusModel, PersistError> {
    let path = path.as_ref();
    // Sniff the version to route v1 files to the legacy reader.
    let mut head = [0u8; 8];
    {
        let mut f = std::fs::File::open(path)?;
        f.read_exact(&mut head)?;
    }
    if head[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    match u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")) {
        VERSION_V1 => {
            let file = std::fs::File::open(path)?;
            read_model(io::BufReader::new(file))
        }
        VERSION => {
            let artifact = Artifact::open(path, backend)?;
            model_from_artifact(&artifact)
        }
        other => Err(PersistError::UnsupportedVersion(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csrplus_graph::generators::figure1_graph;
    use csrplus_graph::TransitionMatrix;

    fn model() -> CsrPlusModel {
        let t = TransitionMatrix::from_graph(&figure1_graph());
        CsrPlusModel::precompute(&t, &CsrPlusConfig::with_rank(3)).unwrap()
    }

    #[test]
    fn round_trip_preserves_queries() {
        let m = model();
        let mut buf = Vec::new();
        write_model(&m, &mut buf).unwrap();
        let loaded = read_model(buf.as_slice()).unwrap();
        let a = m.multi_source(&[1, 3]).unwrap();
        let b = loaded.multi_source(&[1, 3]).unwrap();
        assert!(a.approx_eq(&b, 0.0), "loaded model must answer identically");
        assert_eq!(loaded.config(), m.config());
        assert_eq!(loaded.sigma(), m.sigma());
    }

    #[test]
    fn v1_files_still_load() {
        let m = model();
        let mut buf = Vec::new();
        write_model_v1(&m, &mut buf).unwrap();
        let loaded = read_model(buf.as_slice()).unwrap();
        let a = m.multi_source(&[1, 3]).unwrap();
        let b = loaded.multi_source(&[1, 3]).unwrap();
        assert!(a.approx_eq(&b, 0.0), "v1 model must answer identically");
        assert_eq!(loaded.config(), m.config());
        // And re-saving goes out as v2 — the `pack` migration.
        let mut repacked = Vec::new();
        write_model(&loaded, &mut repacked).unwrap();
        assert_eq!(u32::from_le_bytes(repacked[4..8].try_into().unwrap()), VERSION);
        let re = read_model(repacked.as_slice()).unwrap();
        assert!(re.multi_source(&[1, 3]).unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn file_round_trip() {
        let m = model();
        let dir = std::env::temp_dir().join("csrplus_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.csrp");
        save_model(&m, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.n(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn epoch_stamped_checkpoints_round_trip() {
        let m = model();
        let dir = std::env::temp_dir().join("csrplus_persist_test_epoch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.csrp");
        save_model(&m, &path).unwrap();
        assert_eq!(saved_epoch(&path).unwrap(), 0);
        save_model_with_epoch(&m, &path, 17).unwrap();
        assert_eq!(saved_epoch(&path).unwrap(), 17);
        // An epoch-stamped checkpoint is still an ordinary loadable model.
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.n(), 6);
        // And a zero-epoch write is byte-identical to the default writer.
        let mut plain = Vec::new();
        let mut zeroed = Vec::new();
        write_model(&m, &mut plain).unwrap();
        write_model_with_epoch(&m, &mut zeroed, 0).unwrap();
        assert_eq!(plain, zeroed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_and_owned_loads_answer_bitwise_identically() {
        let m = model();
        let dir = std::env::temp_dir().join("csrplus_persist_test_mmap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.csrp");
        save_model(&m, &path).unwrap();
        let owned = load_model_with(&path, Backend::Owned).unwrap();
        let mapped = load_model_with(&path, Backend::Mmap).unwrap();
        if cfg!(unix) {
            assert!(mapped.is_mapped(), "mmap backend must map on unix");
        }
        assert!(!owned.is_mapped());
        // Bit-identical factors, in whichever precision the artifact
        // stores them.
        for (a, b) in [(owned.u(), mapped.u()), (owned.z(), mapped.z())] {
            assert_eq!(a.precision(), b.precision());
            if a.precision() == Precision::F32 {
                assert_eq!(a.as_f32_slice(), b.as_f32_slice());
            } else {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
        let a = owned.multi_source(&[1, 3]).unwrap();
        let b = mapped.multi_source(&[1, 3]).unwrap();
        assert!(a.approx_eq(&b, 0.0), "mapped answers must be bitwise identical");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn permutation_round_trips_through_v2() {
        let m = model().with_permutation(vec![5, 3, 0, 1, 4, 2], Reordering::Rcm).unwrap();
        let mut buf = Vec::new();
        write_model(&m, &mut buf).unwrap();
        let loaded = read_model(buf.as_slice()).unwrap();
        let p = loaded.permutation().expect("permutation survives the round trip");
        assert_eq!(p.kind(), Reordering::Rcm);
        assert_eq!(p.order(), &[5, 3, 0, 1, 4, 2]);
        let a = m.multi_source(&[1, 3]).unwrap();
        let b = loaded.multi_source(&[1, 3]).unwrap();
        assert!(a.approx_eq(&b, 0.0), "permuted model must answer identically after reload");
        assert_eq!(m.top_k(0, 3).unwrap(), loaded.top_k(0, 3).unwrap());
        // Mapped and owned loads agree on the permuted model too.
        let dir = std::env::temp_dir().join("csrplus_persist_test_perm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.csrp");
        save_model(&m, &path).unwrap();
        let mapped = load_model_with(&path, Backend::Mmap).unwrap();
        assert_eq!(mapped.permutation().unwrap().order(), p.order());
        assert!(mapped.multi_source(&[1, 3]).unwrap().approx_eq(&a, 0.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_writer_rejects_permuted_models() {
        let m = model().with_permutation(vec![5, 3, 0, 1, 4, 2], Reordering::Rcm).unwrap();
        let err = write_model_v1(&m, Vec::new()).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("permutation"), "{err}");
    }

    #[test]
    fn identity_models_write_no_perm_section() {
        let m = model();
        let mut buf = Vec::new();
        write_model(&m, &mut buf).unwrap();
        let artifact = Artifact::from_bytes(&buf).unwrap();
        assert!(artifact.section("perm").is_none());
        assert!(artifact.section("perm.meta").is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_model(&b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let m = model();
        let mut buf = Vec::new();
        write_model(&m, &mut buf).unwrap();
        buf.truncate(buf.len() - 12);
        let err = read_model(buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::Io(_)
                    | PersistError::Malformed(_)
                    | PersistError::ChecksumMismatch { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let m = model();
        let mut buf = Vec::new();
        write_model(&m, &mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        let err = read_model(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. } | PersistError::Malformed(_)),
            "{err}"
        );
    }

    #[test]
    fn wrong_version_rejected_with_repack_hint() {
        let m = model();
        let mut buf = Vec::new();
        write_model(&m, &mut buf).unwrap();
        buf[4] = 99; // bump the version field
        let err = read_model(buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::UnsupportedVersion(_)), "{err}");
        assert!(err.to_string().contains("csrplus pack"), "{err}");
    }

    /// `m` written as v2 with `tag` in the SVD-backend slot of `meta`.
    fn v2_with_svd_tag(m: &CsrPlusModel, tag: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_model(m, &mut buf).unwrap();
        let artifact = Artifact::from_bytes(&buf).unwrap();
        let mut meta = artifact.decode_u64s("meta").unwrap();
        meta[5] = tag;
        let mut w = ArtifactWriter::new(Vec::new()).unwrap();
        w.section_u64s("meta", &meta).unwrap();
        for name in ["sigma", "u", "z", "p", "h0"] {
            w.section_f64s(name, &artifact.decode_f64s(name).unwrap()).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn implausible_header_rejected_before_allocation() {
        // Hand-craft a v1 header claiming n = u64::MAX.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CSRP");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&5u64.to_le_bytes()); // r
        buf.extend_from_slice(&[0u8; 64]); // enough trailing bytes
        let err = read_model(buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err}");

        // The SVD-backend slot: 0 is what this build writes, 1 an older
        // build's second backend, and 2 names nothing.
        let m = model();
        let mut plain = Vec::new();
        write_model(&m, &mut plain).unwrap();
        assert_eq!(v2_with_svd_tag(&m, SVD_TAG), plain);
        let tagged_1 = read_model(v2_with_svd_tag(&m, 1).as_slice()).unwrap();
        assert_eq!(tagged_1.multi_source(&[1, 3]).unwrap(), m.multi_source(&[1, 3]).unwrap());
        let err = read_model(v2_with_svd_tag(&m, 2).as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("SVD backend tag 2"), "{err}");
    }

    #[test]
    fn display_formats() {
        let e = PersistError::ChecksumMismatch { expected: 1, actual: 2 };
        assert!(e.to_string().contains("checksum"));
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        assert!(PersistError::UnsupportedVersion(7).to_string().contains("7"));
    }
}
