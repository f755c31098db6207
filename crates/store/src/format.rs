//! The `CSRP` v2 artifact format: streaming writer and validating reader.
//!
//! ```text
//! offset 0    ┌──────────────────────────────────────────────┐
//!             │ header (64 B): "CSRP" · version=2 u32 ·      │
//!             │ epoch u64 · epoch·FNV_PRIME u64 (check) ·    │
//!             │ 40 reserved zero bytes                       │
//! offset 64   ├──────────────────────────────────────────────┤
//!             │ section payloads, little-endian, each        │
//!             │ starting on a 64-byte boundary (zero-padded  │
//!             │ gaps), packed in table order                 │
//!             ├──────────────────────────────────────────────┤
//!             │ section table: 48 B per entry                │
//!             │   name[16] · dtype u32 · reserved u32 ·      │
//!             │   offset u64 · len u64 (elements) · crc u64  │
//!             ├──────────────────────────────────────────────┤
//!             │ footer (32 B): table_offset u64 ·            │
//!             │ section_count u64 · table_crc u64 ·          │
//!             │ "CSRPEND2"                                   │
//!             └──────────────────────────────────────────────┘
//! ```
//!
//! The table lives in a *footer* (parquet-style) so the writer needs only
//! `Write` — sections stream through a fixed stack scratch buffer with the
//! FNV-1a checksum folded in as bytes pass, never buffering a payload.
//!
//! The layout is **canonical**: the first section sits at offset 64, each
//! subsequent one at the 64-byte alignment of its predecessor's end, the
//! table at the alignment of the last section's end, and every padding
//! byte is zero.  The reader enforces all of it, which makes "structural
//! validation" (the mmap fast path, which must not touch payload pages)
//! meaningful: any byte outside section payloads is covered by an exact
//! expectation or the table checksum, and payload bytes are covered by
//! per-section checksums verified eagerly on owned loads or on demand via
//! [`Artifact::verify`].

use crate::backend::Backend;
use crate::error::StoreError;
use crate::matrix::{MappedMatrix, MappedMatrixF32};
use crate::mmap::Region;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Section (and table) alignment in bytes — one cache line, and a
/// divisor of every page size, so mapped sections stay f64-aligned.
pub const ALIGN: usize = 64;
/// File magic.
pub const MAGIC: [u8; 4] = *b"CSRP";
/// Format version written by this build.
pub const VERSION: u32 = 2;
/// Fixed header length.
pub const HEADER_LEN: usize = 64;
/// Fixed footer length.
pub const FOOTER_LEN: usize = 32;
/// Trailing footer magic.
pub const FOOTER_MAGIC: [u8; 8] = *b"CSRPEND2";
/// Bytes per section-table entry.
pub const ENTRY_LEN: usize = 48;
/// Maximum section-name length in bytes.
pub const NAME_LEN: usize = 16;

pub(crate) const FNV_BASIS: u64 = 0xcbf29ce484222325;

/// The header's epoch check word: the epoch times the (odd, hence
/// invertible) FNV prime.  Any single-region corruption of the epoch or
/// the check breaks the relation; epoch 0 maps to 0, keeping pre-epoch
/// all-zero headers valid.
fn epoch_check(epoch: u64) -> u64 {
    epoch.wrapping_mul(0x100000001b3)
}

pub(crate) fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn align_up(x: usize) -> usize {
    x.div_ceil(ALIGN) * ALIGN
}

/// Element type of a section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// Little-endian IEEE-754 doubles.
    F64,
    /// Little-endian unsigned 64-bit integers.
    U64,
    /// Little-endian unsigned 32-bit integers.
    U32,
    /// Opaque bytes (nested blobs).
    Bytes,
    /// Little-endian IEEE-754 singles (the f32-storage precision mode).
    F32,
}

impl DType {
    fn to_u32(self) -> u32 {
        match self {
            DType::F64 => 1,
            DType::U64 => 2,
            DType::U32 => 3,
            DType::Bytes => 4,
            DType::F32 => 5,
        }
    }

    fn from_u32(v: u32) -> Option<DType> {
        match v {
            1 => Some(DType::F64),
            2 => Some(DType::U64),
            3 => Some(DType::U32),
            4 => Some(DType::Bytes),
            5 => Some(DType::F32),
            _ => None,
        }
    }

    /// Bytes per element.
    pub fn elem_bytes(self) -> usize {
        match self {
            DType::F64 | DType::U64 => 8,
            DType::U32 | DType::F32 => 4,
            DType::Bytes => 1,
        }
    }

    /// Human-readable name (for `inspect`).
    pub fn name(self) -> &'static str {
        match self {
            DType::F64 => "f64",
            DType::U64 => "u64",
            DType::U32 => "u32",
            DType::Bytes => "bytes",
            DType::F32 => "f32",
        }
    }
}

/// One entry of the section table.
#[derive(Debug, Clone)]
pub struct SectionDesc {
    /// Section name (≤ 16 bytes, unique within the artifact).
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Byte offset of the payload from the start of the file.
    pub offset: u64,
    /// Payload length in *elements* (not bytes).
    pub len: u64,
    /// FNV-1a checksum of the payload bytes.
    pub crc: u64,
}

impl SectionDesc {
    /// Payload length in bytes.
    pub fn byte_len(&self) -> u64 {
        self.len * self.dtype.elem_bytes() as u64
    }
}

// --- Writer --------------------------------------------------------------

struct OpenSection {
    name: String,
    dtype: DType,
    offset: u64,
    elements: u64,
    crc: u64,
}

/// Streaming `CSRP` v2 writer over any [`Write`] sink.
///
/// Payload bytes pass through a fixed stack scratch buffer with the
/// section checksum folded in on the way — peak memory is O(1) in the
/// artifact size, which is what lets `save` stream models larger than
/// free RAM.
pub struct ArtifactWriter<W: Write> {
    w: W,
    pos: u64,
    sections: Vec<SectionDesc>,
    cur: Option<OpenSection>,
}

impl<W: Write> ArtifactWriter<W> {
    /// Starts an artifact: writes the fixed header at epoch 0.  Epoch 0
    /// leaves the header bytes exactly as older writers did, so default
    /// artifacts stay byte-identical.
    pub fn new(w: W) -> std::io::Result<Self> {
        Self::with_epoch(w, 0)
    }

    /// [`ArtifactWriter::new`] stamping a model `epoch` into the header
    /// (bytes 8..16, little-endian) — how live-update checkpoints record
    /// which published snapshot an artifact holds.  Bytes 16..24 hold a
    /// check word (`epoch × FNV prime`, a bijection with 0 ↦ 0) so a
    /// corrupted epoch is detected like every other region: zero-epoch
    /// headers — including every pre-epoch artifact — stay all-zero.
    pub fn with_epoch(mut w: W, epoch: u64) -> std::io::Result<Self> {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..16].copy_from_slice(&epoch.to_le_bytes());
        header[16..24].copy_from_slice(&epoch_check(epoch).to_le_bytes());
        w.write_all(&header)?;
        Ok(ArtifactWriter { w, pos: HEADER_LEN as u64, sections: Vec::new(), cur: None })
    }

    fn pad_to_alignment(&mut self) -> std::io::Result<()> {
        let target = align_up(self.pos as usize) as u64;
        const ZEROS: [u8; ALIGN] = [0u8; ALIGN];
        if target > self.pos {
            self.w.write_all(&ZEROS[..(target - self.pos) as usize])?;
            self.pos = target;
        }
        Ok(())
    }

    /// Opens a section. Names must be unique, non-empty, ≤ 16 bytes.
    ///
    /// # Panics
    /// Panics on invalid or duplicate names, or an unclosed section —
    /// writer misuse, not data errors.
    pub fn begin_section(&mut self, name: &str, dtype: DType) -> std::io::Result<()> {
        assert!(self.cur.is_none(), "begin_section('{name}') with a section still open");
        assert!(
            !name.is_empty() && name.len() <= NAME_LEN,
            "section name '{name}' must be 1..={NAME_LEN} bytes"
        );
        assert!(self.sections.iter().all(|s| s.name != name), "duplicate section name '{name}'");
        self.pad_to_alignment()?;
        self.cur = Some(OpenSection {
            name: name.to_string(),
            dtype,
            offset: self.pos,
            elements: 0,
            crc: FNV_BASIS,
        });
        Ok(())
    }

    fn put_raw(&mut self, bytes: &[u8], elements: u64) -> std::io::Result<()> {
        let cur = self.cur.as_mut().expect("no open section");
        cur.crc = fnv1a_update(cur.crc, bytes);
        cur.elements += elements;
        self.w.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Appends doubles to the open section (dtype must be [`DType::F64`]).
    pub fn put_f64s(&mut self, vals: &[f64]) -> std::io::Result<()> {
        assert_eq!(self.cur.as_ref().expect("no open section").dtype, DType::F64);
        let mut scratch = [0u8; 8192];
        for chunk in vals.chunks(scratch.len() / 8) {
            let mut n = 0;
            for &v in chunk {
                scratch[n..n + 8].copy_from_slice(&v.to_le_bytes());
                n += 8;
            }
            self.put_raw(&scratch[..n], chunk.len() as u64)?;
        }
        Ok(())
    }

    /// Appends singles to the open section (dtype must be [`DType::F32`]).
    pub fn put_f32s(&mut self, vals: &[f32]) -> std::io::Result<()> {
        assert_eq!(self.cur.as_ref().expect("no open section").dtype, DType::F32);
        let mut scratch = [0u8; 8192];
        for chunk in vals.chunks(scratch.len() / 4) {
            let mut n = 0;
            for &v in chunk {
                scratch[n..n + 4].copy_from_slice(&v.to_le_bytes());
                n += 4;
            }
            self.put_raw(&scratch[..n], chunk.len() as u64)?;
        }
        Ok(())
    }

    /// Appends u64s to the open section (dtype must be [`DType::U64`]).
    pub fn put_u64s(&mut self, vals: &[u64]) -> std::io::Result<()> {
        assert_eq!(self.cur.as_ref().expect("no open section").dtype, DType::U64);
        let mut scratch = [0u8; 8192];
        for chunk in vals.chunks(scratch.len() / 8) {
            let mut n = 0;
            for &v in chunk {
                scratch[n..n + 8].copy_from_slice(&v.to_le_bytes());
                n += 8;
            }
            self.put_raw(&scratch[..n], chunk.len() as u64)?;
        }
        Ok(())
    }

    /// Appends u32s to the open section (dtype must be [`DType::U32`]).
    pub fn put_u32s(&mut self, vals: &[u32]) -> std::io::Result<()> {
        assert_eq!(self.cur.as_ref().expect("no open section").dtype, DType::U32);
        let mut scratch = [0u8; 8192];
        for chunk in vals.chunks(scratch.len() / 4) {
            let mut n = 0;
            for &v in chunk {
                scratch[n..n + 4].copy_from_slice(&v.to_le_bytes());
                n += 4;
            }
            self.put_raw(&scratch[..n], chunk.len() as u64)?;
        }
        Ok(())
    }

    /// Appends raw bytes to the open section (dtype must be
    /// [`DType::Bytes`]).
    pub fn put_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        assert_eq!(self.cur.as_ref().expect("no open section").dtype, DType::Bytes);
        self.put_raw(bytes, bytes.len() as u64)
    }

    /// Closes the open section, recording its table entry.
    pub fn end_section(&mut self) -> std::io::Result<()> {
        let cur = self.cur.take().expect("end_section without begin_section");
        self.sections.push(SectionDesc {
            name: cur.name,
            dtype: cur.dtype,
            offset: cur.offset,
            len: cur.elements,
            crc: cur.crc,
        });
        Ok(())
    }

    /// Convenience: a whole f64 section in one call.
    pub fn section_f64s(&mut self, name: &str, vals: &[f64]) -> std::io::Result<()> {
        self.begin_section(name, DType::F64)?;
        self.put_f64s(vals)?;
        self.end_section()
    }

    /// Convenience: a whole f32 section in one call.
    pub fn section_f32s(&mut self, name: &str, vals: &[f32]) -> std::io::Result<()> {
        self.begin_section(name, DType::F32)?;
        self.put_f32s(vals)?;
        self.end_section()
    }

    /// Convenience: a whole u64 section in one call.
    pub fn section_u64s(&mut self, name: &str, vals: &[u64]) -> std::io::Result<()> {
        self.begin_section(name, DType::U64)?;
        self.put_u64s(vals)?;
        self.end_section()
    }

    /// Convenience: a whole u32 section in one call.
    pub fn section_u32s(&mut self, name: &str, vals: &[u32]) -> std::io::Result<()> {
        self.begin_section(name, DType::U32)?;
        self.put_u32s(vals)?;
        self.end_section()
    }

    /// Convenience: a whole bytes section in one call.
    pub fn section_bytes(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.begin_section(name, DType::Bytes)?;
        self.put_bytes(bytes)?;
        self.end_section()
    }

    /// Writes the section table and footer, returning the sink.
    pub fn finish(mut self) -> std::io::Result<W> {
        assert!(self.cur.is_none(), "finish() with a section still open");
        self.pad_to_alignment()?;
        let table_offset = self.pos;
        let mut table_crc = FNV_BASIS;
        for s in &self.sections {
            let mut entry = [0u8; ENTRY_LEN];
            entry[..s.name.len()].copy_from_slice(s.name.as_bytes());
            entry[16..20].copy_from_slice(&s.dtype.to_u32().to_le_bytes());
            // entry[20..24] reserved, zero
            entry[24..32].copy_from_slice(&s.offset.to_le_bytes());
            entry[32..40].copy_from_slice(&s.len.to_le_bytes());
            entry[40..48].copy_from_slice(&s.crc.to_le_bytes());
            table_crc = fnv1a_update(table_crc, &entry);
            self.w.write_all(&entry)?;
        }
        let mut footer = [0u8; FOOTER_LEN];
        footer[..8].copy_from_slice(&table_offset.to_le_bytes());
        footer[8..16].copy_from_slice(&(self.sections.len() as u64).to_le_bytes());
        footer[16..24].copy_from_slice(&table_crc.to_le_bytes());
        footer[24..32].copy_from_slice(&FOOTER_MAGIC);
        self.w.write_all(&footer)?;
        self.w.flush()?;
        Ok(self.w)
    }
}

// --- Reader --------------------------------------------------------------

/// A parsed, validated `CSRP` v2 artifact.
///
/// Owned opens ([`Backend::Owned`], [`Artifact::from_bytes`]) eagerly
/// verify every section checksum.  Mapped opens validate structure only
/// — header, footer, table checksum, canonical layout, zero padding —
/// and leave payload pages untouched until first use; run
/// [`Artifact::verify`] to checksum payloads on demand.
#[derive(Debug)]
pub struct Artifact {
    region: Arc<Region>,
    sections: Vec<SectionDesc>,
    epoch: u64,
}

impl Artifact {
    /// Opens `path` with the chosen [`Backend`] (resolving `Auto`).
    pub fn open(path: &Path, backend: Backend) -> Result<Artifact, StoreError> {
        match backend.resolved() {
            Backend::Mmap => {
                let region = Region::map_file(path)?;
                Artifact::from_region(Arc::new(region), false)
            }
            _ => {
                let region = Region::read_file(path)?;
                Artifact::from_region(Arc::new(region), true)
            }
        }
    }

    /// Parses an in-memory artifact (always eagerly verified).
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, StoreError> {
        Artifact::from_region(Arc::new(Region::from_bytes(bytes)), true)
    }

    fn from_region(region: Arc<Region>, eager: bool) -> Result<Artifact, StoreError> {
        let bytes = region.bytes();
        if bytes.len() < 4 {
            return Err(StoreError::Malformed("file shorter than the magic".into()));
        }
        if bytes[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        if bytes.len() < 8 {
            return Err(StoreError::Malformed("file truncated inside the version".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        if bytes.len() < HEADER_LEN + FOOTER_LEN {
            return Err(StoreError::Malformed(format!(
                "file of {} bytes cannot hold header and footer",
                bytes.len()
            )));
        }
        // Bytes 8..16 carry the model epoch, 16..24 its check word —
        // pre-epoch writers left both zero, which validates as epoch 0;
        // 24..64 stay reserved-zero.
        let epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let check = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        if check != epoch_check(epoch) {
            return Err(StoreError::Malformed("epoch check word mismatch".into()));
        }
        if bytes[24..HEADER_LEN].iter().any(|&b| b != 0) {
            return Err(StoreError::Malformed("reserved header bytes are not zero".into()));
        }
        let foot = &bytes[bytes.len() - FOOTER_LEN..];
        if foot[24..32] != FOOTER_MAGIC {
            return Err(StoreError::Malformed("bad footer magic".into()));
        }
        let table_offset = u64::from_le_bytes(foot[..8].try_into().expect("8 bytes")) as usize;
        let count = u64::from_le_bytes(foot[8..16].try_into().expect("8 bytes")) as usize;
        let table_crc = u64::from_le_bytes(foot[16..24].try_into().expect("8 bytes"));
        let table_end = bytes.len() - FOOTER_LEN;
        let table_tiles = match count.checked_mul(ENTRY_LEN) {
            Some(b) => table_offset + b == table_end,
            None => false,
        };
        if table_offset & (ALIGN - 1) != 0 || table_offset < HEADER_LEN || !table_tiles {
            return Err(StoreError::Malformed(format!(
                "section table (offset {table_offset}, {count} entries) does not tile the file"
            )));
        }
        let table = &bytes[table_offset..table_end];
        let actual = fnv1a_update(FNV_BASIS, table);
        if actual != table_crc {
            return Err(StoreError::ChecksumMismatch {
                section: "table".into(),
                expected: table_crc,
                actual,
            });
        }
        // Decode entries and enforce the canonical packing.
        let mut sections = Vec::with_capacity(count);
        let mut expected_offset = HEADER_LEN as u64;
        for (i, entry) in table.chunks(ENTRY_LEN).enumerate() {
            let name_end = entry[..NAME_LEN].iter().position(|&b| b == 0).unwrap_or(NAME_LEN);
            if name_end == 0 || entry[name_end..NAME_LEN].iter().any(|&b| b != 0) {
                return Err(StoreError::Malformed(format!("section {i} has an invalid name")));
            }
            let name = std::str::from_utf8(&entry[..name_end])
                .map_err(|_| StoreError::Malformed(format!("section {i} name is not UTF-8")))?
                .to_string();
            if sections.iter().any(|s: &SectionDesc| s.name == name) {
                return Err(StoreError::Malformed(format!("duplicate section '{name}'")));
            }
            let dtype_raw = u32::from_le_bytes(entry[16..20].try_into().expect("4 bytes"));
            let dtype = DType::from_u32(dtype_raw).ok_or_else(|| {
                StoreError::Malformed(format!("section '{name}' has unknown dtype {dtype_raw}"))
            })?;
            if entry[20..24] != [0u8; 4] {
                return Err(StoreError::Malformed(format!(
                    "section '{name}' has non-zero reserved bytes"
                )));
            }
            let offset = u64::from_le_bytes(entry[24..32].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(entry[32..40].try_into().expect("8 bytes"));
            let crc = u64::from_le_bytes(entry[40..48].try_into().expect("8 bytes"));
            if offset != expected_offset {
                return Err(StoreError::Malformed(format!(
                    "section '{name}' at offset {offset}, canonical layout requires {expected_offset}"
                )));
            }
            let byte_len = len.checked_mul(dtype.elem_bytes() as u64).ok_or_else(|| {
                StoreError::Malformed(format!("section '{name}' length overflows"))
            })?;
            let end = offset.checked_add(byte_len).ok_or_else(|| {
                StoreError::Malformed(format!("section '{name}' extent overflows"))
            })?;
            if end > table_offset as u64 {
                return Err(StoreError::Malformed(format!(
                    "section '{name}' ({offset}..{end}) overruns the table at {table_offset}"
                )));
            }
            expected_offset = align_up(end as usize) as u64;
            // Padding between this section and the next boundary is zero.
            if bytes[end as usize..expected_offset.min(table_offset as u64) as usize]
                .iter()
                .any(|&b| b != 0)
            {
                return Err(StoreError::Malformed(format!(
                    "non-zero padding after section '{name}'"
                )));
            }
            sections.push(SectionDesc { name, dtype, offset, len, crc });
        }
        if expected_offset != table_offset as u64 {
            return Err(StoreError::Malformed(format!(
                "table at {table_offset} but sections end at {expected_offset}"
            )));
        }
        let artifact = Artifact { region, sections, epoch };
        if eager {
            artifact.verify()?;
        }
        Ok(artifact)
    }

    /// The model epoch stamped in the header (0 for ordinary artifacts
    /// and anything written before epochs existed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when backed by a memory mapping rather than an owned buffer.
    pub fn is_mapped(&self) -> bool {
        self.region.is_mapped()
    }

    /// Total artifact size in bytes.
    pub fn file_len(&self) -> usize {
        self.region.len()
    }

    /// The section table, in file order.
    pub fn sections(&self) -> &[SectionDesc] {
        &self.sections
    }

    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> Option<&SectionDesc> {
        self.sections.iter().find(|s| s.name == name)
    }

    fn require(&self, name: &str) -> Result<&SectionDesc, StoreError> {
        self.section(name).ok_or_else(|| StoreError::Malformed(format!("missing section '{name}'")))
    }

    /// A section's raw payload bytes.
    pub fn section_bytes(&self, name: &str) -> Result<&[u8], StoreError> {
        let s = self.require(name)?;
        let (o, l) = (s.offset as usize, s.byte_len() as usize);
        Ok(&self.region.bytes()[o..o + l])
    }

    /// Decodes an f64 section into an owned vector.
    pub fn decode_f64s(&self, name: &str) -> Result<Vec<f64>, StoreError> {
        let s = self.require(name)?;
        if s.dtype != DType::F64 {
            return Err(StoreError::Malformed(format!("section '{name}' is not f64")));
        }
        let bytes = self.section_bytes(name)?;
        Ok(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8"))).collect())
    }

    /// Decodes an f32 section into an owned vector.
    pub fn decode_f32s(&self, name: &str) -> Result<Vec<f32>, StoreError> {
        let s = self.require(name)?;
        if s.dtype != DType::F32 {
            return Err(StoreError::Malformed(format!("section '{name}' is not f32")));
        }
        let bytes = self.section_bytes(name)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    /// Decodes a u64 section into an owned vector.
    pub fn decode_u64s(&self, name: &str) -> Result<Vec<u64>, StoreError> {
        let s = self.require(name)?;
        if s.dtype != DType::U64 {
            return Err(StoreError::Malformed(format!("section '{name}' is not u64")));
        }
        let bytes = self.section_bytes(name)?;
        Ok(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8"))).collect())
    }

    /// Decodes a u32 section into an owned vector.
    pub fn decode_u32s(&self, name: &str) -> Result<Vec<u32>, StoreError> {
        let s = self.require(name)?;
        if s.dtype != DType::U32 {
            return Err(StoreError::Malformed(format!("section '{name}' is not u32")));
        }
        let bytes = self.section_bytes(name)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    /// Borrows an f64 section as a zero-copy `rows × cols` matrix.
    ///
    /// # Errors
    /// [`StoreError::Malformed`] when the section is missing, not f64, or
    /// its element count differs from `rows × cols`.
    pub fn matrix(&self, name: &str, rows: usize, cols: usize) -> Result<MappedMatrix, StoreError> {
        let s = self.require(name)?;
        if s.dtype != DType::F64 {
            return Err(StoreError::Malformed(format!("section '{name}' is not f64")));
        }
        if s.len != (rows as u64) * (cols as u64) {
            return Err(StoreError::Malformed(format!(
                "section '{name}' holds {} elements, expected {rows}×{cols}",
                s.len
            )));
        }
        Ok(MappedMatrix::new(Arc::clone(&self.region), s.offset as usize, rows, cols))
    }

    /// Borrows an f32 section as a zero-copy `rows × cols` matrix.
    ///
    /// # Errors
    /// [`StoreError::Malformed`] when the section is missing, not f32, or
    /// its element count differs from `rows × cols`.
    pub fn matrix_f32(
        &self,
        name: &str,
        rows: usize,
        cols: usize,
    ) -> Result<MappedMatrixF32, StoreError> {
        let s = self.require(name)?;
        if s.dtype != DType::F32 {
            return Err(StoreError::Malformed(format!("section '{name}' is not f32")));
        }
        if s.len != (rows as u64) * (cols as u64) {
            return Err(StoreError::Malformed(format!(
                "section '{name}' holds {} elements, expected {rows}×{cols}",
                s.len
            )));
        }
        Ok(MappedMatrixF32::new(Arc::clone(&self.region), s.offset as usize, rows, cols))
    }

    /// Checksums every section payload against the table.
    ///
    /// Owned opens have already done this; for mapped artifacts it reads
    /// every page, so it trades the instant-boot property for eager
    /// integrity (used by `cli inspect --verify`).
    pub fn verify(&self) -> Result<(), StoreError> {
        let bytes = self.region.bytes();
        for s in &self.sections {
            let (o, l) = (s.offset as usize, s.byte_len() as usize);
            let actual = fnv1a_update(FNV_BASIS, &bytes[o..o + l]);
            if actual != s.crc {
                return Err(StoreError::ChecksumMismatch {
                    section: s.name.clone(),
                    expected: s.crc,
                    actual,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ArtifactWriter::new(Vec::new()).unwrap();
        w.section_u64s("meta", &[6, 3, 0xdead]).unwrap();
        w.section_f64s("u", &[1.0, 2.5, -3.0, 0.0, 4.0, 5.0]).unwrap();
        w.section_u32s("ids", &[9, 8, 7]).unwrap();
        w.section_bytes("blob", b"hello").unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn canonical_layout_and_round_trip() {
        let bytes = sample();
        let a = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(a.sections().len(), 4);
        // Canonical packing: every offset is the 64-aligned end of the
        // previous section, starting at the header.
        assert_eq!(a.section("meta").unwrap().offset, 64);
        assert_eq!(a.section("u").unwrap().offset, 128);
        assert_eq!(a.section("ids").unwrap().offset, 192);
        assert_eq!(a.section("blob").unwrap().offset, 256);
        assert_eq!(a.decode_u64s("meta").unwrap(), vec![6, 3, 0xdead]);
        assert_eq!(a.decode_f64s("u").unwrap(), vec![1.0, 2.5, -3.0, 0.0, 4.0, 5.0]);
        assert_eq!(a.decode_u32s("ids").unwrap(), vec![9, 8, 7]);
        assert_eq!(a.section_bytes("blob").unwrap(), b"hello");
        let m = a.matrix("u", 2, 3).unwrap();
        assert_eq!(m.row(1), &[0.0, 4.0, 5.0]);
        assert_eq!(m.view().get(0, 1), 2.5);
        a.verify().unwrap();
    }

    #[test]
    fn epoch_round_trips_and_defaults_to_zero() {
        // Default writer stamps epoch 0 — header bytes 8..16 stay zero, so
        // pre-epoch readers and artifacts are mutually compatible.
        let bytes = sample();
        assert_eq!(&bytes[8..16], &[0u8; 8]);
        assert_eq!(Artifact::from_bytes(&bytes).unwrap().epoch(), 0);

        let mut w = ArtifactWriter::with_epoch(Vec::new(), 0x0102_0304_0506_0708).unwrap();
        w.section_u64s("meta", &[1]).unwrap();
        let bytes = w.finish().unwrap();
        let a = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(a.epoch(), 0x0102_0304_0506_0708);

        // The check word ties the epoch down: corrupting either half of
        // the pair is a typed error, not a silently different epoch.
        for pos in [9, 18] {
            let mut b = bytes.clone();
            b[pos] ^= 0x10;
            assert!(matches!(Artifact::from_bytes(&b), Err(StoreError::Malformed(_))), "{pos}");
        }
    }

    #[test]
    fn f32_sections_round_trip_and_map() {
        let mut w = ArtifactWriter::new(Vec::new()).unwrap();
        w.section_f32s("uf32", &[1.5, -2.25, 0.0, 8.0, -0.5, 3.75]).unwrap();
        w.section_f64s("uf64", &[1.0]).unwrap();
        let bytes = w.finish().unwrap();
        let a = Artifact::from_bytes(&bytes).unwrap();
        let s = a.section("uf32").unwrap();
        assert_eq!(s.dtype, DType::F32);
        assert_eq!(s.dtype.name(), "f32");
        assert_eq!(s.byte_len(), 24);
        assert_eq!(a.decode_f32s("uf32").unwrap(), vec![1.5, -2.25, 0.0, 8.0, -0.5, 3.75]);
        let m = a.matrix_f32("uf32", 2, 3).unwrap();
        assert_eq!(m.row(1), &[8.0, -0.5, 3.75]);
        assert_eq!(m.view().get(0, 1), -2.25);
        // dtype confusion is a typed error in both directions.
        assert!(a.decode_f32s("uf64").is_err());
        assert!(a.decode_f64s("uf32").is_err());
        assert!(a.matrix("uf32", 2, 3).is_err());
        assert!(a.matrix_f32("uf64", 1, 1).is_err());
        // Shape mismatch too.
        assert!(a.matrix_f32("uf32", 3, 3).is_err());
    }

    #[test]
    fn empty_sections_are_fine() {
        let mut w = ArtifactWriter::new(Vec::new()).unwrap();
        w.section_f64s("empty", &[]).unwrap();
        w.section_f64s("one", &[42.0]).unwrap();
        let bytes = w.finish().unwrap();
        let a = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(a.decode_f64s("empty").unwrap(), Vec::<f64>::new());
        // Zero-length sections collapse: both start at the header end.
        assert_eq!(a.section("empty").unwrap().offset, 64);
        assert_eq!(a.section("one").unwrap().offset, 64);
    }

    #[test]
    fn corruption_is_typed() {
        let bytes = sample();
        // Magic.
        let mut b = bytes.clone();
        b[0] ^= 0xff;
        assert!(matches!(Artifact::from_bytes(&b), Err(StoreError::BadMagic)));
        // Version.
        let mut b = bytes.clone();
        b[4] = 77;
        assert!(matches!(Artifact::from_bytes(&b), Err(StoreError::UnsupportedVersion(77))));
        // Reserved header byte.
        let mut b = bytes.clone();
        b[40] = 1;
        assert!(matches!(Artifact::from_bytes(&b), Err(StoreError::Malformed(_))));
        // Payload flip → eager checksum failure naming the section.
        let mut b = bytes.clone();
        b[130] ^= 0x04; // inside "u"
        match Artifact::from_bytes(&b) {
            Err(StoreError::ChecksumMismatch { section, .. }) => assert_eq!(section, "u"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // Table flip.
        let table_offset = {
            let foot = &bytes[bytes.len() - FOOTER_LEN..];
            u64::from_le_bytes(foot[..8].try_into().unwrap()) as usize
        };
        let mut b = bytes.clone();
        b[table_offset + 32] ^= 0x01; // the "meta" entry's len field
        assert!(matches!(
            Artifact::from_bytes(&b),
            Err(StoreError::ChecksumMismatch { .. } | StoreError::Malformed(_))
        ));
        // Truncation anywhere.
        for cut in [0, 3, 7, 63, 100, bytes.len() - 1] {
            assert!(Artifact::from_bytes(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn structural_validation_catches_padding_tampering() {
        let bytes = sample();
        // "meta" is 24 bytes at offset 64; byte 90 is padding.
        let mut b = bytes.clone();
        b[90] = 1;
        assert!(matches!(Artifact::from_bytes(&b), Err(StoreError::Malformed(_))));
    }
}
