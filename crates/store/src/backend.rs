//! Backend selection: how artifact bytes are brought into memory.

/// How to open an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Pick the best available: `mmap` on Unix, owned read elsewhere.
    Auto,
    /// Read the whole file into owned heap buffers and eagerly verify
    /// every section checksum ("full deserialisation").
    Owned,
    /// Memory-map the file and validate structure only, deferring page
    /// reads (and therefore payload checksums) to first touch.
    Mmap,
}

impl Backend {
    /// Resolves `Auto` to a concrete choice for this platform.
    pub fn resolved(self) -> Backend {
        match self {
            Backend::Auto => {
                if cfg!(unix) {
                    Backend::Mmap
                } else {
                    Backend::Owned
                }
            }
            other => other,
        }
    }
}
