//! The section-table container behind `.cpsnap` snapshots and
//! `.cpsflight` dumps.
//!
//! ```text
//! magic     6 bytes, one per format
//! version   u16 LE
//! count     u32 LE
//! id        u64 LE   checksum over the serialized table
//! table     count × { id:u16, offset:u64, len:u64, checksum:u64 }
//! payload   sections at their absolute offsets, each 8-byte aligned
//! ```
//!
//! The id fingerprints every payload (each entry embeds its payload
//! checksum) and doubles as the table's own integrity check. A [`Format`]
//! fixes the magic, version, checksum and section names, and maps
//! [`ContainerError`] onto the format's own error type, so each format
//! keeps its wording.

/// Bytes per section-table entry: id + offset + len + checksum.
pub const TABLE_ENTRY_LEN: usize = 2 + 8 + 8 + 8;

/// A structural fault, before the format words it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    Truncated,
    BadMagic,
    UnsupportedVersion(u16),
    /// `"section table"` or the section's name.
    ChecksumMismatch(&'static str),
    /// The whole message.
    Corrupt(String),
}

/// One container format: everything that differs between `.cpsnap` and
/// `.cpsflight`.
#[derive(Debug, Clone, Copy)]
pub struct Format<E> {
    pub magic: [u8; 6],
    /// The one version this build writes and reads.
    pub version: u16,
    /// Checksum over the table and over every payload.
    pub checksum: fn(&[u8]) -> u64,
    /// Section id → name; ids without a name are rejected on read.
    pub section_name: fn(u16) -> Option<&'static str>,
    pub error: fn(ContainerError) -> E,
}

/// A table entry plus its payload.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    pub id: u16,
    pub name: &'static str,
    pub offset: u64,
    pub checksum: u64,
    pub payload: &'a [u8],
}

/// One section table entry, as the formats' `inspect` report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    pub name: &'static str,
    /// Absolute byte offset of the payload (8-byte aligned).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Stored checksum of the payload.
    pub checksum: u64,
}

impl Section<'_> {
    #[must_use]
    pub fn info(&self) -> SectionInfo {
        SectionInfo {
            name: self.name,
            offset: self.offset,
            len: self.payload.len() as u64,
            checksum: self.checksum,
        }
    }
}

/// Header version and id plus the section table, in file order.
pub type Sections<'a> = (u16, u64, Vec<Section<'a>>);

/// Rounds `n` up to the next 8-byte boundary (section alignment rule).
fn align8(n: u64) -> u64 {
    n.next_multiple_of(8)
}

impl<E> Format<E> {
    /// Writes `(id, payload)` sections in order behind the header and
    /// table. The same sections always give the same bytes.
    #[must_use]
    pub fn write(&self, sections: &[(u16, &[u8])]) -> Vec<u8> {
        let mut table = Vec::with_capacity(sections.len() * TABLE_ENTRY_LEN);
        let mut offset = align8((6 + 2 + 4 + 8 + sections.len() * TABLE_ENTRY_LEN) as u64);
        for &(id, payload) in sections {
            put_u16(&mut table, id);
            put_u64(&mut table, offset);
            put_u64(&mut table, payload.len() as u64);
            put_u64(&mut table, (self.checksum)(payload));
            offset = align8(offset + payload.len() as u64);
        }
        let mut out = Vec::with_capacity(offset as usize);
        out.extend_from_slice(&self.magic);
        put_u16(&mut out, self.version);
        put_u32(&mut out, u32::try_from(sections.len()).expect("fits u32"));
        put_u64(&mut out, (self.checksum)(&table));
        out.extend_from_slice(&table);
        for &(_, payload) in sections {
            out.resize(align8(out.len() as u64) as usize, 0); // alignment padding
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses the header and section table in *O(header)*: magic,
    /// version, the id check over the table bytes, then bounds and
    /// alignment checks on every payload span. Payload checksums are
    /// [`Format::checked_sections`]'s job.
    ///
    /// # Errors
    ///
    /// Truncation, bad magic, an unsupported version, a corrupted table,
    /// an unknown section id, or a misaligned span.
    pub fn split_sections<'a>(&self, bytes: &'a [u8]) -> Result<Sections<'a>, E> {
        self.split(bytes).map_err(self.error)
    }

    /// [`Format::split_sections`], then every payload checksum.
    ///
    /// # Errors
    ///
    /// As [`Format::split_sections`], or the first section whose
    /// checksum does not match.
    pub fn checked_sections<'a>(&self, bytes: &'a [u8]) -> Result<Sections<'a>, E> {
        let (version, id, sections) = self.split_sections(bytes)?;
        if let Some(bad) = sections
            .iter()
            .find(|s| (self.checksum)(s.payload) != s.checksum)
        {
            return Err((self.error)(ContainerError::ChecksumMismatch(bad.name)));
        }
        Ok((version, id, sections))
    }

    /// The section with `id`.
    ///
    /// # Errors
    ///
    /// "missing \`name\` section" when the table has none.
    pub fn find_section<'s, 'a>(
        &self,
        sections: &'s [Section<'a>],
        id: u16,
    ) -> Result<&'s Section<'a>, E> {
        sections.iter().find(|s| s.id == id).ok_or_else(|| {
            let name = (self.section_name)(id).unwrap_or("?");
            (self.error)(ContainerError::Corrupt(format!("missing `{name}` section")))
        })
    }

    fn split<'a>(&self, bytes: &'a [u8]) -> Result<Sections<'a>, ContainerError> {
        let mut r = Reader::new(bytes);
        if r.take(self.magic.len())? != self.magic {
            return Err(ContainerError::BadMagic);
        }
        let version = r.u16()?;
        if version != self.version {
            return Err(ContainerError::UnsupportedVersion(version));
        }
        let count = r.u32()?;
        let id = r.u64()?;
        let table = r.take(count as usize * TABLE_ENTRY_LEN)?;
        if (self.checksum)(table) != id {
            return Err(ContainerError::ChecksumMismatch("section table"));
        }
        let mut r = Reader::new(table);
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (id, offset, len, checksum) = (r.u16()?, r.u64()?, r.u64()?, r.u64()?);
            let name = (self.section_name)(id).ok_or_else(|| {
                ContainerError::Corrupt(format!("unknown section id {id} in the section table"))
            })?;
            if offset % 8 != 0 {
                return Err(ContainerError::Corrupt(format!(
                    "`{name}` section offset {offset} is not 8-byte aligned"
                )));
            }
            let end = offset
                .checked_add(len)
                .filter(|&end| end <= bytes.len() as u64)
                .ok_or(ContainerError::Truncated)?;
            let payload = &bytes[offset as usize..end as usize];
            sections.push(Section {
                id,
                name,
                offset,
                checksum,
                payload,
            });
        }
        Ok((version, id, sections))
    }
}

/// FNV-1a 64 over bytes: the `.cpsflight` checksum.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        if n > self.bytes.len() {
            return Err(ContainerError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ContainerError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ContainerError> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ContainerError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ContainerError> {
        self.array().map(u64::from_le_bytes)
    }

    /// `count` clamped to how many `min_size`-byte elements the rest of
    /// the input could hold, so a forged count cannot size an allocation.
    pub(crate) fn capacity_for(&self, count: u32, min_size: usize) -> usize {
        (count as usize).min(self.bytes.len() / min_size)
    }
}
