//! On-disk layout of a `.dps` archive and footer location/recovery.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header   8 B   magic "DPSARCH1"                              │
//! │ pages    …     per page: [encoded table chunk][CRC32 LE 4 B] │
//! │ footer   …     catalog delta (`catalog::CatalogDelta`)       │
//! │ trailer 28 B   [CRC32(footer) 4 B][footer len 8 B LE]        │
//! │                [prev trailer end 8 B LE][magic "DPSFOOT1"]   │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! The file is log-structured: every commit appends a footer + trailer at
//! the end, and subsequent pages are appended *after* that trailer. A
//! footer stores only the commit's **delta** — its new pages, new unique
//! key ids, and the dictionary tail — plus a back-pointer to the previous
//! trailer, so per-day checkpoints stay O(day) instead of re-embedding the
//! whole ever-growing catalog. The full catalog is rebuilt by walking the
//! trailer chain backwards and applying the deltas oldest-first.
//!
//! That is what makes checkpointing safe: a crash mid-append or mid-commit
//! can only tear bytes written after the last durable trailer, so
//! [`recover_chain`] always finds the chain again by scanning backwards
//! for the trailer magic and validating every footer checksum on the
//! chain. A cleanly committed file is opened by reading only its tail
//! chain — no page bytes are touched.

// Untrusted-input module: archive bytes may be torn or corrupt; recovery
// must degrade to errors, never panic (enforced by dps-analyzer's
// panic-safety family and these lints).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::catalog::{Catalog, CatalogDelta};
use crate::crc32::crc32;
use std::io::{self, Read, Seek, SeekFrom};

/// File magic at offset 0.
pub const HEADER_MAGIC: &[u8; 8] = b"DPSARCH1";
/// Magic terminating each trailer (the last 8 bytes of a committed file).
pub const FOOTER_MAGIC: &[u8; 8] = b"DPSFOOT1";
/// Trailer size: footer CRC32 (4) + footer length (8) + previous trailer
/// end (8) + magic (8).
pub const TRAILER_LEN: u64 = 28;
/// Bytes appended after each page chunk (its CRC32).
pub const PAGE_CRC_LEN: u64 = 4;

fn corrupt(what: &str) -> io::Error {
    io::Error::other(format!("dps-store: corrupt archive ({what})"))
}

/// A located, validated footer chain, merged into one catalog.
pub struct Footer {
    /// The catalog as of the chain's newest commit.
    pub catalog: Catalog,
    /// Commits (delta footers) walked to rebuild the catalog.
    pub chain_len: u64,
}

/// One validated commit on the trailer chain. [`recover_chain`] returns
/// these oldest-first so a resuming writer can keep a *prefix* of the
/// chain (everything a sharded manifest says is durable) and truncate the
/// rest.
pub struct ChainCommit {
    /// The commit's catalog delta (its new pages, uniques, dict tail).
    pub delta: CatalogDelta,
    /// Byte offset just past this commit's trailer.
    pub trailer_end: u64,
}

/// One parsed 28-byte trailer.
struct Trailer {
    crc: u32,
    footer_len: u64,
    prev: u64,
}

fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

fn parse_trailer(bytes: &[u8; TRAILER_LEN as usize]) -> Option<Trailer> {
    if bytes.get(20..28)? != FOOTER_MAGIC {
        return None;
    }
    Some(Trailer {
        crc: le_u32(bytes, 0)?,
        footer_len: le_u64(bytes, 4)?,
        prev: le_u64(bytes, 12)?,
    })
}

fn read_trailer_at(file: &mut std::fs::File, trailer_start: u64) -> Option<Trailer> {
    let mut bytes = [0u8; TRAILER_LEN as usize];
    file.seek(SeekFrom::Start(trailer_start)).ok()?;
    file.read_exact(&mut bytes).ok()?;
    parse_trailer(&bytes)
}

/// Validates the header magic at offset 0.
pub fn check_header(file: &mut std::fs::File) -> io::Result<()> {
    let mut magic = [0u8; 8];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut magic)
        .map_err(|_| corrupt("missing header"))?;
    if &magic != HEADER_MAGIC {
        return Err(corrupt("bad header magic"));
    }
    Ok(())
}

/// Reads the footer chain assuming a cleanly committed file (newest
/// trailer at EOF).
pub fn read_footer(file: &mut std::fs::File) -> io::Result<Footer> {
    check_header(file)?;
    let file_len = file.seek(SeekFrom::End(0))?;
    if file_len < 8 + TRAILER_LEN {
        return Err(corrupt("file shorter than header + trailer"));
    }
    let trailer_start = file_len - TRAILER_LEN;
    let trailer = read_trailer_at(file, trailer_start)
        .ok_or_else(|| corrupt("bad trailer magic — archive not committed cleanly"))?;
    load_chain(file, trailer_start, &trailer)
        .ok_or_else(|| corrupt("footer chain checksum or catalog invalid"))
}

/// Walks the trailer chain backwards from the footer whose trailer starts
/// at `trailer_start`, validating CRCs, strict descent, page bounds, and
/// delta decode. Returns the commits oldest-first. `None` if anything on
/// the chain is off.
fn collect_chain(
    file: &mut std::fs::File,
    trailer_start: u64,
    newest: &Trailer,
) -> Option<Vec<ChainCommit>> {
    // Collect commits newest-first, then reverse.
    let mut commits: Vec<ChainCommit> = Vec::new();
    let mut cur_start = trailer_start;
    let mut cur = Trailer {
        crc: newest.crc,
        footer_len: newest.footer_len,
        prev: newest.prev,
    };
    loop {
        let data_end = cur_start.checked_sub(cur.footer_len)?;
        if data_end < 8 {
            return None;
        }
        let mut footer = vec![0u8; usize::try_from(cur.footer_len).ok()?];
        file.seek(SeekFrom::Start(data_end)).ok()?;
        file.read_exact(&mut footer).ok()?;
        if crc32(&footer) != cur.crc {
            return None;
        }
        let delta = CatalogDelta::decode(&footer)?;
        // Every page a commit references must lie before its own footer.
        for page in &delta.pages {
            if page.offset < 8 || page.offset + page.len + PAGE_CRC_LEN > data_end {
                return None;
            }
        }
        commits.push(ChainCommit {
            delta,
            trailer_end: cur_start + TRAILER_LEN,
        });
        if cur.prev == 0 {
            break;
        }
        // The previous trailer ends exactly at `prev`; the chain must
        // strictly descend, which also bounds the walk.
        if cur.prev > data_end || cur.prev < 8 + TRAILER_LEN {
            return None;
        }
        cur_start = cur.prev - TRAILER_LEN;
        cur = read_trailer_at(file, cur_start)?;
    }
    commits.reverse();
    Some(commits)
}

/// Applies `commits` (oldest-first) into one merged [`Footer`]. `None` on
/// an empty chain or if the deltas do not apply cleanly (duplicate pages,
/// dictionary-base mismatch, …).
pub fn chain_to_footer(commits: &[ChainCommit]) -> Option<Footer> {
    if commits.is_empty() {
        return None;
    }
    let mut catalog = Catalog::new();
    for commit in commits {
        catalog.apply(&commit.delta)?;
    }
    Some(Footer {
        catalog,
        chain_len: commits.len() as u64,
    })
}

fn load_chain(file: &mut std::fs::File, trailer_start: u64, newest: &Trailer) -> Option<Footer> {
    let commits = collect_chain(file, trailer_start, newest)?;
    chain_to_footer(&commits)
}

/// Finds the last durable footer chain, tolerating a torn tail: first
/// tries the trailer at EOF, then scans backwards for the trailer magic,
/// validating each candidate's whole chain. Returns the most recent valid
/// chain's commits, oldest first, or `Ok(vec![])` for a file with a valid
/// header and no recoverable footer — a freshly created (or fully
/// torn-back) archive.
pub fn recover_chain(file: &mut std::fs::File) -> io::Result<Vec<ChainCommit>> {
    check_header(file)?;
    let file_len = file.seek(SeekFrom::End(0))?;
    // Fast path: a cleanly committed file has its newest trailer at EOF.
    if file_len >= 8 + TRAILER_LEN {
        let trailer_start = file_len - TRAILER_LEN;
        if let Some(trailer) = read_trailer_at(file, trailer_start) {
            if let Some(commits) = collect_chain(file, trailer_start, &trailer) {
                if chain_to_footer(&commits).is_some() {
                    return Ok(commits);
                }
            }
        }
    }
    // Backward chunked scan for FOOTER_MAGIC, with overlap so a magic
    // spanning a chunk boundary is still seen.
    const CHUNK: u64 = 1 << 16;
    let mut high = file_len;
    while high > 8 {
        let low = high.saturating_sub(CHUNK);
        let len = usize::try_from(high - low).map_err(|_| corrupt("chunk exceeds usize"))?;
        let mut buf = vec![0u8; len];
        file.seek(SeekFrom::Start(low))?;
        file.read_exact(&mut buf)?;
        // Candidate magic positions within this chunk, scanned right-to-left.
        for i in (0..buf.len().saturating_sub(7)).rev() {
            if buf.get(i..i + 8) != Some(FOOTER_MAGIC.as_slice()) {
                continue;
            }
            let magic_at = low + i as u64;
            let Some(trailer_start) = magic_at.checked_sub(TRAILER_LEN - 8) else {
                continue;
            };
            let Some(trailer) = read_trailer_at(file, trailer_start) else {
                continue;
            };
            if let Some(commits) = collect_chain(file, trailer_start, &trailer) {
                if chain_to_footer(&commits).is_some() {
                    return Ok(commits);
                }
            }
        }
        // Overlap by 7 bytes so boundary-spanning magics are covered.
        high = low + 7.min(low);
        if low == 0 {
            break;
        }
    }
    Ok(Vec::new())
}
