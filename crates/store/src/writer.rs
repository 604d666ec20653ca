//! The streaming archive writer: append pages as days are measured,
//! commit a durable footer after each day, resume from the last durable
//! footer after a crash.

use crate::catalog::{Catalog, CatalogDelta, PageMeta};
use crate::crc32::crc32;
use crate::format::{self, FOOTER_MAGIC, HEADER_MAGIC, PAGE_CRC_LEN, TRAILER_LEN};
use dps_columnar::{StringDict, Table};
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// A single-file archive being written (or appended to after a resume).
///
/// Commit protocol (log-structured): pages append after the last durable
/// trailer; [`commit`](Self::commit) fsyncs the page region, appends a
/// footer holding only this commit's *delta* (new pages, new unique key
/// ids, dictionary tail) plus a back-pointer to the previous trailer,
/// and fsyncs again. Earlier footers stay embedded — they are the rest
/// of the chain, not dead bytes — so a crash at *any* point can only
/// tear bytes after the last durable trailer. [`resume`](Self::resume)
/// recovers that trailer, truncates the torn tail, and the sweep
/// re-measures from the next day. A resumed sweep therefore produces a
/// byte-identical file to an uninterrupted one.
///
/// A failed write or fsync poisons the writer: the file may then hold
/// bytes, or lack durability, that its in-memory state does not reflect,
/// so every later append or commit fails and resuming is the only way on.
pub struct ArchiveWriter {
    file: File,
    catalog: Catalog,
    /// Where the next byte (page or footer) is appended.
    data_end: u64,
    /// Column whose unique values are tracked per source (e.g. `"entry"`).
    unique_key_column: Option<String>,
    /// Pages appended since the last commit.
    pending_pages: Vec<PageMeta>,
    /// Unique key ids first observed since the last commit.
    pending_uniques: Vec<BTreeSet<u32>>,
    /// Dictionary length as of the last durable footer.
    committed_dict_len: u64,
    /// `trailer_end` of the last durable footer (0 = none yet, the
    /// first-footer sentinel in the chain's back-pointer).
    prev_trailer_end: u64,
    /// Set by the first failed write or fsync.
    poisoned: bool,
}

impl ArchiveWriter {
    /// Creates (truncating) a new archive at `path`. `unique_key_column`
    /// names the table column whose distinct values are accumulated into
    /// the per-source statistics, if any.
    pub fn create(path: &Path, unique_key_column: Option<&str>) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(HEADER_MAGIC)?;
        Ok(Self::continue_from(
            file,
            Catalog::new(),
            8,
            unique_key_column,
        ))
    }

    /// Opens an existing archive for appending, recovering the last durable
    /// footer (tolerating a torn tail from a killed writer) and truncating
    /// everything after it. Fails if `path` is not a valid archive.
    pub fn resume(path: &Path, unique_key_column: Option<&str>) -> io::Result<Self> {
        Self::resume_covering(path, unique_key_column, None)
    }

    /// The one resume routine for every archive file. Recovers the footer
    /// chain ([`format::recover_chain`]), keeps the longest prefix of
    /// commits whose days all lie in `covered` (the whole chain when
    /// `covered` is `None`), truncates everything after that prefix and
    /// continues from it.
    ///
    /// With `covered`, the kept pages must hold exactly the covered days;
    /// fewer is data loss and an error. Without it, an empty chain is
    /// refused and the file left untouched: with nothing vouching for it,
    /// a valid header with no recoverable footer cannot be told apart
    /// from corruption.
    pub(crate) fn resume_covering(
        path: &Path,
        unique_key_column: Option<&str>,
        covered: Option<&BTreeSet<u32>>,
    ) -> io::Result<Self> {
        let corrupt = |what: &str| {
            io::Error::other(format!(
                "dps-store: corrupt archive {} ({what})",
                path.display()
            ))
        };
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let commits = format::recover_chain(&mut file)?;
        let prefix_len = match covered {
            // The first commit holding a day the manifest does not cover,
            // and every later one, reached this file but not the
            // manifest: roll them back.
            Some(days) => commits
                .iter()
                .position(|c| c.delta.pages.iter().any(|p| !days.contains(&p.day)))
                .unwrap_or(commits.len()),
            None if commits.is_empty() => return Err(corrupt("no valid footer found")),
            None => commits.len(),
        };
        let prefix = commits.get(..prefix_len).unwrap_or(&commits);
        let mut catalog = Catalog::new();
        for commit in prefix {
            catalog
                .apply(&commit.delta)
                .ok_or_else(|| corrupt("footer chain does not apply cleanly"))?;
        }
        if let Some(days) = covered {
            let kept: BTreeSet<u32> = catalog.pages.keys().map(|&(d, _)| d).collect();
            if kept != *days {
                return Err(corrupt("missing days the manifest covers"));
            }
        }
        let trailer_end = prefix.last().map_or(8, |c| c.trailer_end);
        file.set_len(trailer_end)?;
        Ok(Self::continue_from(
            file,
            catalog,
            trailer_end,
            unique_key_column,
        ))
    }

    /// A writer appending at `trailer_end` (8 = just the header, nothing
    /// committed) of `file`, whose durable chain merges into `catalog`.
    fn continue_from(
        file: File,
        catalog: Catalog,
        trailer_end: u64,
        unique_key_column: Option<&str>,
    ) -> Self {
        let committed_dict_len = catalog.dict.len() as u64;
        Self {
            file,
            catalog,
            data_end: trailer_end,
            unique_key_column: unique_key_column.map(str::to_owned),
            pending_pages: Vec::new(),
            pending_uniques: Vec::new(),
            committed_dict_len,
            prev_trailer_end: if trailer_end > 8 { trailer_end } else { 0 },
            poisoned: false,
        }
    }

    /// Runs one write or fsync step on the file, poisoning the writer if
    /// it fails.
    fn io<T>(&mut self, step: impl FnOnce(&mut File) -> io::Result<T>) -> io::Result<T> {
        let result = step(&mut self.file);
        self.poisoned |= result.is_err();
        result
    }

    fn check_not_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "dps-store: writer poisoned by an earlier I/O error; resume the archive to continue",
            ));
        }
        Ok(())
    }

    /// The catalog as of the pages appended so far.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The dictionary recovered from the last committed footer (empty for
    /// a fresh archive). A resuming sweep must continue interning into a
    /// clone of this so dictionary ids stay identical to an uninterrupted
    /// run.
    pub fn dict(&self) -> &StringDict {
        &self.catalog.dict
    }

    /// True if a page for `(day, source)` is already present.
    pub fn contains(&self, day: u32, source: u8) -> bool {
        self.catalog.pages.contains_key(&(day, source))
    }

    /// The last day with any committed or appended page.
    pub fn last_day(&self) -> Option<u32> {
        self.catalog.pages.keys().map(|&(d, _)| d).max()
    }

    /// Appends one encoded table as a page. Duplicate `(day, source)`
    /// pages are an error — the archive is append-only per cell.
    pub fn append_table(
        &mut self,
        day: u32,
        source: u8,
        table: &Table,
        data_points: u64,
    ) -> io::Result<()> {
        self.check_not_poisoned()?;
        if self.contains(day, source) {
            return Err(io::Error::other(format!(
                "dps-store: page (day {day}, source {source}) already archived"
            )));
        }
        let bytes = table.to_bytes();
        let offset = self.data_end;
        self.io(|file| {
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(&bytes)?;
            file.write_all(&crc32(&bytes).to_le_bytes())
        })?;
        let meta = PageMeta {
            day,
            source,
            offset: self.data_end,
            len: bytes.len() as u64,
            rows: table.rows() as u64,
            data_points,
            raw_bytes: table.raw_len() as u64,
        };
        self.data_end += meta.len + PAGE_CRC_LEN;
        self.catalog.pages.insert((day, source), meta.clone());
        self.pending_pages.push(meta);
        if let Some(col) = self
            .unique_key_column
            .as_deref()
            .and_then(|name| table.column_by_name(name))
        {
            let idx = source as usize;
            if self.catalog.uniques.len() <= idx {
                self.catalog.uniques.resize_with(idx + 1, Default::default);
            }
            if self.pending_uniques.len() <= idx {
                self.pending_uniques.resize_with(idx + 1, Default::default);
            }
            if let (Some(all), Some(pending)) = (
                self.catalog.uniques.get_mut(idx),
                self.pending_uniques.get_mut(idx),
            ) {
                for &id in col {
                    // Only ids *first seen* by this commit go into its delta.
                    if all.insert(id) {
                        pending.insert(id);
                    }
                }
            }
        }
        Ok(())
    }

    /// Commits everything appended so far: fsyncs the page region, appends
    /// a footer carrying this commit's catalog delta (including the tail
    /// of `dict` since the previous commit) and its trailer, and fsyncs
    /// again. After this returns, a crash loses nothing committed. A
    /// commit with no new pages and no new dictionary entries is a no-op
    /// (the durable footer chain already describes the file).
    ///
    /// `dict` must extend the committed dictionary. That is checked
    /// cheaply: it must be at least as long and agree on the last
    /// committed id. Only its new tail is copied into
    /// [`dict`](Self::dict), so a commit costs nothing per string already
    /// committed.
    pub fn commit(&mut self, dict: &StringDict) -> io::Result<()> {
        self.check_not_poisoned()?;
        let dict_len = dict.len() as u64;
        if dict_len < self.committed_dict_len {
            return Err(io::Error::other(
                "dps-store: commit dictionary is shorter than the committed one",
            ));
        }
        if let Some(last) = self.committed_dict_len.checked_sub(1) {
            let last = last as u32;
            if dict.resolve(last) != self.catalog.dict.resolve(last) {
                return Err(io::Error::other(
                    "dps-store: commit dictionary does not extend the committed one",
                ));
            }
        }
        if self.pending_pages.is_empty()
            && dict_len == self.committed_dict_len
            && self.prev_trailer_end != 0
        {
            return Ok(());
        }
        let mut dict_tail = Vec::with_capacity((dict_len - self.committed_dict_len) as usize);
        for id in self.committed_dict_len..dict_len {
            let s = dict.resolve(id as u32).ok_or_else(|| {
                io::Error::other("dps-store: commit dictionary has a hole in its tail")
            })?;
            dict_tail.push(s.to_owned());
        }
        // Barrier 1: the pages a footer is about to reference must be
        // durable before that footer can become the recovery point.
        self.io(|file| file.sync_data())?;
        let delta = CatalogDelta {
            pages: std::mem::take(&mut self.pending_pages),
            uniques: std::mem::take(&mut self.pending_uniques),
            dict_base: self.committed_dict_len,
            dict_tail,
        };
        let footer = delta.encode();
        let mut tail = Vec::with_capacity(footer.len() + TRAILER_LEN as usize);
        tail.extend_from_slice(&footer);
        tail.extend_from_slice(&crc32(&footer).to_le_bytes());
        tail.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        tail.extend_from_slice(&self.prev_trailer_end.to_le_bytes());
        tail.extend_from_slice(FOOTER_MAGIC);
        let offset = self.data_end;
        self.io(|file| {
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(&tail)?;
            // Barrier 2: the footer itself. Later pages append after it.
            file.sync_data()
        })?;
        self.data_end += tail.len() as u64;
        self.prev_trailer_end = self.data_end;
        for s in delta.dict_tail {
            self.catalog.dict.intern(&s);
        }
        self.committed_dict_len = dict_len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_columnar::{Schema, TableBuilder};

    fn day_table(day: u32) -> Table {
        let mut b = TableBuilder::new(Schema::new(&["day", "entry"]));
        b.push_row(&[day, 7]);
        b.finish()
    }

    /// A footer write that fails must poison the writer. Otherwise a
    /// retried commit with an unchanged dictionary finds nothing pending
    /// and returns `Ok`, while `contains` still reports a day that no
    /// durable footer references.
    #[test]
    fn failed_commit_poisons_the_writer() {
        let dir = std::env::temp_dir().join(format!("dps-store-poison-{}", std::process::id()));
        let path = dir.join("archive.dps");
        let dict = StringDict::new();
        let mut w = ArchiveWriter::create(&path, None).unwrap();
        w.append_table(0, 0, &day_table(0), 1).unwrap();
        w.commit(&dict).unwrap();
        w.append_table(1, 0, &day_table(1), 1).unwrap();

        // A read-only handle on the same file: the footer write fails
        // with EBADF.
        let writable = std::mem::replace(&mut w.file, File::open(&path).unwrap());
        assert!(w.commit(&dict).is_err());
        w.file = writable;
        assert!(w.contains(1, 0));
        assert!(
            w.commit(&dict).is_err(),
            "a retried commit must not report day 1 durable"
        );
        assert!(w.append_table(2, 0, &day_table(2), 1).is_err());
        drop(w);

        let w = ArchiveWriter::resume(&path, None).unwrap();
        assert!(w.contains(0, 0));
        assert!(!w.contains(1, 0), "day 1 never reached a durable footer");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A commit whose dictionary disagrees with the committed one on the
    /// last committed id is refused before any byte is written, and the
    /// writer stays usable with the right dictionary.
    #[test]
    fn commit_refuses_a_dictionary_that_does_not_extend_the_committed_one() {
        let dir = std::env::temp_dir().join(format!("dps-store-dict-{}", std::process::id()));
        let path = dir.join("archive.dps");
        let dict_of = |strings: &[&str]| {
            let mut d = StringDict::new();
            for s in strings {
                d.intern(s);
            }
            d
        };
        let mut w = ArchiveWriter::create(&path, None).unwrap();
        w.append_table(0, 0, &day_table(0), 1).unwrap();
        w.commit(&dict_of(&["a", "b"])).unwrap();
        w.append_table(1, 0, &day_table(1), 1).unwrap();
        let appended = std::fs::read(&path).unwrap();

        let err = w.commit(&dict_of(&["a", "x", "y"])).unwrap_err();
        assert!(err.to_string().contains("does not extend"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), appended, "no footer written");
        assert!(w.commit(&dict_of(&["a"])).is_err(), "shorter");

        let grown = dict_of(&["a", "b", "c"]);
        w.commit(&grown).unwrap();
        assert_eq!(w.dict().to_bytes(), grown.to_bytes());
        drop(w);
        let w = ArchiveWriter::resume(&path, None).unwrap();
        assert_eq!(w.dict().to_bytes(), grown.to_bytes());
        assert!(w.contains(1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
