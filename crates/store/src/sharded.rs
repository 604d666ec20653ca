//! The archive store: one writer and one reader over one or more
//! archive files.
//!
//! ```text
//! dir/archive.dps           single file: the store's one shard, holding
//!                           the real StringDict; no manifest
//!
//! dir/archive.manifest      sharded: standard archive; real StringDict +
//!                           per-day coverage pages + an n_shards meta page
//! dir/archive.shard000.dps  standard archive; row range [0/N, 1/N) of
//! dir/archive.shard001.dps  every logical page, … empty dictionaries
//! ```
//!
//! A single-file archive is a store with no manifest and one shard,
//! `archive.dps` itself, byte-identical to the historical layout. With
//! more shards, every logical page `(day, source)` is row-split across
//! **all** shards with the cluster-lease arithmetic (`start = rows·k/N`),
//! so each shard's catalog has exactly the logical key set and per-shard
//! scan threads get near-equal work without any placement directory.
//! Shard files are ordinary archives — the existing footer/CRC/torn-tail
//! machinery guards each one — whose dictionaries stay empty; the shared
//! dictionary lives in the manifest only, so it is stored once instead of
//! N times.
//!
//! **Commit protocol**: every shard commits first, the manifest (if any)
//! commits last. The manifest's coverage pages therefore always describe
//! a subset of what the shards hold durably. **Resume** is one routine
//! for every file: recover its footer chain commit by commit
//! ([`format::recover_chain`](crate::format::recover_chain)), keep the
//! longest prefix whose days the manifest covers — the whole chain for
//! the manifest itself and for a single file — and truncate the rest. A
//! crash at any point between the first shard commit and the manifest
//! commit rolls back to the previous day — exactly the same
//! re-measure-one-day cost as a single file.
//!
//! An empty chain means different things in the two layouts. A shard
//! whose manifest covers no day resumes as fresh. A file with no manifest
//! has nothing to vouch for it, so a valid header with no recoverable
//! footer is refused rather than truncated: it cannot be told apart from
//! corruption.
//!
//! [`StoreReader::open_auto`] picks the layout by probing for the
//! manifest. With one shard, reads go straight to it: no row-split
//! copies, no stacking, and the shard's own catalog is the logical one.

// Untrusted-input module: manifests and shard files may be torn or
// corrupt; recovery must degrade to errors, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::archive::{Archive, CounterSnapshot, VerifyReport, DEFAULT_CACHE_BYTES};
use crate::catalog::{Catalog, PageMeta, SourceStats};
use crate::writer::ArchiveWriter;
use dps_columnar::{Schema, StringDict, Table, TableBuilder};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Source id of the manifest's single metadata page (day 0): one row,
/// column `n_shards`. Far above real source ids (data 0..=4, quality 5,
/// telemetry 6, analysis 7).
pub const MANIFEST_META_SOURCE: u8 = 255;
/// Source id of the manifest's per-day coverage pages: one row per
/// logical page committed that day, recording its exact totals for
/// cross-checking shard sums in `verify`.
pub const MANIFEST_COVERAGE_SOURCE: u8 = 254;

const META_DAY: u32 = 0;

fn corrupt(what: &str) -> io::Error {
    io::Error::other(format!("dps-store: corrupt sharded archive ({what})"))
}

/// The manifest path for archive base path `base` (`…/archive.dps` →
/// `…/archive.manifest`).
pub fn manifest_path(base: &Path) -> PathBuf {
    base.with_extension("manifest")
}

/// The shard-`k` path for archive base path `base` (`…/archive.dps` →
/// `…/archive.shard000.dps`).
pub fn shard_path(base: &Path, shard: u32) -> PathBuf {
    let stem = base
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "archive".to_owned());
    base.with_file_name(format!("{stem}.shard{shard:03}.dps"))
}

/// The row range of shard `k` of `n` for a page with `rows` rows — the
/// same arithmetic the cluster uses for work leases, so ranges tile the
/// table exactly and differ in size by at most one row.
pub fn shard_range(rows: usize, shard: u32, n_shards: u32) -> (usize, usize) {
    let n = u64::from(n_shards.max(1));
    let lo = (rows as u64).saturating_mul(u64::from(shard)) / n;
    let hi = (rows as u64).saturating_mul(u64::from(shard) + 1) / n;
    (
        usize::try_from(lo).unwrap_or(rows),
        usize::try_from(hi).unwrap_or(rows),
    )
}

fn meta_table(n_shards: u32) -> Table {
    let mut b = TableBuilder::new(Schema::new(&["n_shards"]));
    b.push_row(&[n_shards]);
    b.finish()
}

/// The shard count recorded in a manifest's meta page.
fn manifest_shards(manifest: &Archive) -> io::Result<u32> {
    let meta = manifest
        .table(META_DAY, MANIFEST_META_SOURCE)?
        .ok_or_else(|| corrupt("manifest has no meta page"))?;
    match meta.column_by_name("n_shards").and_then(|c| c.first()) {
        Some(0) => Err(corrupt("manifest says 0 shards")),
        Some(&n) => Ok(n),
        None => Err(corrupt("manifest meta page has no n_shards")),
    }
}

/// What accessors fall back to on a store without files. The
/// constructors never build one; this keeps the accessors total.
fn empty_catalog() -> &'static Catalog {
    static EMPTY: OnceLock<Catalog> = OnceLock::new();
    EMPTY.get_or_init(Catalog::new)
}

/// Exact totals of one logical page, recorded in the manifest's coverage
/// page for the day it was committed.
struct CoverageRow {
    source: u8,
    rows: u64,
    data_points: u64,
    raw_bytes: u64,
}

fn coverage_table(rows: &[CoverageRow]) -> Table {
    let mut b = TableBuilder::new(Schema::new(&[
        "source", "rows_lo", "rows_hi", "dp_lo", "dp_hi", "raw_lo", "raw_hi",
    ]));
    for r in rows {
        b.push_row(&[
            u32::from(r.source),
            (r.rows & 0xFFFF_FFFF) as u32,
            (r.rows >> 32) as u32,
            (r.data_points & 0xFFFF_FFFF) as u32,
            (r.data_points >> 32) as u32,
            (r.raw_bytes & 0xFFFF_FFFF) as u32,
            (r.raw_bytes >> 32) as u32,
        ]);
    }
    b.finish()
}

fn u64_of(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | (u64::from(hi) << 32)
}

/// An archive being written, in either layout (see the module docs for
/// the shards-then-manifest commit protocol).
pub struct StoreWriter {
    /// `archive.manifest`, when the store has one.
    manifest: Option<ArchiveWriter>,
    /// The shard files in row order; a single file is the one shard.
    shards: Vec<ArchiveWriter>,
    /// Coverage rows for days appended since the last commit (manifest
    /// stores only).
    pending_coverage: BTreeMap<u32, Vec<CoverageRow>>,
}

impl StoreWriter {
    /// Creates (truncating) an archive at base path `path`: a single file
    /// when `shards <= 1`, a manifest and `shards` shard files otherwise.
    pub fn create_store(
        path: &Path,
        shards: u32,
        unique_key_column: Option<&str>,
    ) -> io::Result<Self> {
        if shards <= 1 {
            return Ok(Self {
                manifest: None,
                shards: vec![ArchiveWriter::create(path, unique_key_column)?],
                pending_coverage: BTreeMap::new(),
            });
        }
        let mut manifest = ArchiveWriter::create(&manifest_path(path), None)?;
        manifest.append_table(META_DAY, MANIFEST_META_SOURCE, &meta_table(shards), 0)?;
        manifest.commit(&StringDict::new())?;
        let shards = (0..shards)
            .map(|k| ArchiveWriter::create(&shard_path(path, k), unique_key_column))
            .collect::<io::Result<_>>()?;
        Ok(Self {
            manifest: Some(manifest),
            shards,
            pending_coverage: BTreeMap::new(),
        })
    }

    /// Resumes whichever layout exists at `path` (a manifest beats the
    /// requested shard count — an existing sharded archive is resumed as
    /// such even when the caller asks for 1), creating a fresh archive
    /// with `shards` shard files when nothing exists. Refuses a shard
    /// count that contradicts an existing archive, and a shard missing a
    /// day the manifest vouches for — that is data loss, not a torn tail.
    pub fn resume_or_create(
        path: &Path,
        shards: u32,
        unique_key_column: Option<&str>,
    ) -> io::Result<Self> {
        let mpath = manifest_path(path);
        if !mpath.exists() {
            if !path.exists() {
                return Self::create_store(path, shards, unique_key_column);
            }
            if shards > 1 {
                return Err(io::Error::other(
                    "dps-store: cannot resume a single-file archive with --shards > 1",
                ));
            }
            return Ok(Self {
                manifest: None,
                shards: vec![ArchiveWriter::resume(path, unique_key_column)?],
                pending_coverage: BTreeMap::new(),
            });
        }
        let manifest = ArchiveWriter::resume(&mpath, None)?;
        // The writer does not read pages; reopen read-only for the meta
        // page now that the torn tail (if any) has been truncated.
        let n_shards = manifest_shards(&Archive::open_with_cache(&mpath, 0)?)?;
        if shards > 1 && n_shards != shards {
            return Err(io::Error::other(format!(
                "dps-store: archive has {n_shards} shards but {shards} were requested"
            )));
        }
        let covered: BTreeSet<u32> = manifest
            .catalog()
            .pages
            .keys()
            .filter(|&&(_, s)| s == MANIFEST_COVERAGE_SOURCE)
            .map(|&(d, _)| d)
            .collect();
        let shards = (0..n_shards)
            .map(|k| {
                ArchiveWriter::resume_covering(
                    &shard_path(path, k),
                    unique_key_column,
                    Some(&covered),
                )
            })
            .collect::<io::Result<_>>()?;
        Ok(Self {
            manifest: Some(manifest),
            shards,
            pending_coverage: BTreeMap::new(),
        })
    }

    /// Number of shard files (1 for the single-file layout).
    pub fn n_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The dictionary recovered from the last committed footer (the
    /// manifest's, or the single file's).
    pub fn dict(&self) -> &StringDict {
        match self.manifest.as_ref().or(self.shards.first()) {
            Some(writer) => writer.dict(),
            None => &empty_catalog().dict,
        }
    }

    /// True if a page for `(day, source)` is already present. Every shard
    /// holds a sub-page of every logical page, so shard 0 answers for all.
    pub fn contains(&self, day: u32, source: u8) -> bool {
        self.shards.first().is_some_and(|s| s.contains(day, source))
    }

    /// The last day with any committed or appended page.
    pub fn last_day(&self) -> Option<u32> {
        self.shards.first().and_then(ArchiveWriter::last_day)
    }

    /// True if no page has been committed or appended yet.
    pub fn is_empty(&self) -> bool {
        self.last_day().is_none()
    }

    /// Appends one logical table, row-split across the shards. A shard
    /// whose range is the whole table (the single-file case) writes it as
    /// is. The full `data_points` total is attributed to shard 0's
    /// sub-page so that summing shard page metadata reproduces exact
    /// logical totals.
    pub fn append_table(
        &mut self,
        day: u32,
        source: u8,
        table: &Table,
        data_points: u64,
    ) -> io::Result<()> {
        let rows = table.rows();
        let n = self.n_shards();
        for (k, shard) in self.shards.iter_mut().enumerate() {
            let points = if k == 0 { data_points } else { 0 };
            match shard_range(rows, k as u32, n) {
                (0, hi) if hi == rows => shard.append_table(day, source, table, points)?,
                (lo, hi) => shard.append_table(day, source, &table.slice_rows(lo, hi), points)?,
            }
        }
        if self.manifest.is_some() {
            self.pending_coverage
                .entry(day)
                .or_default()
                .push(CoverageRow {
                    source,
                    rows: rows as u64,
                    data_points,
                    raw_bytes: table.raw_len() as u64,
                });
        }
        Ok(())
    }

    /// Commits everything appended so far: every shard first, then the
    /// manifest (if any) with this commit's coverage pages. The real
    /// `dict` goes to the manifest, or to a single file's one shard;
    /// shards of a manifest store always commit an empty dictionary. A
    /// crash between the two leaves shard commits the next resume rolls
    /// back.
    pub fn commit(&mut self, dict: &StringDict) -> io::Result<()> {
        let empty = StringDict::new();
        let shard_dict = if self.manifest.is_some() {
            &empty
        } else {
            dict
        };
        for shard in &mut self.shards {
            shard.commit(shard_dict)?;
        }
        if let Some(manifest) = &mut self.manifest {
            for (day, rows) in std::mem::take(&mut self.pending_coverage) {
                manifest.append_table(day, MANIFEST_COVERAGE_SOURCE, &coverage_table(&rows), 0)?;
            }
            manifest.commit(dict)?;
        }
        Ok(())
    }
}

/// The logical view of a manifest store: page metadata summed across
/// shards, uniques unioned, the manifest's dictionary. Page offsets are
/// zero — reads go through the per-shard archives, never these metas.
struct Merged {
    catalog: Catalog,
    stats: Vec<SourceStats>,
}

fn merge_catalogs(manifest: &Archive, shards: &[Archive]) -> io::Result<Catalog> {
    let mut catalog = Catalog::new();
    catalog.dict = manifest.dict().clone();
    let Some(first) = shards.first() else {
        return Err(corrupt("no shards"));
    };
    for (&key, meta0) in &first.catalog().pages {
        let mut merged = PageMeta {
            day: meta0.day,
            source: meta0.source,
            offset: 0,
            len: 0,
            rows: 0,
            data_points: 0,
            raw_bytes: 0,
        };
        for shard in shards {
            let meta = shard.catalog().pages.get(&key).ok_or_else(|| {
                corrupt(&format!(
                    "page (day {}, source {}) missing from a shard",
                    key.0, key.1
                ))
            })?;
            merged.len += meta.len;
            merged.rows += meta.rows;
            merged.data_points += meta.data_points;
            merged.raw_bytes += meta.raw_bytes;
        }
        catalog.pages.insert(key, merged);
    }
    for shard in shards {
        if shard.catalog().pages.len() != first.catalog().pages.len() {
            return Err(corrupt("shard catalogs disagree on the page set"));
        }
        for (i, set) in shard.catalog().uniques.iter().enumerate() {
            if catalog.uniques.len() <= i {
                catalog.uniques.resize_with(i + 1, Default::default);
            }
            if let Some(mine) = catalog.uniques.get_mut(i) {
                mine.extend(set.iter().copied());
            }
        }
    }
    Ok(catalog)
}

/// A read-only handle on a committed archive, in either layout.
pub struct StoreReader {
    /// `archive.manifest`, when the store has one.
    manifest: Option<Archive>,
    /// The shard files in row order; a single file is the one shard.
    shards: Vec<Archive>,
    /// The merged logical view, present exactly when there is a
    /// manifest. Without one, the one shard's own catalog is the logical
    /// catalog.
    merged: Option<Merged>,
}

impl StoreReader {
    /// Opens whichever layout exists at base path `path` with the default
    /// cache: sharded if a manifest sits next to it, single-file
    /// otherwise.
    pub fn open_auto(path: &Path) -> io::Result<Self> {
        Self::open_auto_with_cache(path, DEFAULT_CACHE_BYTES)
    }

    /// Like [`open_auto`](Self::open_auto) with an explicit cache budget,
    /// split evenly across the shards (0 disables caching).
    pub fn open_auto_with_cache(path: &Path, cache_bytes: usize) -> io::Result<Self> {
        let mpath = manifest_path(path);
        if !mpath.exists() {
            return Ok(Self {
                manifest: None,
                shards: vec![Archive::open_with_cache(path, cache_bytes)?],
                merged: None,
            });
        }
        let manifest = Archive::open_with_cache(&mpath, 0)?;
        let n_shards = manifest_shards(&manifest)?;
        let per_shard_cache = cache_bytes / n_shards as usize;
        let shards = (0..n_shards)
            .map(|k| Archive::open_with_cache(&shard_path(path, k), per_shard_cache))
            .collect::<io::Result<Vec<_>>>()?;
        let catalog = merge_catalogs(&manifest, &shards)?;
        let stats = catalog.stats();
        Ok(Self {
            manifest: Some(manifest),
            shards,
            merged: Some(Merged { catalog, stats }),
        })
    }

    /// True for the manifest + shard-files layout.
    pub fn is_sharded(&self) -> bool {
        self.manifest.is_some()
    }

    /// Number of shard files (1 for the single-file layout).
    pub fn n_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The logical catalog.
    pub fn catalog(&self) -> &Catalog {
        match &self.merged {
            Some(merged) => &merged.catalog,
            None => self
                .shards
                .first()
                .map_or_else(|| empty_catalog(), Archive::catalog),
        }
    }

    /// The shared string dictionary.
    pub fn dict(&self) -> &StringDict {
        &self.catalog().dict
    }

    /// Source slots present (highest source id + 1).
    pub fn n_sources(&self) -> usize {
        self.catalog().n_sources()
    }

    /// Exact statistics for `source`, if it has any pages.
    pub fn stats(&self, source: u8) -> Option<&SourceStats> {
        match &self.merged {
            Some(merged) => merged.stats.get(source as usize),
            None => self.shards.first()?.stats(source),
        }
    }

    /// Days archived for `source`, ascending.
    pub fn days(&self, source: u8) -> Vec<u32> {
        self.catalog().days(source)
    }

    /// Sum of encoded page bytes across all shard files.
    pub fn total_stored_bytes(&self) -> u64 {
        self.catalog().total_stored_bytes()
    }

    /// The shards' I/O and decode counters, summed.
    pub fn counters(&self) -> CounterSnapshot {
        self.shards
            .iter()
            .map(Archive::counters)
            .fold(CounterSnapshot::default(), |sum, c| CounterSnapshot {
                pages_decoded: sum.pages_decoded + c.pages_decoded,
                cache_hits: sum.cache_hits + c.cache_hits,
                disk_bytes_read: sum.disk_bytes_read + c.disk_bytes_read,
                decoded_bytes: sum.decoded_bytes + c.decoded_bytes,
            })
    }

    /// The full logical table for `(day, source)`, if archived: every
    /// shard's sub-page stacked in shard order, which is original row
    /// order.
    pub fn table(&self, day: u32, source: u8) -> io::Result<Option<Arc<Table>>> {
        self.assemble(day, source, |shard| shard.table(day, source))
    }

    /// Like [`table`](Self::table) but decodes only the named columns.
    pub fn project(&self, day: u32, source: u8, cols: &[&str]) -> io::Result<Option<Arc<Table>>> {
        self.assemble(day, source, |shard| shard.project(day, source, cols))
    }

    /// One shard's sub-table of a logical page — the unit of parallel
    /// scan work. Shard 0 of a single-file archive is the whole page.
    pub fn shard_table(&self, shard: u32, day: u32, source: u8) -> io::Result<Option<Arc<Table>>> {
        match self.shards.get(shard as usize) {
            Some(archive) => archive.table(day, source),
            None => Ok(None),
        }
    }

    fn assemble(
        &self,
        day: u32,
        source: u8,
        load: impl Fn(&Archive) -> io::Result<Option<Arc<Table>>>,
    ) -> io::Result<Option<Arc<Table>>> {
        if let [only] = self.shards.as_slice() {
            return load(only);
        }
        if !self.catalog().pages.contains_key(&(day, source)) {
            return Ok(None);
        }
        let mut parts = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            parts.push(load(shard)?.ok_or_else(|| {
                corrupt(&format!(
                    "page (day {day}, source {source}) missing from a shard"
                ))
            })?);
        }
        let refs: Vec<&Table> = parts.iter().map(Arc::as_ref).collect();
        let merged = Table::vstack(&refs)
            .ok_or_else(|| corrupt("shard sub-pages have mismatched schemas"))?;
        Ok(Some(Arc::new(merged)))
    }

    /// Verifies every page checksum in the manifest (if any) and every
    /// shard, then cross-checks each manifest coverage row against the
    /// summed shard metadata. Each coverage row counts as one checked
    /// page in the report.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for archive in self.manifest.iter().chain(&self.shards) {
            let r = archive.verify()?;
            report.pages += r.pages;
            report.ok += r.ok;
            report.corrupt.extend(r.corrupt);
        }
        let Some(manifest) = &self.manifest else {
            return Ok(report);
        };
        for day in manifest.days(MANIFEST_COVERAGE_SOURCE) {
            let Some(cov) = manifest.table(day, MANIFEST_COVERAGE_SOURCE)? else {
                continue;
            };
            let (src, r_lo, r_hi, d_lo, d_hi, w_lo, w_hi) = (
                cov.column_by_name("source"),
                cov.column_by_name("rows_lo"),
                cov.column_by_name("rows_hi"),
                cov.column_by_name("dp_lo"),
                cov.column_by_name("dp_hi"),
                cov.column_by_name("raw_lo"),
                cov.column_by_name("raw_hi"),
            );
            let (Some(src), Some(r_lo), Some(r_hi), Some(d_lo), Some(d_hi), Some(w_lo), Some(w_hi)) =
                (src, r_lo, r_hi, d_lo, d_hi, w_lo, w_hi)
            else {
                report.pages += 1;
                report.corrupt.push((day, MANIFEST_COVERAGE_SOURCE));
                continue;
            };
            for i in 0..cov.rows() {
                report.pages += 1;
                let source = src.get(i).map_or(u8::MAX, |&s| s.min(255) as u8);
                let want_rows = u64_of(
                    r_lo.get(i).copied().unwrap_or(0),
                    r_hi.get(i).copied().unwrap_or(0),
                );
                let want_dp = u64_of(
                    d_lo.get(i).copied().unwrap_or(0),
                    d_hi.get(i).copied().unwrap_or(0),
                );
                let want_raw = u64_of(
                    w_lo.get(i).copied().unwrap_or(0),
                    w_hi.get(i).copied().unwrap_or(0),
                );
                let meta = self.catalog().pages.get(&(day, source));
                let matches = meta.is_some_and(|m| {
                    m.rows == want_rows && m.data_points == want_dp && m.raw_bytes == want_raw
                });
                if matches {
                    report.ok += 1;
                } else {
                    report.corrupt.push((day, source));
                }
            }
        }
        Ok(report)
    }
}
