//! # dps-core — the IMC 2016 detection methodology
//!
//! This crate is the paper's primary contribution, implemented as a
//! library over the measurement archive produced by `dps-measure`:
//!
//! * [`references`] — per-provider reference sets (AS numbers, CNAME SLDs,
//!   NS SLDs; paper Table 2) and their compiled lookup form,
//! * [`scan`] — the single pass that classifies every domain-day into
//!   per-provider use with a method breakdown (§3.3) and produces daily
//!   series plus per-domain reference timelines,
//! * [`discovery`] — the iterative seed-expansion procedure that derives
//!   the reference sets from the data itself (§3.3, regenerates Table 2),
//! * [`growth`] — median smoothing, large-anomaly cleaning and growth
//!   factors (§4.2, Figs. 5–6),
//! * [`peaks`] — always-on/on-demand classification and peak-duration
//!   CDFs (§3.4, §4.4.3, Fig. 8),
//! * [`flux`] — first-seen/last-seen influx/outflux in two-week windows
//!   (§4.4.2, Fig. 7),
//! * [`quality`] — per-day coverage gating from the archive's DayQuality
//!   records (the automated §4.2 cleaning; masked days are bridged in
//!   [`growth`] and ignored in [`flux`]),
//! * [`attribution`] — tracing anomalies to third parties via shared
//!   NS/CNAME SLDs of the domains that flipped (§4.4.1),
//! * [`combinations`] — the reference-combination breakdown ("not only
//!   if, but how", §3.3),
//! * [`mechanism`] — identifying how on-demand diversion was effected
//!   (A record / CNAME / NS-managed / BGP, §3.4),
//! * [`report`] — text/CSV builders for every table and figure.

pub mod attribution;
pub mod combinations;
pub mod discovery;
pub mod flux;
pub mod growth;
pub mod mechanism;
pub mod peaks;
pub mod quality;
pub mod references;
pub mod report;
pub mod scan;
pub mod util;

pub use quality::{QualityMask, DEFAULT_MIN_COVERAGE};
pub use references::{CompiledRefs, ProviderRefs, RefKind};
pub use scan::{ScanOutput, Scanner, SeriesSet, Timelines};

/// Measures `config` over `world` into a temp-dir archive and loads it
/// back (unit-test support).
#[cfg(test)]
pub(crate) fn archived_store(
    world: &mut dps_ecosystem::World,
    config: dps_measure::StudyConfig,
) -> dps_measure::SnapshotStore {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dps-core-test-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(dps_measure::ARCHIVE_FILE);
    dps_measure::Study::new(config)
        .run_archived(world, &path)
        .unwrap();
    let store = dps_measure::SnapshotStore::load_archive(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    store
}
