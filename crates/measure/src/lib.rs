//! # dps-measure — the active DNS measurement pipeline
//!
//! An OpenINTEL-style measurement system (paper Fig. 1) over the simulated
//! Internet:
//!
//! * **Stage I — collection** ([`collector`]): for every name on the input
//!   lists (full TLD zone files + the Alexa-style list), query `A`/`AAAA`
//!   for the apex and the `www` label plus the apex `NS` set, capturing
//!   full CNAME expansions. Two interchangeable query paths exist: the
//!   wire path (iterative resolution over the lossy simulated network) and
//!   the bulk path (direct world evaluation) — tests pin their equivalence.
//! * **Stage II — storage** ([`snapshot`]): daily per-source columnar
//!   tables (the Parquet stand-in), dictionary-encoded and compressed.
//! * **Stage III — supplementing** ([`observation`]): every address is
//!   annotated with the origin AS of its most-specific covering prefix
//!   from the day's `pfx2as` snapshot (multi-origin sets preserved).
//! * **Supervision** ([`supervisor`], [`quality`]): sweeps run under a
//!   fault-tolerant supervisor — transiently failed names land in a
//!   dead-letter queue and are retried at end of day, and every (day,
//!   source) gets a persisted [`quality::DayQuality`] record (coverage,
//!   per-cause failure census, retry/hedge/breaker statistics) that the
//!   analysis layer uses to gate bad days (the paper's §4.2 cleaning,
//!   automated).
//!
//! [`pipeline::Study`] drives all three stages across the measurement
//! calendar and commits every day to the `dps-store` archive; the analysis
//! crate reads it back as a [`snapshot::SnapshotStore`], along with the
//! Table 1 data-set statistics.

pub mod collector;
pub mod observation;
pub mod pipeline;
pub mod quality;
pub mod snapshot;
pub mod supervisor;
pub mod telemetry;

pub use collector::{BulkPath, PathTelemetry, QueryPath, RecursorPath, WirePath};
pub use observation::{Source, SOURCES};
pub use pipeline::{
    append_day, day_committed, due_sources_for, resume_store, resume_store_observed, DayObserver,
    PageBuilder, SourcePage, Study, StudyConfig, ANALYSIS_SOURCE, STREAM_BLOCK_ENTRIES,
};
pub use quality::{decode_qualities, encode_qualities, CauseCounts, DayQuality, QUALITY_SOURCE};
pub use snapshot::{SnapshotStore, SourceStats, ARCHIVE_FILE};
pub use supervisor::{
    sweep_supervised, sweep_supervised_metered, SupervisedSweep, SupervisorConfig, SweepMetrics,
};
pub use telemetry::{decode_telemetry, encode_telemetry, MetricKind, TELEMETRY_SOURCE};
