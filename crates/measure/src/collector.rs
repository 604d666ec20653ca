//! Stage I: collecting one name's records through a query path.

use crate::observation::{entry_code, Row, Source};
use crate::quality::CauseCounts;
use dps_authdns::resolver::{Resolution, ResolveError, Resolver};
use dps_columnar::StringDict;
use dps_dns::{Name, RData, Rcode, RrType};
use dps_ecosystem::{World, ZoneEntry};
use dps_netsim::Pfx2As;
// dps: allow-file(unordered-collection, reason = "SldInterner's caches and BatchBuilder's table index are keyed lookups only, never iterated; dictionary ids are assigned by StringDict in first-intern order and table entries in first-occurrence order, so hash order cannot leak into output")
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

/// Fault-handling counters a query path can expose. The sweep supervisor
/// snapshots these around a sweep and stores the delta in the day's
/// [`DayQuality`](crate::quality::DayQuality) record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathTelemetry {
    /// Hedged second datagrams sent so far.
    pub hedges: u64,
    /// Circuit-breaker trips so far.
    pub breaker_trips: u64,
}

impl PathTelemetry {
    /// Counter delta since `before` (saturating).
    pub fn since(&self, before: &PathTelemetry) -> PathTelemetry {
        PathTelemetry {
            hedges: self.hedges.saturating_sub(before.hedges),
            breaker_trips: self.breaker_trips.saturating_sub(before.breaker_trips),
        }
    }
}

/// A way to ask the DNS a question. The measurement pipeline is generic
/// over this so the bulk path (direct world evaluation) and the wire path
/// (iterative resolution over the lossy network) share every other line of
/// code.
pub trait QueryPath {
    /// Resolves `(qname, qtype)` from scratch. The answer lives in a
    /// buffer the path owns and overwrites on the next query, so the
    /// caller reads it before asking again.
    fn query(&mut self, qname: &Name, qtype: RrType) -> Result<&Resolution, ResolveError>;

    /// Advances the path's notion of time without sending — the pause the
    /// supervisor inserts between dead-letter retry passes so transient
    /// faults (blackout windows, open breakers) have time to clear.
    /// Paths without a clock ignore it.
    fn pause_us(&mut self, _dt_us: u64) {}

    /// Current fault-handling counters. Paths without fault handling
    /// report zeros.
    fn telemetry(&self) -> PathTelemetry {
        PathTelemetry::default()
    }

    /// The path's virtual clock, for span timing. Paths without a clock
    /// report a frozen zero (spans over them record zero durations).
    fn now_us(&self) -> u64 {
        0
    }
}

/// Direct evaluation against the world (used for full-scale sweeps).
/// Answers are written into one reused buffer, so a sweep allocates no
/// answer storage per query.
pub struct BulkPath<'w> {
    world: &'w World,
    answer: Resolution,
}

impl<'w> BulkPath<'w> {
    /// Wraps a world.
    pub fn new(world: &'w World) -> Self {
        Self {
            world,
            answer: Resolution::default(),
        }
    }
}

impl QueryPath for BulkPath<'_> {
    fn query(&mut self, qname: &Name, qtype: RrType) -> Result<&Resolution, ResolveError> {
        self.world.resolve_into(qname, qtype, &mut self.answer)?;
        Ok(&self.answer)
    }
}

/// Iterative resolution over the simulated network.
pub struct WirePath {
    resolver: Resolver,
    answer: Resolution,
}

impl WirePath {
    /// Wraps an iterative resolver.
    pub fn new(resolver: Resolver) -> Self {
        Self {
            resolver,
            answer: Resolution::default(),
        }
    }
}

impl QueryPath for WirePath {
    fn query(&mut self, qname: &Name, qtype: RrType) -> Result<&Resolution, ResolveError> {
        self.answer = self.resolver.resolve(qname, qtype)?;
        Ok(&self.answer)
    }

    fn pause_us(&mut self, dt_us: u64) {
        self.resolver.sleep_us(dt_us);
    }

    fn telemetry(&self) -> PathTelemetry {
        PathTelemetry {
            hedges: self.resolver.hedges_sent(),
            breaker_trips: self.resolver.health().map_or(0, |h| h.trips()),
        }
    }

    fn now_us(&self) -> u64 {
        self.resolver.now_us()
    }
}

/// Iterative resolution through the shared caching recursor: wire
/// semantics, but TTL-aware answer/infrastructure caches and query
/// coalescing amortise packets across domains and sweep days.
pub struct RecursorPath {
    worker: dps_recursor::RecursorWorker,
    answer: Resolution,
}

impl RecursorPath {
    /// Wraps a recursor worker (one per sweeping thread; see
    /// [`dps_recursor::Recursor::worker`]).
    pub fn new(worker: dps_recursor::RecursorWorker) -> Self {
        Self {
            worker,
            answer: Resolution::default(),
        }
    }

    /// UDP queries this path's socket has sent.
    pub fn queries_sent(&self) -> u64 {
        self.worker.queries_sent()
    }
}

impl QueryPath for RecursorPath {
    fn query(&mut self, qname: &Name, qtype: RrType) -> Result<&Resolution, ResolveError> {
        self.answer = self.worker.resolve(qname, qtype)?;
        Ok(&self.answer)
    }

    fn pause_us(&mut self, dt_us: u64) {
        self.worker.sleep_us(dt_us);
    }

    fn telemetry(&self) -> PathTelemetry {
        let stats = self.worker.service_stats();
        PathTelemetry {
            hedges: stats.hedges,
            breaker_trips: stats.breaker_trips,
        }
    }

    fn now_us(&self) -> u64 {
        self.worker.now_us()
    }
}

/// Interns the registered domain ("SLD" in the paper's terminology) of
/// names through a name-keyed cache. Extraction is public-suffix aware
/// (see [`dps_dns::psl`]); the cache avoids re-rendering names.
pub struct SldInterner {
    psl: dps_dns::PublicSuffixList,
    cache: HashMap<Name, u32>,
    full_cache: HashMap<Name, u32>,
}

impl SldInterner {
    /// Uses the built-in public-suffix subset.
    pub fn new() -> Self {
        Self::with_psl(dps_dns::PublicSuffixList::default_list())
    }

    /// Uses a caller-provided public-suffix list (e.g. the real PSL when
    /// pointed at real data).
    pub fn with_psl(psl: dps_dns::PublicSuffixList) -> Self {
        Self {
            psl,
            cache: HashMap::new(),
            full_cache: HashMap::new(),
        }
    }

    /// Dictionary id of `name`'s registered domain.
    pub fn intern(&mut self, dict: &mut StringDict, name: &Name) -> u32 {
        if let Some(&id) = self.cache.get(name) {
            return id;
        }
        let sld = name.suffix_wire(self.psl.suffix_labels(name) + 1);
        let id = dict.intern(&dotted(sld));
        self.cache.insert(name.clone(), id);
        id
    }

    /// Dictionary id of the full host name (used for NS host analysis,
    /// paper footnote 10). Distinct host names are few (a provider runs a
    /// handful of servers), so the cache stays small.
    pub fn intern_full(&mut self, dict: &mut StringDict, name: &Name) -> u32 {
        if let Some(&id) = self.full_cache.get(name) {
            return id;
        }
        let id = dict.intern(&dotted(name.as_wire()));
        self.full_cache.insert(name.clone(), id);
        id
    }

    /// [`intern`](Self::intern) or [`intern_full`](Self::intern_full),
    /// by `kind`.
    pub fn intern_kind(&mut self, dict: &mut StringDict, name: &Name, kind: NameKind) -> u32 {
        match kind {
            NameKind::Sld => self.intern(dict, name),
            NameKind::Full => self.intern_full(dict, name),
        }
    }

    /// The id `name` was already interned under as `kind`, if any. This
    /// is the read-only view collection workers share: a name it knows
    /// needs no dictionary work from the manager.
    pub fn lookup(&self, name: &Name, kind: NameKind) -> Option<u32> {
        match kind {
            NameKind::Sld => self.cache.get(name),
            NameKind::Full => self.full_cache.get(name),
        }
        .copied()
    }
}

/// The presentation form of wire-form name bytes without the trailing
/// dot (`\x03www\x02le\x00` → `www.le`; the root gives `""`), rendered
/// into one allocation: the human-friendly dictionary entry of a name.
fn dotted(wire: &[u8]) -> String {
    let mut out = Vec::with_capacity(wire.len());
    let mut rest = wire;
    while let Some((&len, tail)) = rest.split_first() {
        let Some(label) = tail.get(..usize::from(len)).filter(|l| !l.is_empty()) else {
            break;
        };
        if !out.is_empty() {
            out.push(b'.');
        }
        out.extend_from_slice(label);
        rest = tail.get(label.len()..).unwrap_or(&[]);
    }
    // Labels are normalised ASCII; the lossy fallback renders any other
    // bytes exactly as `Name`'s `Display` does.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

impl Default for SldInterner {
    fn default() -> Self {
        Self::new()
    }
}

fn v4_of(res: &Resolution) -> u32 {
    res.answers
        .iter()
        .find_map(|r| match r.rdata {
            RData::A(ip) => Some(u32::from(ip)),
            _ => None,
        })
        .unwrap_or(0)
}

fn v6_of(res: &Resolution) -> Option<std::net::Ipv6Addr> {
    res.answers.iter().find_map(|r| match r.rdata {
        RData::Aaaa(ip) => Some(ip),
        _ => None,
    })
}

/// A collected measurement before dictionary encoding: SLDs are still
/// [`Name`]s, so worker threads can produce it without touching the
/// shared dictionary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawRow {
    /// Zone-entry code.
    pub entry: u32,
    /// The measured apex (its SLD becomes the row's `sld` column).
    pub apex: Option<Name>,
    /// Apex IPv4 (packed, 0 = none).
    pub apex_v4: u32,
    /// `www` IPv4 (packed, 0 = none).
    pub www_v4: u32,
    /// AAAA present.
    pub aaaa: bool,
    /// First two distinct CNAME-chain target SLD carriers.
    pub cnames: [Option<Name>; 2],
    /// First two distinct NS host names, deduplicated per SLD (the `ns*`
    /// columns carry SLDs).
    pub ns: [Option<Name>; 2],
    /// First two NS host names verbatim (the `nsh*` columns).
    pub ns_hosts: [Option<Name>; 2],
    /// Origin AS of the apex address (+ second origin for MOAS).
    pub asn1: u32,
    /// Second origin.
    pub asn2: u32,
    /// Origin AS of the `www` address.
    pub www_asn: u32,
    /// Origin AS of the AAAA address (v6 `pfx2as`).
    pub aaaa_asn: u32,
    /// Measurement failed entirely.
    pub failed: bool,
    /// Resource records observed.
    pub data_points: u32,
    /// Some query of this row failed *transiently* (timeout, unreachable,
    /// corrupt reply, SERVFAIL): a retry might complete the measurement.
    /// NXDOMAIN is a definitive observation and never sets this.
    pub retryable: bool,
    /// Per-cause failure tally for this collection attempt.
    pub causes: CauseCounts,
}

impl RawRow {
    /// Dictionary-encodes into a packed [`Row`] (manager-thread step).
    pub fn intern(self, dict: &mut StringDict, interner: &mut SldInterner) -> Row {
        let mut row = self.bare_row();
        for ((id, name), kind) in row
            .name_ids_mut()
            .into_iter()
            .zip(self.slot_names())
            .zip(SLOT_KINDS)
        {
            if let Some(name) = name {
                *id = interner.intern_kind(dict, name, kind);
            }
        }
        row
    }

    /// The row's names in interning order (see [`SLOT_KINDS`]): the one
    /// definition of the order every dictionary id is assigned in.
    fn slot_names(&self) -> [Option<&Name>; SLOTS] {
        let [cname1, cname2] = &self.cnames;
        let [ns1, ns2] = &self.ns;
        let [nsh1, nsh2] = &self.ns_hosts;
        [
            cname1.as_ref(),
            cname2.as_ref(),
            ns1.as_ref(),
            ns2.as_ref(),
            self.apex.as_ref(),
            nsh1.as_ref(),
            nsh2.as_ref(),
        ]
    }

    /// The scalar fields as a [`Row`] whose name columns are all 0.
    fn bare_row(&self) -> Row {
        Row {
            entry: self.entry,
            apex_v4: self.apex_v4,
            www_v4: self.www_v4,
            aaaa: self.aaaa,
            asn1: self.asn1,
            asn2: self.asn2,
            www_asn: self.www_asn,
            aaaa_asn: self.aaaa_asn,
            failed: self.failed,
            data_points: self.data_points,
            ..Row::default()
        }
    }
}

/// Which dictionary string a name is interned as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NameKind {
    /// Its registered domain ([`SldInterner::intern`]).
    Sld,
    /// The full host name ([`SldInterner::intern_full`]).
    Full,
}

/// Name slots per row.
pub const SLOTS: usize = 7;

/// The kind of each name slot, in interning order: the two CNAME
/// targets, the two NS SLDs and the apex are interned by registered
/// domain, the two NS hosts verbatim. [`Row::name_ids`] lists the
/// columns in the same order.
pub const SLOT_KINDS: [NameKind; SLOTS] = [
    NameKind::Sld,
    NameKind::Sld,
    NameKind::Sld,
    NameKind::Sld,
    NameKind::Sld,
    NameKind::Full,
    NameKind::Full,
];

/// One row of a [`RowBatch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchRow {
    /// The packed row. A name column ([`Row::name_ids`]) whose slot is
    /// marked in `marks` holds `1 + index` into the batch's name table;
    /// any other holds its final dictionary id (0 = no name).
    pub row: Row,
    /// Some query failed transiently ([`RawRow::retryable`]).
    pub retryable: bool,
    /// Per-cause failure tally.
    pub causes: CauseCounts,
    /// Bit `i` set: name slot `i` refers to the name table.
    pub marks: u8,
}

/// What a name-table reference becomes when a batch is (partly)
/// resolved.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    /// A final dictionary id; the slot is no longer marked.
    Id(u32),
    /// Another table reference.
    Ref(u32),
}

impl BatchRow {
    /// Rewrites every marked slot's table reference through `map`.
    fn remap(&mut self, map: impl Fn(u32) -> Resolved) {
        let marks = self.marks;
        for (i, id) in self.row.name_ids_mut().into_iter().enumerate() {
            if marks & (1 << i) == 0 {
                continue;
            }
            match map(*id) {
                Resolved::Id(final_id) => {
                    *id = final_id;
                    self.marks &= !(1 << i);
                }
                Resolved::Ref(reference) => *id = reference,
            }
        }
    }
}

/// Collected rows, dictionary-encoded as far as a worker can without
/// touching the shared dictionary. Names a read-only view of the
/// run-wide interner already knows carry their final id; every other
/// name is listed once in `names`, in first-occurrence order (rows in
/// order, slots in [`SLOT_KINDS`] order), and referenced from the rows.
/// Interning `names` in order assigns new dictionary ids exactly as
/// interning every row serially would, so the dictionary does not
/// depend on how the rows were split into batches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowBatch {
    /// The rows, in input-list order.
    pub rows: Vec<BatchRow>,
    /// The names the rows' marked slots refer to.
    pub names: Vec<(Name, NameKind)>,
}

impl RowBatch {
    /// Appends `other` after this batch's rows, shifting its table
    /// references past this batch's table. A name both tables hold is
    /// listed twice; interning it twice yields the same id.
    pub fn append(&mut self, other: RowBatch) {
        let shift = self.names.len() as u32;
        self.rows.extend(other.rows.into_iter().map(|mut row| {
            row.remap(|reference| Resolved::Ref(reference + shift));
            row
        }));
        self.names.extend(other.names);
    }

    /// Resolves every name `view` already knows to its id and drops it
    /// from the table. The names left keep their order, so interning
    /// them still assigns new ids as serial interning would.
    pub fn resolve_known(&mut self, view: &SldInterner) {
        let mut map = Vec::with_capacity(self.names.len() + 1);
        map.push(Resolved::Id(0));
        let mut unknown = Vec::new();
        for (name, kind) in std::mem::take(&mut self.names) {
            map.push(match view.lookup(&name, kind) {
                Some(id) => Resolved::Id(id),
                None => {
                    unknown.push((name, kind));
                    Resolved::Ref(unknown.len() as u32)
                }
            });
        }
        self.names = unknown;
        for row in &mut self.rows {
            row.remap(|reference| {
                map.get(reference as usize)
                    .copied()
                    .unwrap_or(Resolved::Id(0))
            });
        }
    }

    /// Interns the name table into `dict` in order, then resolves every
    /// row's marked slots against it (the manager-side step).
    pub fn resolve(
        self,
        dict: &mut StringDict,
        interner: &mut SldInterner,
    ) -> impl Iterator<Item = BatchRow> {
        let ids: Vec<u32> = std::iter::once(0)
            .chain(
                self.names
                    .iter()
                    .map(|(name, kind)| interner.intern_kind(dict, name, *kind)),
            )
            .collect();
        self.rows.into_iter().map(move |mut row| {
            row.remap(|reference| Resolved::Id(ids.get(reference as usize).copied().unwrap_or(0)));
            row
        })
    }
}

/// Builds a [`RowBatch`] row by row, looking names up in an optional
/// read-only view of the run-wide interner.
pub struct BatchBuilder<'v> {
    view: Option<&'v SldInterner>,
    batch: RowBatch,
    /// Table position + 1 of every name listed so far, SLD kind first.
    listed: [HashMap<Name, u32>; 2],
}

impl<'v> BatchBuilder<'v> {
    /// An empty batch. Without a `view` every name goes into the table.
    pub fn new(view: Option<&'v SldInterner>) -> Self {
        Self {
            view,
            batch: RowBatch::default(),
            listed: [HashMap::new(), HashMap::new()],
        }
    }

    /// Appends `raw` as the next row.
    pub fn push(&mut self, raw: &RawRow) {
        let mut row = raw.bare_row();
        let mut marks = 0u8;
        for (i, ((id, name), kind)) in row
            .name_ids_mut()
            .into_iter()
            .zip(raw.slot_names())
            .zip(SLOT_KINDS)
            .enumerate()
        {
            let Some(name) = name else { continue };
            if let Some(known) = self.view.and_then(|v| v.lookup(name, kind)) {
                *id = known;
                continue;
            }
            let [sld, full] = &mut self.listed;
            let listed = match kind {
                NameKind::Sld => sld,
                NameKind::Full => full,
            };
            *id = match listed.get(name) {
                Some(&reference) => reference,
                None => {
                    self.batch.names.push((name.clone(), kind));
                    let reference = self.batch.names.len() as u32;
                    listed.insert(name.clone(), reference);
                    reference
                }
            };
            marks |= 1 << i;
        }
        self.batch.rows.push(BatchRow {
            row,
            retryable: raw.retryable,
            causes: raw.causes,
            marks,
        });
    }

    /// The finished batch.
    pub fn finish(self) -> RowBatch {
        self.batch
    }
}

fn push_distinct(slot: &mut [Option<Name>; 2], name: &Name) {
    match &slot[0] {
        None => slot[0] = Some(name.clone()),
        Some(first) if first.suffix_wire(2) != name.suffix_wire(2) && slot[1].is_none() => {
            slot[1] = Some(name.clone());
        }
        _ => {}
    }
}

/// Collects the paper's record set for one name — apex `A`/`AAAA`, `www`
/// `A`, apex `NS`, with CNAME expansions — and supplements origin ASes
/// from `pfx2as` (stage III). Runs on worker threads; no shared state.
pub fn collect_raw(path: &mut impl QueryPath, apex: &Name, entry: u32, pfx2as: &Pfx2As) -> RawRow {
    let mut row = RawRow {
        entry,
        apex: Some(apex.clone()),
        ..RawRow::default()
    };

    // Each answer is read before the next query overwrites the path's
    // buffer; the query order (apex A, www A, AAAA, NS) and the cause
    // tally order are the sweep's contract with the wire paths.
    let apex_res = match path.query(apex, RrType::A) {
        Ok(r) => r,
        Err(e) => {
            row.failed = true;
            row.retryable = e.is_transient();
            row.causes.add(e.cause());
            return row;
        }
    };
    if apex_res.rcode != Rcode::NoError {
        // NXDOMAIN: the name vanished between zone-file fetch and sweep —
        // a definitive observation. SERVFAIL is a server-side fault and
        // worth a dead-letter retry.
        row.failed = true;
        if apex_res.rcode == Rcode::ServFail {
            row.retryable = true;
            row.causes.add(dps_authdns::FailureCause::ServerFailure);
        }
        return row;
    }
    row.data_points += apex_res.answers.len() as u32;
    row.apex_v4 = v4_of(apex_res);

    let www = apex.prepend("www").expect("www fits");
    match path.query(&www, RrType::A) {
        Ok(res) => {
            row.data_points += res.answers.len() as u32;
            row.www_v4 = v4_of(res);
            for rec in &res.answers {
                if let RData::Cname(target) = &rec.rdata {
                    push_distinct(&mut row.cnames, target);
                }
            }
        }
        Err(e) => {
            row.retryable |= e.is_transient();
            row.causes.add(e.cause());
        }
    }
    let mut aaaa_addr = None;
    match path.query(apex, RrType::Aaaa) {
        Ok(res) => {
            row.data_points += res.answers.len() as u32;
            aaaa_addr = v6_of(res);
            row.aaaa = aaaa_addr.is_some();
        }
        Err(e) => {
            row.retryable |= e.is_transient();
            row.causes.add(e.cause());
        }
    }
    match path.query(apex, RrType::Ns) {
        Ok(res) => {
            row.data_points += res.answers.len() as u32;
            for rec in res.records_of(RrType::Ns) {
                if let RData::Ns(host) = &rec.rdata {
                    push_distinct(&mut row.ns, host);
                    let hosts = &mut row.ns_hosts;
                    if hosts[0].is_none() {
                        hosts[0] = Some(host.clone());
                    } else if hosts[1].is_none() && hosts[0].as_ref() != Some(host) {
                        hosts[1] = Some(host.clone());
                    }
                }
            }
        }
        Err(e) => {
            row.retryable |= e.is_transient();
            row.causes.add(e.cause());
        }
    }

    // Stage III: supplement origin ASes.
    if row.apex_v4 != 0 {
        if let Some((origins, _)) = pfx2as.origins(IpAddr::V4(row.apex_v4.into())) {
            row.asn1 = origins.first().map(|a| a.0).unwrap_or(0);
            row.asn2 = origins.get(1).map(|a| a.0).unwrap_or(0);
        }
    }
    if row.www_v4 != 0 {
        if let Some((origins, _)) = pfx2as.origins(IpAddr::V4(row.www_v4.into())) {
            row.www_asn = origins.first().map(|a| a.0).unwrap_or(0);
        }
    }
    if let Some(v6) = aaaa_addr {
        if let Some((origins, _)) = pfx2as.origins(IpAddr::V6(v6)) {
            row.aaaa_asn = origins.first().map(|a| a.0).unwrap_or(0);
        }
    }
    row
}

/// The input list swept for `source`: its TLD's zone file, or the
/// Alexa-style top list.
pub fn source_entries(world: &World, source: Source) -> Arc<Vec<ZoneEntry>> {
    match source.tld() {
        Some(tld) => world.zone_entries(tld),
        None => world.alexa_entries(),
    }
}

/// Collects `entries` over the bulk path on the worker cloud (paper
/// Fig. 1): one map task per contiguous chunk of the slice, one chunk per
/// worker, each returning its rows as one [`RowBatch`] in entry order, so
/// the batches in order keep list order. Names `view` already knows are
/// encoded on the workers; without a view (a cluster agent has none)
/// every name goes into the batch's table. The single-process sweep and
/// the cluster worker's leases both collect through here.
pub fn collect_entries(
    world: &World,
    entries: &[ZoneEntry],
    pfx2as: &Pfx2As,
    view: Option<&SldInterner>,
) -> Vec<RowBatch> {
    let workers = dps_columnar::mapreduce::default_workers().max(1);
    let chunk = entries.len().div_ceil(workers).max(1);
    let chunks: Vec<&[ZoneEntry]> = entries.chunks(chunk).collect();
    dps_columnar::mapreduce::par_map(&chunks, |chunk| {
        let mut path = BulkPath::new(world);
        let mut batch = BatchBuilder::new(view);
        for &entry in chunk.iter() {
            let apex = world.entry_name(entry);
            batch.push(&collect_raw(&mut path, &apex, entry_code(entry), pfx2as));
        }
        batch.finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_ecosystem::{Diversion, ScenarioParams};

    #[test]
    fn collect_produces_references_for_cname_customer() {
        let world = World::imc2016(ScenarioParams::tiny(3));
        let mut dict = StringDict::new();
        let mut interner = SldInterner::new();
        let pfx2as = world.pfx2as();

        let (id, st) = world
            .domains()
            .iter()
            .enumerate()
            .find(|(_, st)| matches!(st.diversion, Diversion::Cname(_)) && st.alive_on(world.day()))
            .expect("cname customer");
        let apex = world.domain_name(dps_ecosystem::DomainId(id as u32));
        let mut path = BulkPath::new(&world);
        let row = collect_raw(&mut path, &apex, 0, &pfx2as).intern(&mut dict, &mut interner);

        assert!(!row.failed);
        assert_ne!(row.apex_v4, 0);
        assert_ne!(row.cname1, 0, "CNAME SLD captured");
        assert_ne!(row.ns1, 0, "NS SLD captured");
        assert_ne!(row.asn1, 0, "origin AS supplemented");
        let p = st.diversion.provider().unwrap();
        let spec = &dps_ecosystem::spec::PROVIDERS[p.0 as usize];
        let cname_sld = dict.resolve(row.cname1).unwrap();
        assert!(spec.cname_slds.contains(&cname_sld), "{cname_sld}");
        assert!(spec.asns.contains(&row.asn1), "{}", row.asn1);
        assert!(row.data_points >= 3);
    }

    #[test]
    fn collect_marks_missing_domains_failed() {
        let world = World::imc2016(ScenarioParams::tiny(3));
        let mut dict = StringDict::new();
        let mut interner = SldInterner::new();
        let pfx2as = world.pfx2as();
        let mut path = BulkPath::new(&world);
        let row = collect_raw(&mut path, &"d99999999.com".parse().unwrap(), 0, &pfx2as)
            .intern(&mut dict, &mut interner);
        assert!(row.failed);
        assert_eq!(row.apex_v4, 0);
    }

    #[test]
    fn interner_caches_and_matches_dict() {
        let mut dict = StringDict::new();
        let mut i = SldInterner::new();
        let a = i.intern(&mut dict, &"x.edge.incapdns.net".parse().unwrap());
        let b = i.intern(&mut dict, &"other.incapdns.net".parse().unwrap());
        assert_eq!(a, b);
        assert_eq!(dict.resolve(a), Some("incapdns.net"));
        let uk = i.intern(&mut dict, &"www.shop.co.uk".parse().unwrap());
        assert_eq!(dict.resolve(uk), Some("shop.co.uk"));
        let root = i.intern(&mut dict, &Name::root());
        assert_eq!(dict.resolve(root), Some(""));
    }

    /// Dictionary strings equal the `Display` rendering minus its root
    /// dot, non-UTF-8 label bytes included.
    #[test]
    fn dotted_matches_display_without_root_dot() {
        for wire in [
            &b"\x00"[..],
            b"\x02le\x00",
            b"\x03www\x05examp\x02le\x00",
            b"\x02\xff\xfe\x02le\x00",
            b"\x02a\xc3\x02\xa9b\x00",
        ] {
            let name = Name::from_wire(wire).unwrap();
            let mut shown = name.to_string();
            shown.pop();
            assert_eq!(dotted(name.as_wire()), shown, "{wire:?}");
        }
    }
}
