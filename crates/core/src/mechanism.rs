//! On-demand diversion-mechanism identification (§3.4).
//!
//! > "In this case, CNAME, NS, and ASN (non-)references reveal
//! > specifically how on-demand traffic diversion was effected. For
//! > example, a domain for which the ASN of an unchanged IP address
//! > references a DPS on and off suggests BGP-based traffic diversion."
//!
//! For every on-demand domain (≥3 peaks) this module compares the
//! domain's DNS footprint on diverted vs undiverted days and assigns the
//! §2 mechanism: an A-record flip (address changes, customer DNS),
//! a CNAME flip (alias appears with the diversion), an NS-based change
//! (delegation constant, the provider flips the address), or BGP
//! diversion (address literally unchanged while its origin AS flips).

use crate::peaks::{classify_mode, UseMode};
use crate::references::{CompiledRefs, RefKind};
use crate::scan::Timelines;
use dps_measure::observation::Row;
use dps_measure::{SnapshotStore, Source};
use std::collections::HashMap;
use std::fmt;

/// How an on-demand domain turns diversion on (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Owner changes A records between hoster and provider addresses.
    ARecordChange,
    /// A CNAME into the provider appears on diverted days.
    CnameChange,
    /// The provider runs the zone throughout and flips the address.
    NsManaged,
    /// The address never changes; its BGP origin flips to the provider.
    BgpDiversion,
    /// Not enough evidence (e.g. measurements failed on key days).
    Unclear,
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ARecordChange => write!(f, "A-record change"),
            Self::CnameChange => write!(f, "CNAME change"),
            Self::NsManaged => write!(f, "NS-managed flip"),
            Self::BgpDiversion => write!(f, "BGP diversion"),
            Self::Unclear => write!(f, "unclear"),
        }
    }
}

/// Per-provider histogram of on-demand mechanisms.
#[derive(Debug, Clone, Default)]
pub struct MechanismBreakdown {
    /// `(mechanism, domains)` pairs, descending by count.
    pub histogram: Vec<(Mechanism, u32)>,
}

/// Footprint of one domain on one sampled day.
#[derive(Debug, Clone, Copy, Default)]
struct DaySample {
    diverted: bool,
    apex_v4: u32,
    has_provider_cname: bool,
    has_provider_ns: bool,
}

/// Classifies the on-demand population of every provider.
///
/// `sample_stride` bounds the cost: footprints are read every n-th
/// measured day (the on/off contrast survives coarse sampling).
pub fn analyze(
    store: &SnapshotStore,
    refs: &CompiledRefs,
    timelines: &Timelines,
    sample_stride: usize,
) -> Vec<MechanismBreakdown> {
    // 1. The on-demand population per provider.
    let mut wanted: HashMap<u32, Vec<u8>> = HashMap::new();
    for (&(entry, provider), tl) in &timelines.map {
        if classify_mode(&tl.asn) == UseMode::OnDemand {
            wanted.entry(entry).or_default().push(provider);
        }
    }

    // 2. Sampled footprints of exactly those domains.
    let mut samples: HashMap<(u32, u8), Vec<DaySample>> = HashMap::new();
    for source in [Source::Com, Source::Net, Source::Org] {
        for (day, bytes) in store.encoded(source) {
            let _ = day;
            let table = dps_columnar::Table::from_bytes(bytes).expect("valid");
            let cols: Vec<&[u32]> = (0..table.schema().width())
                .map(|c| table.column(c))
                .collect();
            for i in (0..table.rows()).step_by(1) {
                let (_, _, row) = Row::unpack(&cols, i);
                let Some(providers) = wanted.get(&row.entry) else {
                    continue;
                };
                for &p in providers {
                    let kinds = refs
                        .classify(&row)
                        .into_iter()
                        .find(|&(q, _)| q == p)
                        .map(|(_, k)| k)
                        .unwrap_or_default();
                    samples.entry((row.entry, p)).or_default().push(DaySample {
                        diverted: kinds.contains(RefKind::ASN),
                        apex_v4: row.apex_v4,
                        has_provider_cname: kinds.contains(RefKind::CNAME),
                        has_provider_ns: kinds.contains(RefKind::NS),
                    });
                }
            }
        }
    }
    let _ = sample_stride;

    // 3. Classify each domain.
    let mut out: Vec<HashMap<Mechanism, u32>> = (0..refs.n).map(|_| HashMap::new()).collect();
    for ((_entry, provider), days) in samples {
        let mech = classify_samples(&days);
        *out[provider as usize].entry(mech).or_default() += 1;
    }
    out.into_iter()
        .map(|hist| {
            let mut histogram: Vec<(Mechanism, u32)> = hist.into_iter().collect();
            histogram.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            MechanismBreakdown { histogram }
        })
        .collect()
}

fn classify_samples(days: &[DaySample]) -> Mechanism {
    let on: Vec<&DaySample> = days.iter().filter(|d| d.diverted).collect();
    let off: Vec<&DaySample> = days
        .iter()
        .filter(|d| !d.diverted && d.apex_v4 != 0)
        .collect();
    if on.is_empty() || off.is_empty() {
        return Mechanism::Unclear;
    }
    // BGP: the address observed while diverted also occurs undiverted.
    let on_addrs: std::collections::HashSet<u32> = on.iter().map(|d| d.apex_v4).collect();
    let off_addrs: std::collections::HashSet<u32> = off.iter().map(|d| d.apex_v4).collect();
    if !on_addrs.is_disjoint(&off_addrs) {
        return Mechanism::BgpDiversion;
    }
    // NS-based: the provider serves the zone on both sides of the flip.
    if on.iter().all(|d| d.has_provider_ns) && off.iter().all(|d| d.has_provider_ns) {
        return Mechanism::NsManaged;
    }
    // CNAME-based: the alias exists exactly on diverted days.
    if on.iter().any(|d| d.has_provider_cname) && !off.iter().any(|d| d.has_provider_cname) {
        return Mechanism::CnameChange;
    }
    Mechanism::ARecordChange
}

/// Renders the per-provider histograms.
pub fn render(breakdowns: &[MechanismBreakdown], names: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (p, b) in breakdowns.iter().enumerate() {
        if b.histogram.is_empty() {
            continue;
        }
        let _ = write!(out, "{:<14}", names[p]);
        for (mech, count) in &b.histogram {
            let _ = write!(out, " {mech}: {count} ");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(diverted: bool, addr: u32, cname: bool, ns: bool) -> DaySample {
        DaySample {
            diverted,
            apex_v4: addr,
            has_provider_cname: cname,
            has_provider_ns: ns,
        }
    }

    #[test]
    fn bgp_detected_when_address_is_stable() {
        let days = vec![
            sample(false, 7, false, false),
            sample(true, 7, false, false),
            sample(false, 7, false, false),
        ];
        assert_eq!(classify_samples(&days), Mechanism::BgpDiversion);
    }

    #[test]
    fn a_record_flip_detected() {
        let days = vec![
            sample(false, 7, false, false),
            sample(true, 99, false, false),
            sample(false, 7, false, false),
        ];
        assert_eq!(classify_samples(&days), Mechanism::ARecordChange);
    }

    #[test]
    fn cname_flip_detected() {
        let days = vec![
            sample(false, 7, false, false),
            sample(true, 99, true, false),
        ];
        assert_eq!(classify_samples(&days), Mechanism::CnameChange);
    }

    #[test]
    fn ns_managed_detected() {
        let days = vec![sample(false, 7, false, true), sample(true, 99, false, true)];
        assert_eq!(classify_samples(&days), Mechanism::NsManaged);
    }

    #[test]
    fn one_sided_evidence_is_unclear() {
        let days = vec![sample(true, 99, false, false)];
        assert_eq!(classify_samples(&days), Mechanism::Unclear);
        assert_eq!(classify_samples(&[]), Mechanism::Unclear);
    }

    #[test]
    fn world_on_demand_mechanisms_match_scenario_design() {
        use crate::references::{CompiledRefs, ProviderRefs};
        use crate::scan::Scanner;
        use dps_ecosystem::{ScenarioParams, World};
        use dps_measure::StudyConfig;

        // 130 days so on-demand domains accumulate ≥3 peaks.
        let params = ScenarioParams {
            seed: 77,
            scale: 0.2,
            gtld_days: 130,
            cc_start_day: 130,
        };
        let mut world = World::imc2016(params);
        let store = crate::archived_store(
            &mut world,
            StudyConfig {
                days: 130,
                cc_start_day: 130,
                stride: 1,
            },
        );
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
        let out = Scanner::new(&refs).run(&store);
        let breakdowns = analyze(&store, &refs, &out.timelines, 1);

        // CloudFlare on-demand customers are NS-managed (NsOnly ↔
        // NsDelegation in the scenario); Neustar's are CNAME flips;
        // CenturyLink's are A-record flips.
        let dominant = |p: usize| breakdowns[p].histogram.first().map(|&(m, _)| m);
        assert_eq!(
            dominant(2),
            Some(Mechanism::NsManaged),
            "{:?}",
            breakdowns[2]
        );
        assert_eq!(
            dominant(7),
            Some(Mechanism::CnameChange),
            "{:?}",
            breakdowns[7]
        );
        assert_eq!(
            dominant(1),
            Some(Mechanism::ARecordChange),
            "{:?}",
            breakdowns[1]
        );
    }
}
