//! Per-domain state and the diversion taxonomy (paper §2).

use crate::ids::{BasketId, DomainId, HosterId, ProviderId, Tld};
use dps_dns::Name;
use dps_netsim::Day;
use serde::{Deserialize, Serialize};

/// How (and whether) a domain's traffic relates to a DPS right now.
///
/// These variants are the ground-truth counterpart of the method
/// combinations the detection methodology infers from CNAME/NS/ASN
/// references (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Diversion {
    /// No DPS involvement: ordinary hosting.
    #[default]
    None,
    /// Owner pointed A records at a provider cloud address
    /// (ASN reference only).
    ARecord(ProviderId),
    /// `www` is an alias into the provider's domain; the apex A also lands
    /// in the provider cloud (CNAME + ASN references, no NS).
    Cname(ProviderId),
    /// The zone is delegated to the provider *and* traffic is diverted
    /// (NS + ASN references).
    NsDelegation(ProviderId),
    /// The zone is delegated (e.g. a managed-DNS product) but addresses
    /// still point at the original hoster: NS reference only, no diversion.
    NsOnly(ProviderId),
    /// Addresses unchanged; the covering prefix is originated by the
    /// provider's AS (BGP diversion: ASN reference with stable address).
    Bgp(ProviderId),
}

impl Diversion {
    /// The provider involved, if any.
    pub fn provider(self) -> Option<ProviderId> {
        match self {
            Diversion::None => None,
            Diversion::ARecord(p)
            | Diversion::Cname(p)
            | Diversion::NsDelegation(p)
            | Diversion::NsOnly(p)
            | Diversion::Bgp(p) => Some(p),
        }
    }

    /// True if traffic actually flows through the provider (everything but
    /// `None` and the no-diversion managed-DNS case).
    pub fn diverts_traffic(self) -> bool {
        !matches!(self, Diversion::None | Diversion::NsOnly(_))
    }

    /// True if the provider serves the domain's zone (NS reference).
    pub fn delegates_dns(self) -> bool {
        matches!(self, Diversion::NsDelegation(_) | Diversion::NsOnly(_))
    }
}

/// Mutable state of one second-level domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainState {
    /// Zone the domain is registered under.
    pub tld: Tld,
    /// Hosting company of its baseline (non-diverted) address.
    pub hoster: HosterId,
    /// First day the domain appears in the zone file.
    pub registered: Day,
    /// First day the domain is *absent* again, if it was ever deleted.
    pub deleted: Option<Day>,
    /// Scripted basket membership (Wix, ENOM, …), with the member index
    /// used for stable basket addressing.
    pub basket: Option<(BasketId, u32)>,
    /// Current protection state.
    pub diversion: Diversion,
    /// Whether `www` publishes an AAAA when the serving side supports IPv6.
    pub wants_aaaa: bool,
    /// Baseline `www` posture: alias into the hoster's platform domain
    /// (Wix-style) instead of a direct A record.
    pub www_cname_to_hoster: bool,
    /// The domain's DNS is broken today (models the Sedo incident: queries
    /// fail, the domain drops out of that day's measurement).
    pub outage: bool,
}

impl DomainState {
    /// True if the domain is in its TLD zone file on `day`.
    pub fn alive_on(&self, day: Day) -> bool {
        self.registered <= day && self.deleted.map_or(true, |d| day < d)
    }
}

/// Ground truth for one domain-day, used to score the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundTruth {
    /// The provider whose services the domain uses (any mechanism).
    pub provider: Option<ProviderId>,
    /// The exact mechanism.
    pub diversion: Diversion,
}

/// Longest `<prefix><id>` label: one prefix octet plus `u32::MAX`'s ten
/// digits.
pub(crate) const ID_LABEL_MAX: usize = 11;

/// Writes `<prefix><n>` (e.g. `d42`, `e42`) into `buf` and returns it:
/// the per-domain labels of customer apexes and CNAME targets, rendered
/// without a heap allocation.
pub(crate) fn id_label(prefix: u8, n: u32, buf: &mut [u8; ID_LABEL_MAX]) -> &str {
    let mut digits = [0u8; ID_LABEL_MAX - 1];
    let mut at = digits.len();
    let mut v = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let len = 1 + digits.len() - at;
    buf[0] = prefix;
    buf[1..len].copy_from_slice(&digits[at..]);
    // Only the ASCII prefix and digits were written.
    std::str::from_utf8(&buf[..len]).expect("ascii label")
}

/// The apex name `d<id>.<tld>` of domain `id`, built in place.
pub(crate) fn domain_apex(id: DomainId, tld: Tld) -> Name {
    let mut buf = [0; ID_LABEL_MAX];
    let label = id_label(b'd', id.0, &mut buf);
    Name::from_labels([label.as_bytes(), tld.label().as_bytes()])
        .expect("generated names are valid")
}

/// Parses a `d<id>` label back to the id.
pub fn parse_domain_label(label: &[u8]) -> Option<DomainId> {
    match label.split_first()? {
        (b'd', digits) => parse_id_digits(digits),
        _ => None,
    }
}

/// Parses the digits of a `d<id>`/`e<id>` label. Only the canonical
/// rendering is accepted — no leading zero unless the id is exactly 0 —
/// so every id has exactly one label, the one [`id_label`] writes.
pub(crate) fn parse_id_digits(digits: &[u8]) -> Option<DomainId> {
    if digits.is_empty() || digits.len() > 9 || (digits.len() > 1 && digits[0] == b'0') {
        return None;
    }
    let mut v: u32 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u32::from(b - b'0'))?;
    }
    Some(DomainId(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::pid;

    #[test]
    fn label_roundtrip() {
        let mut buf = [0; ID_LABEL_MAX];
        for id in [0u32, 7, 123_456, 999_999_999] {
            let label = id_label(b'd', id, &mut buf);
            assert_eq!(parse_domain_label(label.as_bytes()), Some(DomainId(id)));
        }
        assert_eq!(parse_domain_label(b"x123"), None);
        assert_eq!(parse_domain_label(b"d"), None);
        assert_eq!(parse_domain_label(b"d12a"), None);
        assert_eq!(parse_domain_label(b"d9999999999"), None);
    }

    /// Zero-padded labels name no domain: `d00` is not `d0`, and `d01`
    /// is not `d1`.
    #[test]
    fn only_canonical_labels_parse() {
        assert_eq!(parse_domain_label(b"d0"), Some(DomainId(0)));
        assert_eq!(parse_domain_label(b"d10"), Some(DomainId(10)));
        for padded in [&b"d00"[..], b"d01", b"d0123", b"d000000001"] {
            assert_eq!(parse_domain_label(padded), None, "{padded:?}");
        }
        assert_eq!(parse_id_digits(b"0"), Some(DomainId(0)));
        assert_eq!(parse_id_digits(b"07"), None);
        assert_eq!(parse_id_digits(b""), None);
    }

    #[test]
    fn id_label_writes_every_width() {
        let mut buf = [0; ID_LABEL_MAX];
        for n in [0u32, 9, 10, 99, 100, 123_456, 999_999_999, u32::MAX] {
            assert_eq!(id_label(b'd', n, &mut buf), format!("d{n}"));
            assert_eq!(id_label(b'e', n, &mut buf), format!("e{n}"));
        }
    }

    /// The stack-buffer apex equals the `format!` + parse route it
    /// replaced, for edge ids and a sample of real ones, in every TLD.
    #[test]
    fn domain_apex_matches_formatted_parse() {
        let mut ids = vec![0u32, 9, 10, u32::MAX];
        ids.extend((0..200).map(|i| i * 7919 + 3));
        for tld in [Tld::Com, Tld::Net, Tld::Org, Tld::Nl, Tld::Biz] {
            for &id in &ids {
                let expected: Name = format!("d{id}.{}", tld.label()).parse().unwrap();
                assert_eq!(domain_apex(DomainId(id), tld), expected);
            }
        }
    }

    #[test]
    fn diversion_predicates() {
        assert!(!Diversion::None.diverts_traffic());
        assert!(!Diversion::NsOnly(pid::VERISIGN).diverts_traffic());
        assert!(Diversion::Bgp(pid::F5).diverts_traffic());
        assert!(Diversion::NsOnly(pid::VERISIGN).delegates_dns());
        assert!(!Diversion::Cname(pid::AKAMAI).delegates_dns());
        assert_eq!(Diversion::Cname(pid::AKAMAI).provider(), Some(pid::AKAMAI));
        assert_eq!(Diversion::None.provider(), None);
    }

    #[test]
    fn alive_window() {
        let d = DomainState {
            tld: Tld::Com,
            hoster: HosterId(0),
            registered: Day(10),
            deleted: Some(Day(20)),
            basket: None,
            diversion: Diversion::None,
            wants_aaaa: false,
            www_cname_to_hoster: false,
            outage: false,
        };
        assert!(!d.alive_on(Day(9)));
        assert!(d.alive_on(Day(10)));
        assert!(d.alive_on(Day(19)));
        assert!(!d.alive_on(Day(20)));
    }
}
