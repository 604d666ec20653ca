//! The serving stage: `dps_serve::Server` on loopback UDP, driven by a
//! seeded open-loop generator.
//!
//! * **Zones.** The day-0 `.com/.net/.org/.nl` registry zones of the
//!   workload's world (`World::zone_file_text`), written as master files.
//! * **Clients.** A seeded population of [`CLIENTS`] source addresses in
//!   127/8, one UDP socket each. Queries go to clients round robin, so at
//!   every rate the benchmark offers each client stays below the
//!   response-rate limit.
//! * **Normal mix.** NS and A queries for existing SLDs, spread evenly
//!   over no EDNS and EDNS 512/1232/4096, plus a fixed share
//!   ([`NX_SHARE`]) of nonexistent SLDs that must get NXDOMAIN.
//! * **Reference phase.** The mix at the fixed [`REFERENCE_QPS`]; latency
//!   is timed from each query's *scheduled* send time, so a stall also
//!   delays every query due behind it.
//! * **Rate ladder.** A fixed grid of rates above the reference, spaced
//!   ×[`LADDER_RATIO`]: a coarse climb over every [`COARSE_STRIDE`]-th
//!   rate until one fails, then the rates above the last coarse pass one
//!   by one. A step passes when its p99 latency
//!   (an unanswered query counts as infinitely late) is within
//!   [`LATENCY_LIMIT_US`] in one of two tries; a growing backlog shows up
//!   as latency growing past the limit. `serve_qps_max` is the highest
//!   passing rate.
//! * **Water torture.** Random labels under a few SLDs, sent from
//!   [`ATTACKERS`] addresses at twice the per-client RRL rate, so the
//!   limiter drops or slips a share of them.
//!
//! One generator thread sends on the schedule and polls every client
//! socket between sends (non-blocking), so the benchmark uses one thread
//! and the server's UDP loop the other CPU.

use crate::sys::{median, percentile};
use dps_authdns::AuthServer;
use dps_dns::{Message, Name, Question, Rcode, RrType};
use dps_ecosystem::{Tld, World};
use dps_serve::edns::opt_record;
use dps_serve::{Decision, Frontend, FrontendConfig, RrlConfig, ServeOptions, Server, Transport};
use dps_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client source addresses of the normal mix.
pub const CLIENTS: usize = 32;
/// Source addresses of the water-torture phase.
pub const ATTACKERS: usize = 3;
/// Per-client response-rate limit the server is started with (q/s).
pub const RRL_RATE: u32 = 2000;
/// Reference rate of the latency metrics (q/s).
pub const REFERENCE_QPS: f64 = 2000.0;
/// First ladder rate, as a multiple of the reference rate.
pub const LADDER_START: f64 = 2.0;
/// Ratio of neighbouring ladder rates: the ladder is the fixed grid
/// `REFERENCE_QPS × LADDER_START × LADDER_RATIO^k` (finer than the
/// `serve_qps_max` bound).
pub const LADDER_RATIO: f64 = 1.05;
/// The coarse climb tries every n-th rate of the grid.
pub const COARSE_STRIDE: i32 = 6;
/// p99 latency limit of a passing ladder step (µs). It sits well above
/// the scheduling stalls a shared virtual machine adds (p99 of several
/// ms at the reference rate when a tenth of CPU time is stolen), so a
/// step fails on a growing backlog, not on the host's jitter.
pub const LATENCY_LIMIT_US: f64 = 20_000.0;
/// Share of normal-mix queries for nonexistent SLDs.
pub const NX_SHARE: f64 = 0.1;
/// Distinct queries in the pre-encoded mix (cycled).
const POOL: usize = 8192;
/// How long a phase waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_millis(100);
/// Every n-th answered no-EDNS reference query is compared byte for byte
/// with the in-process `AuthServer::answer`.
const SAMPLE_EVERY: usize = 37;

/// Phase lengths of one serving stage.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Reference-phase seconds.
    pub reference_s: f64,
    /// Seconds per ladder step.
    pub step_s: f64,
    /// Water-torture seconds.
    pub torture_s: f64,
}

/// Writes the day-0 zones of `world` into `dir` as `<tld>.zone`; returns
/// the bytes written.
pub fn export_zones(world: &World, dir: &Path) -> io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut bytes = 0u64;
    for tld in dps_ecosystem::MEASURED_TLDS {
        let text = world.zone_file_text(tld);
        bytes += text.len() as u64;
        std::fs::write(dir.join(format!("{}.zone", tld.label())), text)?;
    }
    Ok(bytes)
}

/// The front-end settings of every run: the defaults, with an RRL rate
/// the client population stays under at every ladder rate.
fn frontend_config() -> FrontendConfig {
    FrontendConfig {
        rrl: RrlConfig {
            rate: RRL_RATE,
            burst: RRL_RATE / 5,
            slip: 2,
            ..RrlConfig::default()
        },
        ..FrontendConfig::default()
    }
}

/// What a normal-mix query must get back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// The SLD exists: NOERROR (a referral).
    Exists,
    /// The SLD does not exist: NXDOMAIN.
    Missing,
}

/// One pre-encoded query of the mix (id bytes are stamped at send time).
#[derive(Clone)]
pub struct Query {
    wire: Vec<u8>,
    expect: Expect,
    edns: bool,
}

/// The seeded query mix and client population of one run.
pub struct Mix {
    queries: Vec<Query>,
    clients: Vec<Ipv4Addr>,
    attackers: Vec<Ipv4Addr>,
    torture: Vec<Vec<u8>>,
}

impl Mix {
    /// Builds the mix from the world's day-0 zone entries.
    pub fn new(world: &World, seed: u64) -> io::Result<Self> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7e_d0a5);
        let mut names: Vec<(Name, Tld)> = Vec::new();
        for tld in dps_ecosystem::MEASURED_TLDS {
            let entries = world.zone_entries(tld);
            if entries.is_empty() {
                continue;
            }
            for _ in 0..POOL / 4 {
                let e = entries[rng.gen_range(0..entries.len())];
                names.push((world.entry_name(e), tld));
            }
        }
        if names.is_empty() {
            return Err(io::Error::other("serve: the world has no zone entries"));
        }
        let mut queries = Vec::with_capacity(POOL);
        for i in 0..POOL {
            let (qname, expect) = if rng.gen_bool(NX_SHARE) {
                let tld = names[rng.gen_range(0..names.len())].1;
                let label = format!("nx{:012x}", rng.gen::<u64>() & 0xffff_ffff_ffff);
                (
                    parse_name(&format!("{label}.{}", tld.label()))?,
                    Expect::Missing,
                )
            } else {
                (
                    names[rng.gen_range(0..names.len())].0.clone(),
                    Expect::Exists,
                )
            };
            let qtype = if rng.gen_bool(0.5) {
                RrType::Ns
            } else {
                RrType::A
            };
            let edns_size = [None, Some(512u16), Some(1232), Some(4096)][i % 4];
            let mut msg = Message::query(0, Question::new(qname, qtype));
            if let Some(size) = edns_size {
                msg.additionals.push(opt_record(size, 0));
            }
            queries.push(Query {
                wire: encode(&msg)?,
                expect,
                edns: edns_size.is_some(),
            });
        }
        let mut torture = Vec::with_capacity(POOL);
        let victims: Vec<Name> = (0..3)
            .map(|_| names[rng.gen_range(0..names.len())].0.clone())
            .collect();
        for i in 0..POOL {
            let victim = &victims[i % victims.len()];
            let label = format!("{:010x}", rng.gen::<u64>() & 0xff_ffff_ffff);
            let qname = parse_name(&format!("{label}.{victim}"))?;
            torture.push(encode(&Message::query(0, Question::new(qname, RrType::A)))?);
        }
        let mut addrs = std::collections::BTreeSet::new();
        while addrs.len() < CLIENTS + ATTACKERS {
            let a: u32 = rng.gen();
            addrs.insert(Ipv4Addr::new(
                127,
                (a >> 16) as u8,
                (a >> 8) as u8,
                (a as u8).max(2),
            ));
        }
        let mut all: Vec<Ipv4Addr> = addrs.into_iter().collect();
        // Seeded order, not address order, decides who attacks.
        for i in (1..all.len()).rev() {
            all.swap(i, rng.gen_range(0..=i));
        }
        let attackers = all.split_off(CLIENTS);
        Ok(Self {
            queries,
            clients: all,
            attackers,
            torture,
        })
    }
}

fn parse_name(s: &str) -> io::Result<Name> {
    s.parse()
        .map_err(|e| io::Error::other(format!("serve: bad query name {s:?}: {e:?}")))
}

fn encode(msg: &Message) -> io::Result<Vec<u8>> {
    msg.to_bytes()
        .map_err(|e| io::Error::other(format!("serve: query does not encode: {e:?}")))
}

/// Starts the server on `zone_dir` and waits for its first answer (to an
/// NS query for `com.`); returns the server with the registry its
/// counters live in.
pub fn start(zone_dir: &Path) -> io::Result<(Server, Registry)> {
    let registry = Registry::new();
    let mut opts = ServeOptions::new(zone_dir.to_path_buf());
    opts.frontend = frontend_config();
    let server = Server::start(opts, &registry)?;
    let sock = UdpSocket::bind(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0))?;
    sock.set_read_timeout(Some(Duration::from_millis(200)))?;
    let probe = encode(&Message::query(
        1,
        Question::new(parse_name("com.")?, RrType::Ns),
    ))?;
    let mut buf = [0u8; 4096];
    for _ in 0..25 {
        sock.send_to(&probe, server.udp_addr())?;
        if sock.recv_from(&mut buf).is_ok() {
            return Ok((server, registry));
        }
    }
    Err(io::Error::other("serve: no first answer from the server"))
}

/// Outcome of one serving stage.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    /// Reference-phase p50 latency from the scheduled send time (µs).
    pub p50_us: f64,
    /// Reference-phase p99 latency (µs).
    pub p99_us: f64,
    /// Highest passing ladder rate (q/s).
    pub qps_max: f64,
    /// Reference-phase queries sent.
    pub attempted: u64,
    /// Reference-phase queries unanswered, wrongly answered or shed.
    pub failed: u64,
    /// Of those, answers with the wrong id, rcode or a TC/REFUSED reply.
    pub wrong: u64,
    /// Answers compared byte for byte with `AuthServer::answer`.
    pub sampled: u64,
    /// Of those, answers that differ.
    pub sample_mismatches: u64,
    /// Median generator lateness of the reference phase (µs).
    pub gen_late_us: f64,
    /// Water-torture queries sent.
    pub torture_sent: u64,
}

/// Per-query outcome of one phase.
struct Phase {
    /// Latency from schedule in µs, `None` if unanswered.
    latency_us: Vec<Option<f64>>,
    /// Send lateness in µs per query.
    late_us: Vec<f64>,
    wrong: u64,
    sampled: u64,
    mismatches: u64,
}

struct Clients {
    socks: Vec<UdpSocket>,
}

impl Clients {
    fn bind(addrs: &[Ipv4Addr], server: SocketAddr) -> io::Result<Self> {
        let mut socks = Vec::with_capacity(addrs.len());
        for &a in addrs {
            let s = UdpSocket::bind(SocketAddr::new(IpAddr::V4(a), 0))?;
            s.connect(server)?;
            s.set_nonblocking(true)?;
            socks.push(s);
        }
        Ok(Self { socks })
    }
}

/// Sends `n` queries at `rate` on a fixed schedule. `pick(i)` gives query
/// `i`'s wire bytes and expectation; query `i` leaves from client
/// `i % clients` with id `i / clients`, which maps every answer back to
/// its query.
fn run_phase<'m>(
    clients: &Clients,
    rate: f64,
    n: usize,
    pick: &dyn Fn(usize) -> (&'m [u8], Option<&'m Query>),
    auth: Option<&AuthServer>,
) -> io::Result<Phase> {
    let k = clients.socks.len();
    let interval_ns = 1e9 / rate;
    let mut latency_us: Vec<Option<f64>> = vec![None; n];
    let mut late_us = Vec::with_capacity(n);
    let mut answered = 0usize;
    let mut wrong = 0u64;
    let mut sampled = 0u64;
    let mut mismatches = 0u64;
    let mut out = Vec::with_capacity(512);
    let mut buf = [0u8; 4096];
    let t0 = Instant::now();
    let sched = |i: usize| i as f64 * interval_ns;
    let mut i = 0usize;
    let mut drain_until: Option<Instant> = None;
    loop {
        let now_ns = t0.elapsed().as_nanos() as f64;
        if i < n && now_ns >= sched(i) {
            let (wire, _) = pick(i);
            out.clear();
            out.extend_from_slice(wire);
            let id = ((i / k) as u16).to_be_bytes();
            out[0] = id[0];
            out[1] = id[1];
            // A full socket buffer is a lost query, seen as unanswered.
            let _ = clients.socks[i % k].send(&out);
            late_us.push((now_ns - sched(i)) / 1e3);
            i += 1;
            continue;
        }
        for (c, sock) in clients.socks.iter().enumerate() {
            while let Ok(len) = sock.recv(&mut buf) {
                let recv_ns = t0.elapsed().as_nanos() as f64;
                let resp = &buf[..len];
                if len < 12 {
                    wrong += 1;
                    continue;
                }
                let idx = usize::from(u16::from_be_bytes([resp[0], resp[1]])) * k + c;
                let Some(slot) = latency_us.get_mut(idx) else {
                    continue;
                };
                if slot.is_some() {
                    continue;
                }
                *slot = Some((recv_ns - sched(idx)) / 1e3);
                answered += 1;
                if let (_, Some(q)) = pick(idx) {
                    let rcode = resp[3] & 0x0f;
                    let tc = resp[2] & 0x02 != 0;
                    let want = match q.expect {
                        Expect::Exists => Rcode::NoError,
                        Expect::Missing => Rcode::NxDomain,
                    };
                    if tc || rcode != want.code() {
                        wrong += 1;
                    } else if !q.edns && idx.is_multiple_of(SAMPLE_EVERY) {
                        if let Some(auth) = auth {
                            sampled += 1;
                            if !matches_reference(auth, q, resp) {
                                mismatches += 1;
                            }
                        }
                    }
                }
            }
        }
        if i >= n {
            let deadline = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN);
            if answered >= n || Instant::now() >= deadline {
                break;
            }
        }
    }
    Ok(Phase {
        latency_us,
        late_us,
        wrong,
        sampled,
        mismatches,
    })
}

/// True if `resp` is byte-identical to the in-process answer to `q`
/// (with the id the response carries).
fn matches_reference(auth: &AuthServer, q: &Query, resp: &[u8]) -> bool {
    let mut wire = q.wire.clone();
    wire[0] = resp[0];
    wire[1] = resp[1];
    let Ok(msg) = Message::parse(&wire) else {
        return false;
    };
    auth.answer(&msg)
        .and_then(|m| m.to_bytes().ok())
        .is_some_and(|expected| expected == resp)
}

/// p99 latency of a phase with unanswered queries counted as infinite.
fn p99_with_losses(phase: &Phase) -> f64 {
    let lat: Vec<f64> = phase
        .latency_us
        .iter()
        .map(|l| l.unwrap_or(f64::INFINITY))
        .collect();
    percentile(&lat, 99.0)
}

/// Runs the reference phase, the rate ladder and the water-torture phase
/// against `server`.
pub fn run_stage(server: &Server, mix: &Mix, plan: ServePlan) -> io::Result<ServeOutcome> {
    let clients = Clients::bind(&mix.clients, server.udp_addr())?;
    let auth = Arc::clone(server.frontend().server());
    let normal = |i: usize| {
        let q = &mix.queries[i % mix.queries.len()];
        (q.wire.as_slice(), Some(q))
    };

    // Reference phase.
    let n_ref = (REFERENCE_QPS * plan.reference_s).round().max(1.0) as usize;
    let reference = run_phase(&clients, REFERENCE_QPS, n_ref, &normal, Some(&auth))?;
    let answered: Vec<f64> = reference.latency_us.iter().flatten().copied().collect();
    let unanswered = (n_ref - answered.len()) as u64;
    let mut out = ServeOutcome {
        p50_us: percentile(&answered, 50.0),
        p99_us: p99_with_losses(&reference),
        attempted: n_ref as u64,
        failed: unanswered + reference.wrong,
        wrong: reference.wrong,
        sampled: reference.sampled,
        sample_mismatches: reference.mismatches,
        gen_late_us: median(&reference.late_us),
        ..ServeOutcome::default()
    };

    // Rate ladder: coarse until a step fails, then fine from the last
    // pass. A failed step is run once more before it counts, so a single
    // scheduling stall of the host does not end the ladder.
    let step = |rate: f64| -> io::Result<bool> {
        let n = (rate * plan.step_s).round().max(1.0) as usize;
        for _ in 0..2 {
            std::thread::sleep(Duration::from_millis(20));
            let phase = run_phase(&clients, rate, n, &normal, None)?;
            if p99_with_losses(&phase) <= LATENCY_LIMIT_US {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let rate = |k: i32| REFERENCE_QPS * LADDER_START * LADDER_RATIO.powi(k);
    let mut passed: Option<i32> = None;
    let mut k = 0;
    while rate(k) < 1e6 && step(rate(k))? {
        passed = Some(k);
        k += COARSE_STRIDE;
    }
    if let Some(base) = passed {
        for k in base + 1..base + COARSE_STRIDE {
            if !step(rate(k))? {
                break;
            }
            passed = Some(k);
        }
    }
    out.qps_max = passed.map_or(REFERENCE_QPS, rate);

    // Water torture: attackers at twice the per-client limit.
    let attackers = Clients::bind(&mix.attackers, server.udp_addr())?;
    let torture_rate = f64::from(RRL_RATE) * 2.0 * ATTACKERS as f64;
    let n_wt = (torture_rate * plan.torture_s).round().max(1.0) as usize;
    let torture = |i: usize| (mix.torture[i % mix.torture.len()].as_slice(), None);
    run_phase(&attackers, torture_rate, n_wt, &torture, None)?;
    out.torture_sent = n_wt as u64;
    Ok(out)
}

/// Per-call medians of the in-process replay, in µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `Frontend::handle` on the whole payload.
    pub handle_us: f64,
    /// `Message::parse`.
    pub parse_us: f64,
    /// `AuthServer::answer`.
    pub answer_us: f64,
    /// `Message::to_bytes` of the answer.
    pub render_us: f64,
}

/// Replays the reference mix through a fresh `Frontend` over the server's
/// own zones, without sockets, and times each stage per call.
pub fn replay(server: &Server, mix: &Mix, n: usize) -> Replay {
    let auth = Arc::clone(server.frontend().server());
    let frontend = Frontend::new(Arc::clone(&auth), frontend_config(), &Registry::new());
    let (mut handle, mut parse, mut answer, mut render) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let interval_ns = 1e9 / REFERENCE_QPS;
    for i in 0..n {
        let q = &mix.queries[i % mix.queries.len()];
        let client = IpAddr::V4(mix.clients[i % mix.clients.len()]);
        let now_ns = (i as f64 * interval_ns) as u64;
        let t = Instant::now();
        let decision = frontend.handle(Transport::Udp, client, now_ns, &q.wire);
        handle.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(matches!(decision, Decision::Respond(_)));
        let t = Instant::now();
        let msg = Message::parse(&q.wire);
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok(msg) = msg else { continue };
        let t = Instant::now();
        let resp = auth.answer(&msg);
        answer.push(t.elapsed().as_secs_f64() * 1e6);
        let Some(resp) = resp else { continue };
        let t = Instant::now();
        std::hint::black_box(resp.to_bytes().map(|b| b.len()).unwrap_or(0));
        render.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Replay {
        handle_us: median(&handle),
        parse_us: median(&parse),
        answer_us: median(&answer),
        render_us: median(&render),
    }
}
