//! Deterministic fault injection for the serve layer.
//!
//! A [`FaultPlan`] is a seeded, reproducible schedule of failures injected
//! at **named sites** in the shard-worker and protocol paths. It exists so
//! the resilience machinery (panic isolation, session rebuild, circuit
//! breakers, SLO shedding, EINTR handling) can be *proved* rather than
//! hoped for: the chaos tests and `hetjpeg-serve --chaos-smoke` run real
//! traffic through a plan and assert exact counter deltas and bit-identical
//! output for every request the plan did not touch.
//!
//! ## Sites
//!
//! | site        | where it fires                  | effect                                     |
//! |-------------|---------------------------------|--------------------------------------------|
//! | `panic`     | shard worker, start of a decode | panics **inside the session lock** (via [`hetjpeg_core::Decoder::inject_panic`]), genuinely poisoning the session |
//! | `latency`   | shard worker, before a decode   | sleeps for the rule's duration argument    |
//! | `alloc`     | shard worker, request options   | caps `max_pixels` at 1, forcing the real allocation-guard error path |
//! | `shortread` | connection reader ([`ChaosReader`]): the TCP front end's and `serve_stdio`'s | truncates reads to one byte and interleaves `EINTR` (`ErrorKind::Interrupted`) errors |
//! | `torn`      | connection reader ([`ChaosReader`]): the TCP front end's and `serve_stdio`'s | fails the read with `ConnectionReset` and pins the stream dead — a torn connection mid-frame |
//!
//! The read sites count every read of every connection in one sequence
//! (`torn=#1` tears the first read the server makes, whichever connection
//! it is on).
//!
//! ## Spec grammar (`HETJPEG_FAULT`)
//!
//! ```text
//! plan  := rule ("," rule)* [":" seed]
//! rule  := site ["@" shard] "=" when ["x" duration]
//! when  := N        every Nth occurrence of the site (1-based)
//!        | "#" N    exactly the Nth occurrence
//!        | "p" F    probability F in [0,1], decided by a seeded hash
//! ```
//!
//! Examples: `panic=#2` (the second decode on **each** shard panics),
//! `latency@1=3x2ms` (every third decode on shard 1 sleeps 2 ms),
//! `shortread=1,torn=#40:7` (every protocol read is short, the 40th read
//! tears the connection; seed 7). Occurrences are counted per `(rule,
//! shard)` — the schedule is reproducible per shard regardless of how the
//! OS interleaves shard threads.
//!
//! Plans are **off by default and zero-cost when absent**: the worker and
//! protocol paths carry an `Option<Arc<FaultPlan>>` that is `None` unless
//! [`crate::ServeConfig::fault_plan`] or the `HETJPEG_FAULT` environment
//! variable supplies one.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A named injection point. See the module docs for where each site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside the shard session lock (poisons the session).
    Panic,
    /// Sleep before a decode (a stalled worker / slow request).
    Latency,
    /// Force the allocation-cap (`max_pixels`) error path for a request.
    AllocCap,
    /// One-byte reads with interleaved `EINTR` on the protocol reader.
    ShortRead,
    /// Connection torn mid-frame on the protocol reader.
    TornRead,
}

impl FaultSite {
    fn parse(s: &str) -> Option<FaultSite> {
        Some(match s {
            "panic" => FaultSite::Panic,
            "latency" => FaultSite::Latency,
            "alloc" => FaultSite::AllocCap,
            "shortread" => FaultSite::ShortRead,
            "torn" => FaultSite::TornRead,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            FaultSite::Panic => "panic",
            FaultSite::Latency => "latency",
            FaultSite::AllocCap => "alloc",
            FaultSite::ShortRead => "shortread",
            FaultSite::TornRead => "torn",
        }
    }
}

/// When a rule fires, relative to the per-`(rule, shard)` occurrence count.
#[derive(Debug, Clone, Copy, PartialEq)]
enum When {
    /// Every Nth occurrence (count % n == 0).
    Every(u64),
    /// Exactly the Nth occurrence.
    Nth(u64),
    /// Seeded pseudo-random with this probability per occurrence.
    Prob(f64),
}

/// One parsed fault rule.
#[derive(Debug, Clone, PartialEq)]
struct Rule {
    site: FaultSite,
    /// Restrict to one shard; `None` applies to every shard (each with its
    /// own occurrence counter). Protocol sites ignore the shard field.
    shard: Option<usize>,
    when: When,
    /// Duration argument (`latency` only).
    arg: Option<Duration>,
}

/// A malformed `HETJPEG_FAULT` / fault-plan spec; carries the offending
/// fragment and what was expected of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The fragment that failed to parse.
    pub fragment: String,
    /// What the parser expected there.
    pub expected: &'static str,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault spec fragment {:?}: expected {}",
            self.fragment, self.expected
        )
    }
}

impl std::error::Error for FaultParseError {}

/// A seeded, reproducible fault-injection schedule. See the module docs.
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    /// Occurrence counters per `(rule index, shard)`. Protocol sites use
    /// [`NO_SHARD`]. A `Mutex<HashMap>` rather than a flat array because
    /// the shard count is unknown at parse time; the map is touched only
    /// when a plan is active, never on the fault-free fast path.
    counts: Mutex<HashMap<(usize, usize), u64>>,
    /// Total injections fired, for observability.
    fired: AtomicU64,
}

/// Shard index used for sites that fire outside any shard (protocol reads).
const NO_SHARD: usize = usize::MAX;

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rules", &self.rules)
            .field("fired", &self.fired.load(Ordering::Relaxed))
            .finish()
    }
}

fn parse_duration(s: &str) -> Option<Duration> {
    let (num, unit) = s.split_at(s.find(|c: char| c.is_ascii_alphabetic())?);
    let n: u64 = num.parse().ok()?;
    Some(match unit {
        "ns" => Duration::from_nanos(n),
        "us" => Duration::from_micros(n),
        "ms" => Duration::from_millis(n),
        "s" => Duration::from_secs(n),
        _ => return None,
    })
}

impl FaultPlan {
    /// Parse a plan from the spec grammar documented on the module.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultParseError> {
        let err = |fragment: &str, expected: &'static str| FaultParseError {
            fragment: fragment.to_string(),
            expected,
        };
        // The seed is the final ":"-separated field when it parses as an
        // integer; rule bodies never contain ":".
        let (body, seed) = match spec.rsplit_once(':') {
            Some((body, tail)) => match tail.parse::<u64>() {
                Ok(seed) => (body, seed),
                Err(_) => return Err(err(tail, "a u64 seed after the final ':'")),
            },
            None => (spec, 0),
        };
        let mut rules = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (lhs, rhs) = part
                .split_once('=')
                .ok_or_else(|| err(part, "site[@shard]=when[xduration]"))?;
            let (site_s, shard) = match lhs.split_once('@') {
                Some((site, shard)) => (
                    site,
                    Some(
                        shard
                            .parse::<usize>()
                            .map_err(|_| err(shard, "a shard index after '@'"))?,
                    ),
                ),
                None => (lhs, None),
            };
            let site = FaultSite::parse(site_s)
                .ok_or_else(|| err(site_s, "panic|latency|alloc|shortread|torn"))?;
            let (when_s, arg) = match rhs.split_once('x') {
                Some((w, a)) => (
                    w,
                    Some(parse_duration(a).ok_or_else(|| err(a, "a duration like 200us or 2ms"))?),
                ),
                None => (rhs, None),
            };
            let when = if let Some(n) = when_s.strip_prefix('#') {
                When::Nth(
                    n.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| err(when_s, "#N with N >= 1"))?,
                )
            } else if let Some(p) = when_s.strip_prefix('p') {
                let p: f64 = p
                    .parse()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| err(when_s, "pF with F in [0,1]"))?;
                When::Prob(p)
            } else {
                When::Every(
                    when_s
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| err(when_s, "N (every Nth), #N (the Nth) or pF"))?,
                )
            };
            if site == FaultSite::Latency && arg.is_none() {
                return Err(err(part, "latency rules need an xDURATION argument"));
            }
            rules.push(Rule {
                site,
                shard,
                when,
                arg,
            });
        }
        if rules.is_empty() {
            return Err(err(spec, "at least one rule"));
        }
        Ok(FaultPlan {
            seed,
            rules,
            counts: Mutex::new(HashMap::new()),
            fired: AtomicU64::new(0),
        })
    }

    /// Read a plan from the `HETJPEG_FAULT` environment variable. `Ok(None)`
    /// when the variable is unset or empty; `Err` when it is set but
    /// malformed (a server must refuse to start on a typo rather than run
    /// chaos-free while the operator believes faults are active).
    pub fn from_env() -> Result<Option<Arc<FaultPlan>>, FaultParseError> {
        match std::env::var("HETJPEG_FAULT") {
            Ok(spec) if !spec.trim().is_empty() => Ok(Some(Arc::new(FaultPlan::parse(&spec)?))),
            _ => Ok(None),
        }
    }

    /// Record one occurrence of `site` on `shard` and report whether any
    /// matching rule fires for it. Occurrence counters are per `(rule,
    /// shard)`, so the decision sequence each shard observes is a pure
    /// function of the plan — independent of thread interleaving across
    /// shards.
    pub fn fires(&self, site: FaultSite, shard: Option<usize>) -> bool {
        self.decide(site, shard).is_some()
    }

    /// Like [`Self::fires`] for the `latency` site, returning the sleep
    /// duration of the first firing rule.
    pub fn latency(&self, shard: Option<usize>) -> Option<Duration> {
        self.decide(FaultSite::Latency, shard)
            .and_then(|rule_idx| self.rules[rule_idx].arg)
    }

    fn decide(&self, site: FaultSite, shard: Option<usize>) -> Option<usize> {
        let shard_key = shard.unwrap_or(NO_SHARD);
        let mut counts = self.counts.lock().expect("fault plan counters");
        let mut hit = None;
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            if let (Some(want), Some(have)) = (rule.shard, shard) {
                if want != have {
                    continue;
                }
            }
            let n = counts.entry((i, shard_key)).or_insert(0);
            *n += 1;
            let fires = match rule.when {
                When::Every(k) => (*n).is_multiple_of(k),
                When::Nth(k) => *n == k,
                When::Prob(p) => {
                    // Seeded hash of (seed, rule, shard, occurrence): the
                    // same plan replays the same decisions.
                    let h =
                        splitmix64(self.seed ^ (i as u64) << 48 ^ (shard_key as u64) << 24 ^ *n);
                    // Top 53 bits as a uniform float in [0,1).
                    ((h >> 11) as f64) / ((1u64 << 53) as f64) < p
                }
            };
            if fires && hit.is_none() {
                hit = Some(i);
            }
        }
        if hit.is_some() {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// True when the plan contains protocol-read sites (`shortread` /
    /// `torn`) — what decides whether a connection reader is wrapped in a
    /// [`ChaosReader`].
    pub fn has_read_faults(&self) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r.site, FaultSite::ShortRead | FaultSite::TornRead))
    }

    /// Total injections fired so far (all sites).
    pub fn injections_fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// One-line human description, for startup banners.
    pub fn describe(&self) -> String {
        let rules: Vec<String> = self
            .rules
            .iter()
            .map(|r| {
                let shard = r.shard.map(|s| format!("@{s}")).unwrap_or_default();
                let when = match r.when {
                    When::Every(n) => format!("{n}"),
                    When::Nth(n) => format!("#{n}"),
                    When::Prob(p) => format!("p{p}"),
                };
                let arg = r
                    .arg
                    .map(|d| format!("x{}us", d.as_micros()))
                    .unwrap_or_default();
                format!("{}{shard}={when}{arg}", r.site.name())
            })
            .collect();
        format!("{}:{}", rules.join(","), self.seed)
    }
}

/// SplitMix64 — tiny, seedable, statistically fine for fault scheduling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`Read`] adapter that injects the plan's `shortread` and `torn` sites
/// into an underlying stream. The TCP front end and `serve_stdio` read
/// connections through this when the active plan has read faults; tests
/// wrap `Cursor`s.
///
/// * `shortread` firing: the read is truncated to one byte, and every
///   second firing first returns an `ErrorKind::Interrupted` error instead
///   (a signal landing mid-`read(2)`) — the caller must retry, exactly
///   what the protocol's EINTR handling exists for.
/// * `torn` firing: the read fails with `ConnectionReset` and the stream
///   stays dead (all subsequent reads fail too), like a peer vanishing
///   mid-frame.
pub struct ChaosReader<R> {
    inner: R,
    plan: Arc<FaultPlan>,
    /// Alternates EINTR vs short data on successive `shortread` firings.
    interrupt_next: bool,
    torn: bool,
}

impl<R: Read> ChaosReader<R> {
    /// Wrap `inner`, consulting `plan` on every read.
    pub fn new(inner: R, plan: Arc<FaultPlan>) -> Self {
        ChaosReader {
            inner,
            plan,
            interrupt_next: true,
            torn: false,
        }
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.torn || self.plan.fires(FaultSite::TornRead, None) {
            self.torn = true;
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected torn read",
            ));
        }
        if !buf.is_empty() && self.plan.fires(FaultSite::ShortRead, None) {
            self.interrupt_next = !self.interrupt_next;
            if !self.interrupt_next {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
            }
            return self.inner.read(&mut buf[..1]);
        }
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn spec_grammar_roundtrips() {
        let plan = FaultPlan::parse("panic@0=#2,latency@1=3x2ms,shortread=1:42").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].shard, Some(0));
        assert_eq!(plan.rules[0].when, When::Nth(2));
        assert_eq!(plan.rules[1].arg, Some(Duration::from_millis(2)));
        assert_eq!(plan.rules[1].when, When::Every(3));
        assert_eq!(plan.rules[2].shard, None);
        // No seed suffix defaults to 0.
        assert_eq!(FaultPlan::parse("panic=p0.5").unwrap().seed, 0);
        // describe() emits the same grammar back.
        assert_eq!(
            plan.describe(),
            "panic@0=#2,latency@1=3x2000us,shortread=1:42"
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_the_fragment() {
        for (spec, frag) in [
            ("explode=1", "explode"),
            ("panic=", ""),
            ("panic=#0", "#0"),
            ("panic=0", "0"),
            ("panic=p1.5", "p1.5"),
            ("latency=1", "latency=1"), // missing duration
            ("latency=1x2lightyears", "2lightyears"),
            ("panic@x=1", "x"),
            ("panic=1:notaseed", "notaseed"),
            ("", ""),
        ] {
            let e = FaultPlan::parse(spec).expect_err(spec);
            assert_eq!(e.fragment, frag, "spec {spec:?}");
        }
    }

    #[test]
    fn occurrence_schedules_are_deterministic_per_shard() {
        let plan = FaultPlan::parse("panic=#2").unwrap();
        // Each shard counts its own occurrences: the second decode on each
        // shard fires, independent of interleaving.
        for shard in [0usize, 1, 2] {
            assert!(
                !plan.fires(FaultSite::Panic, Some(shard)),
                "shard {shard} #1"
            );
            assert!(
                plan.fires(FaultSite::Panic, Some(shard)),
                "shard {shard} #2"
            );
            assert!(
                !plan.fires(FaultSite::Panic, Some(shard)),
                "shard {shard} #3"
            );
        }
        // A shard-targeted rule never fires elsewhere.
        let plan = FaultPlan::parse("alloc@1=1").unwrap();
        assert!(!plan.fires(FaultSite::AllocCap, Some(0)));
        assert!(plan.fires(FaultSite::AllocCap, Some(1)));
        assert_eq!(plan.injections_fired(), 1);
    }

    #[test]
    fn probability_rules_replay_identically_for_one_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse(&format!("latency=p0.5x1us:{seed}")).unwrap();
            (0..64).map(|_| plan.latency(Some(0)).is_some()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
        let fired = run(7).iter().filter(|&&b| b).count();
        assert!((10..=54).contains(&fired), "p0.5 fired {fired}/64");
    }

    #[test]
    fn chaos_reader_short_reads_and_eintr_are_survivable() {
        let payload: Vec<u8> = (0u8..=255).collect();
        let plan = Arc::new(FaultPlan::parse("shortread=1:3").unwrap());
        let mut r = ChaosReader::new(Cursor::new(payload.clone()), plan);
        // A retrying reader reassembles the stream exactly.
        let mut got = Vec::new();
        let mut buf = [0u8; 32];
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(got, payload);
    }

    #[test]
    fn chaos_reader_torn_stream_stays_dead() {
        let plan = Arc::new(FaultPlan::parse("torn=#3").unwrap());
        let mut r = ChaosReader::new(Cursor::new(vec![9u8; 64]), plan);
        let mut buf = [0u8; 4];
        assert!(r.read(&mut buf).is_ok());
        assert!(r.read(&mut buf).is_ok());
        let e = r.read(&mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        // Once torn, always torn — no phantom recovery mid-frame.
        assert!(r.read(&mut buf).is_err());
    }
}
