//! Deterministic fault injection for `dvafs serve` (PR 10's chaos
//! harness).
//!
//! The paper's whole thesis is *controlled* degradation: DVAFS trades
//! bounded error for energy and keeps operating through it. The serving
//! layer claims the same contract — degrade per-request, never
//! per-process — and a claim like that is only worth anything if it is
//! *tested under fault*. This module is the test instrument: a
//! [`FaultPlan`] names, **by request sequence number**, exactly which
//! requests of a serve session are sabotaged and how. Because the plan is
//! data (parseable, renderable, seedable), a chaos proptest can sweep
//! random plans × thread counts × queue depths and assert byte-level
//! invariants against a fault-free golden run — and a CI smoke step can
//! replay one fixed plan forever.
//!
//! ## Fault kinds and injection sites
//!
//! Each entry targets one request `seq` (the 0-based, blank-line-skipping
//! sequence number the wire protocol already echoes as the default `id`).
//! Two sites exist, chosen by the kind:
//!
//! | kind | site | effect |
//! |------|------|--------|
//! | [`Panic`](FaultKind::Panic) | worker (`execute`) | the request's task panics mid-execution |
//! | [`Delay(ms)`](FaultKind::Delay) | worker (`execute`) | the task sleeps before executing (reorders completion, trips `--deadline-ms`) |
//! | [`Oversize`](FaultKind::Oversize) | reader | the request line is treated as exceeding `MAX_REQUEST_BYTES` |
//! | [`Garble`](FaultKind::Garble) | reader | the request line is replaced with truncated JSON |
//!
//! A `Panic`/`Garble`/`Oversize` fault turns that request's reply into an
//! ordered `{"ok":false,...}` error; a `Delay` leaves the reply bytes
//! untouched unless a deadline is configured. No fault, ever, may change
//! any *other* request's reply byte — that is the invariant the chaos
//! tests pin.
//!
//! ## Spelling
//!
//! Plans round-trip through a compact text form, the value of the
//! test-only `dvafs serve --fault-plan` flag:
//!
//! ```text
//! panic@3,delay@5:40,oversize@7,garble@2
//! ```
//!
//! (`kind@seq`, comma-separated, `delay` carrying its milliseconds after
//! a colon; at most one fault per seq — later entries for the same seq
//! are rejected, not silently merged.)

use std::collections::BTreeMap;
use std::fmt;

/// Upper bound on an injected delay, so a seeded plan cannot stall a
/// chaos run into a CI timeout (parse rejects larger values).
pub const MAX_DELAY_MS: u64 = 1_000;

/// One injected fault (see the module table for site and effect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the request's worker task.
    Panic,
    /// Sleep this many milliseconds before executing the request.
    Delay(u64),
    /// Treat the request line as exceeding the request-size cap.
    Oversize,
    /// Replace the request line with truncated (unparseable) JSON.
    Garble,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Delay(ms) => write!(f, "delay:{ms}"),
            FaultKind::Oversize => write!(f, "oversize"),
            FaultKind::Garble => write!(f, "garble"),
        }
    }
}

/// A deterministic per-session fault schedule: at most one [`FaultKind`]
/// per request sequence number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultKind>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Parses the `kind@seq[:ms]` comma-separated spelling (see module
    /// docs). Whitespace around entries is tolerated; an empty string is
    /// the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending entry for unknown kinds,
    /// missing/unparseable seq, a `delay` without (or with an oversized)
    /// millisecond count, or two entries targeting the same seq.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for entry in text.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind_text, seq_text) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry {entry:?}: expected kind@seq"))?;
            let (seq_text, arg) = match seq_text.split_once(':') {
                Some((s, a)) => (s, Some(a)),
                None => (seq_text, None),
            };
            let seq: usize = seq_text
                .trim()
                .parse()
                .map_err(|_| format!("fault entry {entry:?}: bad seq {seq_text:?}"))?;
            let kind = match (kind_text.trim(), arg) {
                ("panic", None) => FaultKind::Panic,
                ("oversize", None) => FaultKind::Oversize,
                ("garble", None) => FaultKind::Garble,
                ("delay", Some(ms)) => {
                    let ms: u64 = ms
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault entry {entry:?}: bad delay ms {ms:?}"))?;
                    if ms > MAX_DELAY_MS {
                        return Err(format!(
                            "fault entry {entry:?}: delay exceeds {MAX_DELAY_MS}ms"
                        ));
                    }
                    FaultKind::Delay(ms)
                }
                ("delay", None) => {
                    return Err(format!("fault entry {entry:?}: delay needs delay@seq:ms"))
                }
                (other, _) => {
                    return Err(format!(
                        "fault entry {entry:?}: unknown kind {other:?} \
                         (panic, delay, oversize, garble)"
                    ))
                }
            };
            if plan.faults.insert(seq, kind).is_some() {
                return Err(format!("fault entry {entry:?}: seq {seq} already faulted"));
            }
        }
        Ok(plan)
    }

    /// A deterministic pseudo-random plan over requests `0..len`: each
    /// seq is faulted with probability ~1/4, the kind drawn uniformly
    /// (delays in `1..=50` ms). Same `(seed, len)`, same plan — always;
    /// the chaos proptest derives its plans from proptest-chosen seeds so
    /// every failure replays.
    #[must_use]
    pub fn seeded(seed: u64, len: usize) -> Self {
        let mut plan = FaultPlan::new();
        let mut state = seed;
        let mut next = move || {
            // splitmix64: tiny, seedable, and good enough to scatter
            // faults — no dependency on the vendored rand stub.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for seq in 0..len {
            let roll = next();
            if roll % 4 != 0 {
                continue;
            }
            let kind = match (roll >> 2) % 4 {
                0 => FaultKind::Panic,
                1 => FaultKind::Delay(1 + (roll >> 4) % 50),
                2 => FaultKind::Oversize,
                _ => FaultKind::Garble,
            };
            plan.faults.insert(seq, kind);
        }
        plan
    }

    /// The fault scheduled for request `seq`, if any.
    #[must_use]
    pub fn fault(&self, seq: usize) -> Option<FaultKind> {
        self.faults.get(&seq).copied()
    }

    /// Whether request `seq`'s *reply* is expected to become an error
    /// under this plan (`deadline` tells whether a `Delay` can trip a
    /// configured per-request deadline; pass `None` when no deadline is
    /// set).
    #[must_use]
    pub fn faults_reply_of(&self, seq: usize, deadline_ms: Option<u64>) -> bool {
        match self.fault(seq) {
            None => false,
            Some(FaultKind::Delay(ms)) => deadline_ms.is_some_and(|d| ms > d),
            Some(_) => true,
        }
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faulted requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Iterates `(seq, kind)` in seq order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, FaultKind)> + '_ {
        self.faults.iter().map(|(&s, &k)| (s, k))
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the plan in the exact spelling [`FaultPlan::parse`]
    /// accepts (entries in seq order), so plans round-trip through the
    /// environment variable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (seq, kind) in &self.faults {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            match kind {
                FaultKind::Delay(ms) => write!(f, "delay@{seq}:{ms}")?,
                other => write!(f, "{other}@{seq}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let text = "garble@2,panic@3,delay@5:40,oversize@7";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.fault(3), Some(FaultKind::Panic));
        assert_eq!(plan.fault(5), Some(FaultKind::Delay(40)));
        assert_eq!(plan.fault(7), Some(FaultKind::Oversize));
        assert_eq!(plan.fault(2), Some(FaultKind::Garble));
        assert_eq!(plan.fault(0), None);
        assert_eq!(plan.to_string(), text);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn parse_tolerates_whitespace_and_empty() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ").unwrap().is_empty());
        let plan = FaultPlan::parse(" panic@1 , delay@2:3 ,").unwrap();
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for (bad, what) in [
            ("panic", "expected kind@seq"),
            ("panic@x", "bad seq"),
            ("explode@1", "unknown kind"),
            ("delay@1", "delay needs"),
            ("delay@1:soon", "bad delay ms"),
            ("delay@1:999999", "exceeds"),
            ("panic@1,garble@1", "already faulted"),
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains(what), "{bad:?}: {err}");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::seeded(7, 40);
        let b = FaultPlan::seeded(7, 40);
        assert_eq!(a, b);
        // A different seed almost surely differs (pinned for this seed
        // pair so a splitmix64 regression is loud).
        assert_ne!(a, FaultPlan::seeded(8, 40));
        for (seq, kind) in a.iter() {
            assert!(seq < 40);
            if let FaultKind::Delay(ms) = kind {
                assert!((1..=50).contains(&ms));
            }
        }
        // Seeded plans round-trip through the text spelling too.
        assert_eq!(FaultPlan::parse(&a.to_string()).unwrap(), a);
        assert!(FaultPlan::seeded(1, 0).is_empty());
    }

    #[test]
    fn reply_fault_classification() {
        let plan = FaultPlan::parse("panic@0,delay@1:40,oversize@2,garble@3").unwrap();
        for seq in [0, 2, 3] {
            assert!(plan.faults_reply_of(seq, None), "seq {seq}");
            assert!(plan.faults_reply_of(seq, Some(10)), "seq {seq}");
        }
        // A delay only faults the reply when it overruns a deadline.
        assert!(!plan.faults_reply_of(1, None));
        assert!(!plan.faults_reply_of(1, Some(100)));
        assert!(plan.faults_reply_of(1, Some(10)));
        assert!(!plan.faults_reply_of(9, Some(10)));
    }
}
