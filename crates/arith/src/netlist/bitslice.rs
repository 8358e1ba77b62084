//! The bitsliced netlist engine: 64 Monte-Carlo samples per machine word.
//!
//! The scalar [`Simulator`](super::Simulator) evaluates one `bool` per gate
//! per operand pair — the hottest loop in the workspace, since every α,
//! RMSE and energy figure funnels through gate-level toggle simulation.
//! [`BitSimulator`] transposes the stream instead: lane `s` of one `u64`
//! word holds sample `s`'s value of a node, so evaluating the whole netlist
//! advances **64 samples at once** and every cell is 1–3 word ops:
//!
//! ```text
//! AND  -> a & b          NAND -> !(a & b)
//! OR   -> a | b          NOR  -> !(a | b)
//! XOR  -> a ^ b          NOT  -> !a
//! MUX  -> (sel & a) | (!sel & b)
//! ```
//!
//! The paper's switching-activity model (equations (1)–(3), Fig. 2b) only
//! needs per-gate toggle *counts*, which bitslicing computes for free: the
//! transitions between consecutive samples of a word are
//! `word ^ ((word << 1) | carry)` — `carry` being the last valid lane of
//! the previous word — and `popcount` of that difference, masked to the
//! valid lanes, is exactly the number of toggles the scalar engine counts
//! one comparison at a time. Ragged tails (`samples % 64 != 0`) mask the
//! unused lanes, so every existing sample count keeps its exact result.
//!
//! Equivalence with the scalar oracle — values *and* per-gate toggle
//! counters, ragged lengths included — is proven by the property-test net
//! in `tests/bitslice_equivalence.rs` and re-asserted end to end, per
//! registered scenario, by the oracle sweep in `tests/scenario_registry.rs`.

use super::{stats_from_toggles, ActivityStats, GateKind, Netlist};
use crate::error::ArithError;

/// Number of Monte-Carlo samples packed into one lane word.
pub const LANES: usize = 64;

/// The mask selecting the low `valid` lanes of a word.
///
/// # Panics
///
/// Panics if `valid` is not in `1..=`[`LANES`].
#[must_use]
pub fn lane_mask(valid: usize) -> u64 {
    assert!(
        (1..=LANES).contains(&valid),
        "valid lane count must be in 1..={LANES}, got {valid}"
    );
    if valid == LANES {
        u64::MAX
    } else {
        (1u64 << valid) - 1
    }
}

/// Event-free two-phase simulator evaluating [`LANES`] samples per word,
/// with per-gate toggle counting via `popcount`.
///
/// Drop-in peer of the scalar [`Simulator`](super::Simulator): feed it the
/// same stream (packed into lane words) and it accumulates the same
/// per-gate toggle counters, cycles and [`ActivityStats`] — bit-identical,
/// including across word boundaries (the last valid lane of each word is
/// carried into the next word's transition count).
///
/// # Example
///
/// Six samples of a half adder in one ragged word:
///
/// ```
/// use dvafs_arith::netlist::{BitSimulator, Netlist};
///
/// let mut nl = Netlist::new();
/// let a = nl.input();
/// let b = nl.input();
/// let (sum, carry) = nl.half_adder(a, b);
/// nl.mark_output(sum);
/// nl.mark_output(carry);
///
/// let mut sim = BitSimulator::new(nl);
/// // Lane s = sample s: a = 0,1,1,0,1,0  b = 0,0,1,1,1,0
/// let out = sim.eval_packed(&[0b010110, 0b011100], 6)?;
/// assert_eq!(out[0], 0b010110 ^ 0b011100); // sum   = a ^ b, lane-wise
/// assert_eq!(out[1], 0b010110 & 0b011100); // carry = a & b, lane-wise
/// # Ok::<(), dvafs_arith::ArithError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitSimulator {
    netlist: Netlist,
    /// Scratch lane word per node (the most recent evaluated word).
    words: Vec<u64>,
    /// Bit 0 holds each node's value in the last *valid* lane of the
    /// previous word — the carry into the next word's transition count.
    carry: Vec<u64>,
    toggles: Vec<u64>,
    cycles: u64,
    primed: bool,
}

impl BitSimulator {
    /// Wraps a netlist for bitsliced simulation.
    #[must_use]
    pub fn new(netlist: Netlist) -> Self {
        let n = netlist.node_count();
        BitSimulator {
            netlist,
            words: vec![0; n],
            carry: vec![0; n],
            toggles: vec![0; n],
            cycles: 0,
            primed: false,
        }
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consumes the simulator and returns the netlist.
    #[must_use]
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Applies one word of stimulus — `inputs[i]` packs samples of primary
    /// input `i`, lane `s` = sample `s`, only the low `valid` lanes
    /// meaningful — and returns one lane word per primary output.
    ///
    /// The very first valid lane ever evaluated primes node state without
    /// counting toggles (exactly like the scalar engine's first `eval`);
    /// every later lane counts transitions against the preceding lane,
    /// including the lane carried over from the previous word.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InputLengthMismatch`] when `inputs.len()`
    /// differs from the number of primary inputs, and
    /// [`ArithError::LaneOutOfRange`] when `valid` is not in `1..=`[`LANES`].
    pub fn eval_packed(&mut self, inputs: &[u64], valid: usize) -> Result<Vec<u64>, ArithError> {
        if inputs.len() != self.netlist.inputs.len() {
            return Err(ArithError::InputLengthMismatch {
                expected: self.netlist.inputs.len(),
                actual: inputs.len(),
            });
        }
        if !(1..=LANES).contains(&valid) {
            return Err(ArithError::LaneOutOfRange { lanes: valid });
        }
        let mask = lane_mask(valid);
        // Lane 0 of the first word ever has no predecessor: it primes.
        let tmask = if self.primed { mask } else { mask & !1 };
        let mut in_iter = inputs.iter();
        for (i, kind) in self.netlist.kinds.iter().enumerate() {
            let w = match *kind {
                GateKind::Input => *in_iter.next().expect("length checked above"),
                GateKind::Zero => 0,
                GateKind::One => u64::MAX,
                GateKind::Not(a) => !self.words[a],
                GateKind::And(a, b) => self.words[a] & self.words[b],
                GateKind::Or(a, b) => self.words[a] | self.words[b],
                GateKind::Xor(a, b) => self.words[a] ^ self.words[b],
                GateKind::Nand(a, b) => !(self.words[a] & self.words[b]),
                GateKind::Nor(a, b) => !(self.words[a] | self.words[b]),
                GateKind::Mux { sel, a, b } => {
                    let s = self.words[sel];
                    (s & self.words[a]) | (!s & self.words[b])
                }
            };
            self.words[i] = w;
            if !matches!(kind, GateKind::Input) {
                let diff = (w ^ ((w << 1) | self.carry[i])) & tmask;
                self.toggles[i] += u64::from(diff.count_ones());
            }
            self.carry[i] = (w >> (valid - 1)) & 1;
        }
        self.cycles += (valid - usize::from(!self.primed)) as u64;
        self.primed = true;
        Ok(self
            .netlist
            .outputs
            .iter()
            .map(|&o| self.words[o] & mask)
            .collect())
    }

    /// Per-node toggle counters accumulated since the last reset (indexed
    /// by node id; primary inputs stay at zero) — the quantity the
    /// equivalence proofs compare against the scalar oracle gate by gate.
    #[must_use]
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Clears counters and state (the next `eval_packed` primes again).
    pub fn reset(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.carry.iter_mut().for_each(|c| *c = 0);
        self.toggles.iter_mut().for_each(|t| *t = 0);
        self.cycles = 0;
        self.primed = false;
    }

    /// Activity statistics accumulated since the last reset — the same
    /// fold over the same per-gate counters as the scalar engine's
    /// [`stats`](super::Simulator::stats).
    #[must_use]
    pub fn stats(&self) -> ActivityStats {
        stats_from_toggles(&self.netlist, &self.toggles, self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::pack_stimuli;
    use crate::netlist::{to_bits, Simulator};

    /// Drives both engines over the same bool-vector stream and asserts
    /// outputs, per-gate toggles, cycles and stats all agree.
    fn assert_engines_agree(nl: &Netlist, stream: &[Vec<bool>]) {
        let mut scalar = Simulator::new(nl.clone());
        let mut packed = BitSimulator::new(nl.clone());
        let mut scalar_out = Vec::new();
        for s in stream {
            scalar_out.push(scalar.eval(s).expect("width"));
        }
        let mut packed_out: Vec<Vec<bool>> = Vec::new();
        for chunk in stream.chunks(LANES) {
            let words = packed
                .eval_packed(&pack_stimuli(chunk), chunk.len())
                .expect("width");
            for lane in 0..chunk.len() {
                packed_out.push(words.iter().map(|w| (w >> lane) & 1 == 1).collect());
            }
        }
        assert_eq!(scalar_out, packed_out, "output values diverged");
        assert_eq!(scalar.toggles(), packed.toggles(), "toggle counters");
        assert_eq!(scalar.stats(), packed.stats(), "aggregate stats");
    }

    #[test]
    fn lane_mask_covers_range() {
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(6), 0b11_1111);
        assert_eq!(lane_mask(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "valid lane count")]
    fn lane_mask_rejects_zero() {
        let _ = lane_mask(0);
    }

    #[test]
    fn hand_computed_three_gate_toggles() {
        // x = a XOR b, n = NOT x, g = x AND b over six samples:
        //   s:      0  1  2  3  4  5
        //   a:      0  1  1  0  0  0
        //   b:      0  0  1  1  1  0
        //   x:      0  1  0  1  1  0   -> 4 transitions
        //   n:      1  0  1  0  0  1   -> 4 transitions
        //   g:      0  0  0  1  1  0   -> 2 transitions
        // Popcount arithmetic, by hand: x packs to 0b011010, its shifted
        // predecessor is 0b110100, the XOR is 0b101110; masking off the
        // priming lane (0b111110) leaves popcount 4. Likewise g: 0b011000
        // vs 0b110000 -> 0b101000, popcount 2.
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let x = nl.xor(a, b);
        let n = nl.not(x);
        let g = nl.and(x, b);
        nl.mark_output(n);
        nl.mark_output(g);

        let mut sim = BitSimulator::new(nl.clone());
        let out = sim.eval_packed(&[0b000110, 0b011100], 6).expect("fits");
        assert_eq!(out, vec![0b100101, 0b011000]);
        assert_eq!(sim.toggles()[x], 4);
        assert_eq!(sim.toggles()[n], 4);
        assert_eq!(sim.toggles()[g], 2);
        let st = sim.stats();
        assert_eq!(st.cycles, 5);
        assert_eq!(st.toggles, 10);
        // XOR cap 2.0, NOT cap 0.5, AND cap 1.25.
        assert!((st.weighted_toggles - (4.0 * 2.0 + 4.0 * 0.5 + 2.0 * 1.25)).abs() < 1e-12);

        // The carry crosses into the next word: sample 6 = (1, 0) flips x
        // (0 -> 1) and n but leaves g at 0.
        sim.eval_packed(&[1, 0], 1).expect("fits");
        assert_eq!(sim.toggles()[x], 5);
        assert_eq!(sim.toggles()[n], 5);
        assert_eq!(sim.toggles()[g], 2);
        assert_eq!(sim.stats().cycles, 6);
    }

    #[test]
    fn ragged_tail_lanes_are_masked_out() {
        // Garbage above the valid lanes must affect neither outputs nor
        // toggle counts: evaluate the same 3 samples with high lanes set.
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g = nl.or(a, b);
        nl.mark_output(g);
        let run = |wa: u64, wb: u64| {
            let mut sim = BitSimulator::new(nl.clone());
            let out = sim.eval_packed(&[wa, wb], 3).expect("fits");
            (out, sim.toggles().to_vec(), sim.stats())
        };
        let clean = run(0b010, 0b100);
        let noisy = run(0b010 | !0b111, 0b100 | !0b111);
        assert_eq!(clean, noisy);
    }

    #[test]
    fn full_and_ragged_words_match_scalar_on_an_adder_chain() {
        let mut nl = Netlist::new();
        let bus = nl.input_bus(8);
        let mut carry = nl.zero();
        let mut acc = bus[0];
        for &b in &bus[1..] {
            let (s, c) = nl.full_adder(acc, b, carry);
            acc = s;
            carry = c;
        }
        nl.mark_output(acc);
        nl.mark_output(carry);
        for len in [1usize, 63, 64, 65, 130] {
            let stream: Vec<Vec<bool>> = (0..len)
                .map(|s| to_bits((s as u64).wrapping_mul(0x9E37_79B9), 8))
                .collect();
            assert_engines_agree(&nl, &stream);
        }
    }

    #[test]
    fn mux_word_semantics_match_scalar() {
        let mut nl = Netlist::new();
        let s = nl.input();
        let a = nl.input();
        let b = nl.input();
        let m = nl.mux(s, a, b);
        nl.mark_output(m);
        let stream: Vec<Vec<bool>> = (0..8).map(|v| to_bits(v, 3)).collect();
        assert_engines_agree(&nl, &stream);
    }

    #[test]
    fn eval_packed_rejects_bad_shapes() {
        let mut nl = Netlist::new();
        nl.input();
        let mut sim = BitSimulator::new(nl);
        assert!(matches!(
            sim.eval_packed(&[0, 0], 4),
            Err(ArithError::InputLengthMismatch {
                expected: 1,
                actual: 2
            })
        ));
        assert!(matches!(
            sim.eval_packed(&[0], 0),
            Err(ArithError::LaneOutOfRange { lanes: 0 })
        ));
        assert!(matches!(
            sim.eval_packed(&[0], 65),
            Err(ArithError::LaneOutOfRange { lanes: 65 })
        ));
    }

    #[test]
    fn reset_clears_packed_state() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let n = nl.not(a);
        nl.mark_output(n);
        let mut sim = BitSimulator::new(nl);
        sim.eval_packed(&[0b01], 2).expect("fits");
        assert!(sim.stats().toggles > 0);
        sim.reset();
        assert_eq!(sim.stats().toggles, 0);
        assert_eq!(sim.stats().cycles, 0);
        // Primes again from scratch: a single lane counts nothing.
        sim.eval_packed(&[1], 1).expect("fits");
        assert_eq!(sim.stats().toggles, 0);
    }
}
