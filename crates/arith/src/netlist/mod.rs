//! Combinational gate-level netlists with toggle counting.
//!
//! The paper extracts switching activity and critical-path scaling from
//! synthesized 40 nm netlists simulated with commercial tools. This module is
//! the substitute: multipliers are *constructed* as netlists of 2-input gates
//! and simulated on data streams. Per-gate toggle counters give the switching
//! activity `α` of equations (1)–(3); levelized depth gives the critical-path
//! length whose scaling with precision enables DVAS voltage scaling (Fig. 2b).
//!
//! Nodes are created in topological order by construction (a gate can only
//! reference already-created fanins), so evaluation is a single forward pass.
//!
//! ## Evaluation engines
//!
//! Two evaluators share the netlist representation and produce **bit-identical**
//! results — values, per-gate toggle counts, and therefore every `α`, RMSE and
//! energy figure downstream:
//!
//! * [`Simulator`] — the scalar engine: one `bool` per gate per operand pair.
//!   Retained as the *reference oracle*: the property-test net
//!   (`tests/bitslice_equivalence.rs`) proves the packed engine against it on
//!   random netlists, random streams and ragged lengths.
//! * [`bitslice::BitSimulator`] — the bitsliced engine (the default behind
//!   [`Engine::Bitsliced`]): 64 Monte-Carlo samples packed into one `u64` lane
//!   word per gate, the whole netlist evaluated word-at-a-time (every cell is
//!   1–3 word ops), and toggles counted with `popcount` over consecutive
//!   words. Ragged tails (`samples % 64 != 0`) are handled by masked lanes,
//!   so all sample counts keep their exact scalar results.
//!
//! [`Engine`] selects between them at run time. `tests/bitslice_equivalence.rs`
//! pins them equal per netlist, and `tests/scenario_registry.rs` renders
//! every registered scenario on both and compares the bytes.

use crate::error::ArithError;
use serde::{Deserialize, Serialize};

pub mod bitslice;

pub use bitslice::{lane_mask, BitSimulator, LANES};

/// Index of a node inside a [`Netlist`].
pub type NodeId = usize;

/// The primitive cell types of the standard-cell library we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GateKind {
    /// Primary input.
    Input,
    /// Constant logic 0.
    Zero,
    /// Constant logic 1.
    One,
    /// Inverter.
    Not(NodeId),
    /// 2-input AND.
    And(NodeId, NodeId),
    /// 2-input OR.
    Or(NodeId, NodeId),
    /// 2-input XOR.
    Xor(NodeId, NodeId),
    /// 2-input NAND.
    Nand(NodeId, NodeId),
    /// 2-input NOR.
    Nor(NodeId, NodeId),
    /// 2:1 multiplexer `sel ? a : b`.
    Mux {
        /// Select input.
        sel: NodeId,
        /// Output when `sel` is 1.
        a: NodeId,
        /// Output when `sel` is 0.
        b: NodeId,
    },
}

impl GateKind {
    /// Relative switching capacitance of this cell, normalized to a NAND2.
    ///
    /// Values follow typical standard-cell library ratios: XOR cells are
    /// roughly twice as heavy as NAND/NOR, inverters half.
    #[must_use]
    pub fn relative_cap(self) -> f64 {
        match self {
            GateKind::Input | GateKind::Zero | GateKind::One => 0.0,
            GateKind::Not(_) => 0.5,
            GateKind::And(..) | GateKind::Or(..) => 1.25,
            GateKind::Nand(..) | GateKind::Nor(..) => 1.0,
            GateKind::Xor(..) => 2.0,
            GateKind::Mux { .. } => 2.0,
        }
    }

    /// Logic depth contribution of this cell (in NAND2-equivalent stages).
    #[must_use]
    pub fn stage_delay(self) -> u32 {
        match self {
            GateKind::Input | GateKind::Zero | GateKind::One => 0,
            GateKind::Not(_) => 1,
            GateKind::Nand(..) | GateKind::Nor(..) => 1,
            GateKind::And(..) | GateKind::Or(..) => 2,
            GateKind::Xor(..) | GateKind::Mux { .. } => 2,
        }
    }
}

/// A combinational netlist under construction or simulation.
///
/// # Example
///
/// Build a half adder and check its truth table:
///
/// ```
/// use dvafs_arith::netlist::{Netlist, Simulator};
///
/// let mut nl = Netlist::new();
/// let a = nl.input();
/// let b = nl.input();
/// let (sum, carry) = nl.half_adder(a, b);
/// nl.mark_output(sum);
/// nl.mark_output(carry);
///
/// let mut sim = Simulator::new(nl);
/// assert_eq!(sim.eval(&[true, true])?, vec![false, true]);
/// assert_eq!(sim.eval(&[true, false])?, vec![true, false]);
/// # Ok::<(), dvafs_arith::ArithError>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Netlist {
    kinds: Vec<GateKind>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    zero: Option<NodeId>,
    one: Option<NodeId>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    fn push(&mut self, kind: GateKind) -> NodeId {
        self.kinds.push(kind);
        self.kinds.len() - 1
    }

    /// Adds a primary input and returns its node.
    pub fn input(&mut self) -> NodeId {
        let id = self.push(GateKind::Input);
        self.inputs.push(id);
        id
    }

    /// Adds `n` primary inputs (LSB first) and returns their nodes.
    pub fn input_bus(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.input()).collect()
    }

    /// The shared constant-0 node.
    pub fn zero(&mut self) -> NodeId {
        if let Some(z) = self.zero {
            z
        } else {
            let z = self.push(GateKind::Zero);
            self.zero = Some(z);
            z
        }
    }

    /// The shared constant-1 node.
    pub fn one(&mut self) -> NodeId {
        if let Some(o) = self.one {
            o
        } else {
            let o = self.push(GateKind::One);
            self.one = Some(o);
            o
        }
    }

    fn is_zero(&self, n: NodeId) -> bool {
        matches!(self.kinds[n], GateKind::Zero)
    }

    fn is_one(&self, n: NodeId) -> bool {
        matches!(self.kinds[n], GateKind::One)
    }

    /// Inverter, with constant folding.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        if self.is_zero(a) {
            self.one()
        } else if self.is_one(a) {
            self.zero()
        } else {
            self.push(GateKind::Not(a))
        }
    }

    /// 2-input AND, with constant folding.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.is_zero(a) || self.is_zero(b) {
            self.zero()
        } else if self.is_one(a) {
            b
        } else if self.is_one(b) {
            a
        } else {
            self.push(GateKind::And(a, b))
        }
    }

    /// 2-input OR, with constant folding.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.is_one(a) || self.is_one(b) {
            self.one()
        } else if self.is_zero(a) {
            b
        } else if self.is_zero(b) {
            a
        } else {
            self.push(GateKind::Or(a, b))
        }
    }

    /// 2-input XOR, with constant folding.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.is_zero(a) {
            b
        } else if self.is_zero(b) {
            a
        } else if self.is_one(a) {
            self.not(b)
        } else if self.is_one(b) {
            self.not(a)
        } else {
            self.push(GateKind::Xor(a, b))
        }
    }

    /// 2-input NAND, with constant folding.
    pub fn nand(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.is_zero(a) || self.is_zero(b) {
            self.one()
        } else if self.is_one(a) {
            self.not(b)
        } else if self.is_one(b) {
            self.not(a)
        } else {
            self.push(GateKind::Nand(a, b))
        }
    }

    /// 2-input NOR, with constant folding.
    pub fn nor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.is_one(a) || self.is_one(b) {
            self.zero()
        } else if self.is_zero(a) {
            self.not(b)
        } else if self.is_zero(b) {
            self.not(a)
        } else {
            self.push(GateKind::Nor(a, b))
        }
    }

    /// 2:1 mux `sel ? a : b`, with constant folding on the select.
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        if self.is_one(sel) {
            a
        } else if self.is_zero(sel) {
            b
        } else if a == b {
            a
        } else {
            self.push(GateKind::Mux { sel, a, b })
        }
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        (self.xor(a, b), self.and(a, b))
    }

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NodeId, b: NodeId, c: NodeId) -> (NodeId, NodeId) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, c);
        let t1 = self.and(axb, c);
        let t2 = self.and(a, b);
        let carry = self.or(t1, t2);
        (sum, carry)
    }

    /// Marks a node as a primary output (outputs may repeat nodes).
    pub fn mark_output(&mut self, n: NodeId) {
        self.outputs.push(n);
    }

    /// Marks a bus of nodes as primary outputs, LSB first.
    pub fn mark_output_bus(&mut self, bus: &[NodeId]) {
        self.outputs.extend_from_slice(bus);
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Primary output nodes.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Number of logic cells (inputs and constants excluded).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| !matches!(k, GateKind::Input | GateKind::Zero | GateKind::One))
            .count()
    }

    /// Total number of nodes including inputs and constants.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Levelized depth of every node, in NAND2-equivalent stages.
    #[must_use]
    pub fn depths(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.kinds.len()];
        for (i, k) in self.kinds.iter().enumerate() {
            let fan = match *k {
                GateKind::Input | GateKind::Zero | GateKind::One => 0,
                GateKind::Not(a) => d[a],
                GateKind::And(a, b)
                | GateKind::Or(a, b)
                | GateKind::Xor(a, b)
                | GateKind::Nand(a, b)
                | GateKind::Nor(a, b) => d[a].max(d[b]),
                GateKind::Mux { sel, a, b } => d[sel].max(d[a]).max(d[b]),
            };
            d[i] = fan + k.stage_delay();
        }
        d
    }

    /// Static critical-path depth: the deepest primary output, in
    /// NAND2-equivalent stages.
    #[must_use]
    pub fn critical_depth(&self) -> u32 {
        let d = self.depths();
        self.outputs.iter().map(|&o| d[o]).max().unwrap_or(0)
    }

    /// The cell kind of a node.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::UnknownNode`] for an out-of-range id.
    pub fn kind(&self, id: NodeId) -> Result<GateKind, ArithError> {
        self.kinds
            .get(id)
            .copied()
            .ok_or(ArithError::UnknownNode { id })
    }
}

/// Statistics gathered by a [`Simulator`] over a stimulus stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivityStats {
    /// Evaluations performed since the last reset.
    pub cycles: u64,
    /// Total gate output transitions observed (inputs excluded).
    pub toggles: u64,
    /// Transitions weighted by each cell's relative capacitance —
    /// proportional to dynamic switched capacitance `α·C`.
    pub weighted_toggles: f64,
    /// Number of logic cells that toggled at least once.
    pub active_gates: usize,
    /// Depth (NAND2 stages) of the deepest cell that toggled at least once:
    /// the *active* critical path, which shrinks at reduced precision.
    pub active_depth: u32,
}

impl ActivityStats {
    /// Mean toggles per gate per cycle — the switching activity `α`.
    #[must_use]
    pub fn alpha(&self, gate_count: usize) -> f64 {
        if self.cycles == 0 || gate_count == 0 {
            0.0
        } else {
            self.toggles as f64 / (self.cycles as f64 * gate_count as f64)
        }
    }
}

/// Event-free two-phase simulator with per-gate toggle counting.
///
/// Each call to [`eval`](Simulator::eval) applies one input vector, settles
/// the combinational logic and compares every node against its previous
/// settled value. The toggle counts model the cycle-to-cycle switching
/// activity of a registered data path (glitching inside a cycle is not
/// modeled; the paper's conservative wire models play a similar role).
#[derive(Debug, Clone)]
pub struct Simulator {
    netlist: Netlist,
    values: Vec<bool>,
    toggles: Vec<u64>,
    cycles: u64,
    primed: bool,
}

impl Simulator {
    /// Wraps a netlist for simulation.
    #[must_use]
    pub fn new(netlist: Netlist) -> Self {
        let n = netlist.node_count();
        Simulator {
            netlist,
            values: vec![false; n],
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

    /// Applies one input vector and returns the primary-output values.
    ///
    /// The first evaluation primes node state without counting toggles;
    /// subsequent evaluations count transitions.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InputLengthMismatch`] when `inputs.len()`
    /// differs from the number of primary inputs.
    pub fn eval(&mut self, inputs: &[bool]) -> Result<Vec<bool>, ArithError> {
        if inputs.len() != self.netlist.inputs.len() {
            return Err(ArithError::InputLengthMismatch {
                expected: self.netlist.inputs.len(),
                actual: inputs.len(),
            });
        }
        let mut next = vec![false; self.netlist.kinds.len()];
        let mut in_iter = inputs.iter();
        for (i, kind) in self.netlist.kinds.iter().enumerate() {
            next[i] = match *kind {
                GateKind::Input => *in_iter.next().expect("length checked above"),
                GateKind::Zero => false,
                GateKind::One => true,
                GateKind::Not(a) => !next[a],
                GateKind::And(a, b) => next[a] && next[b],
                GateKind::Or(a, b) => next[a] || next[b],
                GateKind::Xor(a, b) => next[a] ^ next[b],
                GateKind::Nand(a, b) => !(next[a] && next[b]),
                GateKind::Nor(a, b) => !(next[a] || next[b]),
                GateKind::Mux { sel, a, b } => {
                    if next[sel] {
                        next[a]
                    } else {
                        next[b]
                    }
                }
            };
        }
        if self.primed {
            for (i, (&nv, &ov)) in next.iter().zip(self.values.iter()).enumerate() {
                if nv != ov && !matches!(self.netlist.kinds[i], GateKind::Input) {
                    self.toggles[i] += 1;
                }
            }
            self.cycles += 1;
        } else {
            self.primed = true;
        }
        self.values = next;
        Ok(self
            .netlist
            .outputs
            .iter()
            .map(|&o| self.values[o])
            .collect())
    }

    /// Clears counters and state (the next `eval` primes again).
    pub fn reset(&mut self) {
        self.toggles.iter_mut().for_each(|t| *t = 0);
        self.values.iter_mut().for_each(|v| *v = false);
        self.cycles = 0;
        self.primed = false;
    }

    /// Per-node toggle counters accumulated since the last reset (indexed
    /// by [`NodeId`]; primary inputs stay at zero). Exposed so equivalence
    /// tests can compare engines gate by gate, not just in aggregate.
    #[must_use]
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Activity statistics accumulated since the last reset.
    ///
    /// The `active_depth` is the longest path *through gates that actually
    /// toggled*: a gate whose fanins are quiescent contributes no upstream
    /// delay, which models how input gating shortens the sensitizable
    /// critical path (paper Fig. 2b) even though the static netlist is
    /// unchanged.
    #[must_use]
    pub fn stats(&self) -> ActivityStats {
        stats_from_toggles(&self.netlist, &self.toggles, self.cycles)
    }
}

/// Folds per-node toggle counters into [`ActivityStats`].
///
/// Both engines accumulate the same `toggles` layout (one counter per
/// [`NodeId`]), and this single fold — walking nodes in creation order —
/// derives every aggregate from it, so the scalar and bitsliced statistics
/// agree by construction whenever the counters do.
#[must_use]
pub fn stats_from_toggles(netlist: &Netlist, toggles: &[u64], cycles: u64) -> ActivityStats {
    let mut total = 0u64;
    let mut weighted = 0.0f64;
    let mut active = 0usize;
    let mut active_depth = 0u32;
    // Depth within the toggling cone, in topological (creation) order.
    let mut cone = vec![0u32; netlist.kinds.len()];
    for (i, &t) in toggles.iter().enumerate() {
        let kind = netlist.kinds[i];
        if matches!(kind, GateKind::Input | GateKind::Zero | GateKind::One) {
            continue;
        }
        total += t;
        weighted += t as f64 * kind.relative_cap();
        if t > 0 {
            active += 1;
            let fan = match kind {
                GateKind::Input | GateKind::Zero | GateKind::One => 0,
                GateKind::Not(a) => cone[a],
                GateKind::And(a, b)
                | GateKind::Or(a, b)
                | GateKind::Xor(a, b)
                | GateKind::Nand(a, b)
                | GateKind::Nor(a, b) => cone[a].max(cone[b]),
                GateKind::Mux { sel, a, b } => cone[sel].max(cone[a]).max(cone[b]),
            };
            cone[i] = fan + kind.stage_delay();
            active_depth = active_depth.max(cone[i]);
        }
    }
    ActivityStats {
        cycles,
        toggles: total,
        weighted_toggles: weighted,
        active_gates: active,
        active_depth,
    }
}

/// Which evaluation engine drives a netlist over a stimulus stream.
///
/// Both engines are proven bit-identical (values *and* per-gate toggle
/// counts) by the property-test net; [`Engine::Bitsliced`] is the default
/// everywhere, [`Engine::Scalar`] is the retained reference oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// One `bool` per gate per sample ([`Simulator`]) — the reference oracle.
    Scalar,
    /// 64 samples per `u64` word per gate ([`BitSimulator`]) — the default.
    #[default]
    Bitsliced,
}

impl Engine {
    /// Both engines, oracle first (test matrices iterate this).
    pub const ALL: [Engine; 2] = [Engine::Scalar, Engine::Bitsliced];

    /// Drives `netlist` with `samples` stimulus vectors (`stimulus(i)` is
    /// the input vector of sample `i`) and returns the accumulated activity
    /// statistics — the α extraction primitive behind Fig. 2d and Table I.
    ///
    /// The bitsliced engine consumes the stream in [`LANES`]-sample words
    /// with a masked ragged tail; the result is bit-identical to the scalar
    /// engine's for every stream length.
    ///
    /// # Panics
    ///
    /// Panics if a stimulus vector does not match the netlist's input count.
    #[must_use]
    pub fn simulate_stream<F>(self, netlist: &Netlist, samples: usize, stimulus: F) -> ActivityStats
    where
        F: Fn(usize) -> Vec<bool>,
    {
        match self {
            Engine::Scalar => {
                let mut sim = Simulator::new(netlist.clone());
                for s in 0..samples {
                    sim.eval(&stimulus(s)).expect("stimulus width must match");
                }
                sim.stats()
            }
            Engine::Bitsliced => {
                let mut sim = BitSimulator::new(netlist.clone());
                let mut word = Vec::with_capacity(LANES);
                let mut start = 0;
                while start < samples {
                    let valid = LANES.min(samples - start);
                    word.clear();
                    word.extend((start..start + valid).map(&stimulus));
                    let packed = crate::metrics::pack_stimuli(&word);
                    sim.eval_packed(&packed, valid)
                        .expect("stimulus width must match");
                    start += valid;
                }
                sim.stats()
            }
        }
    }
}

/// Converts an unsigned value to `n` bits, LSB first, for netlist stimulus.
#[must_use]
pub fn to_bits(value: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (value >> i) & 1 == 1).collect()
}

/// Converts LSB-first bits back to an unsigned value.
#[must_use]
pub fn from_bits(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_once(nl: Netlist, inputs: &[bool]) -> Vec<bool> {
        Simulator::new(nl).eval(inputs).unwrap()
    }

    #[test]
    fn basic_gates_truth_tables() {
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut nl = Netlist::new();
            let ia = nl.input();
            let ib = nl.input();
            let g_and = nl.and(ia, ib);
            let g_or = nl.or(ia, ib);
            let g_xor = nl.xor(ia, ib);
            let g_nand = nl.nand(ia, ib);
            let g_nor = nl.nor(ia, ib);
            let g_not = nl.not(ia);
            for g in [g_and, g_or, g_xor, g_nand, g_nor, g_not] {
                nl.mark_output(g);
            }
            let out = eval_once(nl, &[a, b]);
            assert_eq!(out[0], a && b);
            assert_eq!(out[1], a || b);
            assert_eq!(out[2], a ^ b);
            assert_eq!(out[3], !(a && b));
            assert_eq!(out[4], !(a || b));
            assert_eq!(out[5], !a);
        }
    }

    #[test]
    fn mux_selects() {
        for (s, a, b) in [
            (false, false, true),
            (false, true, false),
            (true, false, true),
            (true, true, false),
        ] {
            let mut nl = Netlist::new();
            let is = nl.input();
            let ia = nl.input();
            let ib = nl.input();
            let m = nl.mux(is, ia, ib);
            nl.mark_output(m);
            let out = eval_once(nl, &[s, a, b]);
            assert_eq!(out[0], if s { a } else { b });
        }
    }

    #[test]
    fn full_adder_truth_table() {
        for v in 0..8u64 {
            let mut nl = Netlist::new();
            let a = nl.input();
            let b = nl.input();
            let c = nl.input();
            let (s, co) = nl.full_adder(a, b, c);
            nl.mark_output(s);
            nl.mark_output(co);
            let bits = to_bits(v, 3);
            let out = eval_once(nl, &bits);
            let total = u64::from(bits[0]) + u64::from(bits[1]) + u64::from(bits[2]);
            assert_eq!(u64::from(out[0]), total & 1);
            assert_eq!(u64::from(out[1]), total >> 1);
        }
    }

    #[test]
    fn constant_folding_collapses_trivial_gates() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let z = nl.zero();
        let o = nl.one();
        assert_eq!(nl.and(a, z), z);
        assert_eq!(nl.and(a, o), a);
        assert_eq!(nl.or(a, z), a);
        assert_eq!(nl.or(a, o), o);
        assert_eq!(nl.xor(a, z), a);
        // No logic cells were created by the folds above.
        assert_eq!(nl.gate_count(), 0);
    }

    #[test]
    fn toggle_counting_counts_transitions_not_levels() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g = nl.and(a, b);
        nl.mark_output(g);
        let mut sim = Simulator::new(nl);
        sim.eval(&[false, false]).unwrap(); // prime
        sim.eval(&[true, true]).unwrap(); // AND: 0 -> 1 (toggle)
        sim.eval(&[true, true]).unwrap(); // stable (no toggle)
        sim.eval(&[false, true]).unwrap(); // 1 -> 0 (toggle)
        let st = sim.stats();
        assert_eq!(st.toggles, 2);
        assert_eq!(st.cycles, 3);
        assert_eq!(st.active_gates, 1);
    }

    #[test]
    fn gated_inputs_produce_zero_toggles() {
        // Hold inputs constant: nothing downstream may toggle.
        let mut nl = Netlist::new();
        let bus = nl.input_bus(8);
        let mut acc = bus[0];
        for &b in &bus[1..] {
            acc = nl.xor(acc, b);
        }
        nl.mark_output(acc);
        let mut sim = Simulator::new(nl);
        for _ in 0..10 {
            sim.eval(&[false; 8]).unwrap();
        }
        assert_eq!(sim.stats().toggles, 0);
    }

    #[test]
    fn depth_of_xor_chain_grows_linearly() {
        let mut nl = Netlist::new();
        let bus = nl.input_bus(9);
        let mut acc = bus[0];
        for &b in &bus[1..] {
            acc = nl.xor(acc, b);
        }
        nl.mark_output(acc);
        // 8 XOR stages at 2 NAND-equivalents each.
        assert_eq!(nl.critical_depth(), 16);
    }

    #[test]
    fn active_depth_shrinks_when_high_bits_are_gated() {
        // A chain where later stages only toggle when later inputs toggle.
        let mut nl = Netlist::new();
        let bus = nl.input_bus(8);
        let mut acc = bus[0];
        let mut stages = Vec::new();
        for &b in &bus[1..] {
            acc = nl.xor(acc, b);
            stages.push(acc);
        }
        nl.mark_output(acc);
        let full_depth = nl.critical_depth();
        let mut sim = Simulator::new(nl);
        // Toggle only the lowest input: every XOR stage flips once.
        sim.eval(&[false; 8]).unwrap();
        sim.eval(&[true, false, false, false, false, false, false, false])
            .unwrap();
        let st = sim.stats();
        assert!(st.active_depth <= full_depth);
        assert!(st.toggles > 0);
    }

    #[test]
    fn eval_rejects_wrong_input_length() {
        let mut nl = Netlist::new();
        nl.input();
        let mut sim = Simulator::new(nl);
        assert!(matches!(
            sim.eval(&[true, false]),
            Err(ArithError::InputLengthMismatch {
                expected: 1,
                actual: 2
            })
        ));
    }

    #[test]
    fn reset_clears_counters() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let n = nl.not(a);
        nl.mark_output(n);
        let mut sim = Simulator::new(nl);
        sim.eval(&[false]).unwrap();
        sim.eval(&[true]).unwrap();
        assert!(sim.stats().toggles > 0);
        sim.reset();
        assert_eq!(sim.stats().toggles, 0);
        assert_eq!(sim.stats().cycles, 0);
    }

    #[test]
    fn bits_roundtrip() {
        for v in [0u64, 1, 0xABCD, 0xFFFF] {
            assert_eq!(from_bits(&to_bits(v, 16)), v & 0xFFFF);
        }
    }

    #[test]
    fn weighted_toggles_respect_cell_caps() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let x = nl.xor(a, b); // cap 2.0
        nl.mark_output(x);
        let mut sim = Simulator::new(nl);
        sim.eval(&[false, false]).unwrap();
        sim.eval(&[true, false]).unwrap();
        let st = sim.stats();
        assert_eq!(st.toggles, 1);
        assert!((st.weighted_toggles - 2.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_is_toggles_per_gate_cycle() {
        let st = ActivityStats {
            cycles: 10,
            toggles: 25,
            weighted_toggles: 25.0,
            active_gates: 5,
            active_depth: 3,
        };
        assert!((st.alpha(5) - 0.5).abs() < 1e-12);
        assert_eq!(st.alpha(0), 0.0);
    }
}
