//! Exact reference multipliers, behavioral and gate-level.

use crate::booth::booth_digits;
use crate::metrics::{pack_value_bits, unpack_value_bits};
use crate::netlist::{from_bits, to_bits, BitSimulator, Netlist, Simulator, LANES};
use crate::wallace::ColumnStack;

/// Builds a signed `n x n` Booth-encoded Wallace-tree multiplier netlist.
///
/// Inputs (in order): `x[0..n]` (LSB first), then `y[0..n]`. Outputs:
/// `p[0..2n]` (LSB first), the exact signed product in two's complement.
///
/// Each radix-4 Booth digit contributes one partial-product row
/// (`one`/`two`/`neg` select lines decoded from overlapping `y` triplets, a
/// sign-extended XOR-negated multiple of `x`, plus a `+neg` correction bit);
/// rows are compressed with a Wallace tree and resolved with a
/// carry-propagate adder.
///
/// # Panics
///
/// Panics if `n` is zero, odd or larger than 32.
#[must_use]
pub fn build_booth_wallace(n: usize) -> Netlist {
    assert!(
        n > 0 && n.is_multiple_of(2) && n <= 32,
        "n must be even and <= 32"
    );
    let mut nl = Netlist::new();
    let x = nl.input_bus(n);
    let y = nl.input_bus(n);
    let zero = nl.zero();
    let width = 2 * n;
    let mut stack = ColumnStack::new(width);
    // Accumulated constant from the optimized sign-extension scheme: the
    // replicated sign bits of row i are algebraically replaced by
    // `!sign * 2^(base+n+1) - 2^(base+n+1)` (mod 2^2n), so only one extra
    // (inverted) bit per row can toggle instead of a full run of copies.
    let mut sign_const: u64 = 0;

    for i in 0..n / 2 {
        // Overlapping triplet (y[2i+1], y[2i], y[2i-1]), y[-1] = 0.
        let hi = y[2 * i + 1];
        let mid = y[2 * i];
        let lo = if i == 0 { zero } else { y[2 * i - 1] };
        let one = nl.xor(mid, lo);
        let him = nl.xor(hi, mid);
        let none = nl.not(one);
        let two = nl.and(him, none);
        let neg = hi;

        // (n+1)-bit selected multiple: sel_j = one&x[j] | two&x[j-1].
        let mut row = Vec::with_capacity(n + 1);
        for j in 0..=n {
            let x1 = if j < n { x[j] } else { x[n - 1] }; // sign-extended x
            let x2 = if j == 0 {
                zero
            } else if j - 1 < n {
                x[j - 1]
            } else {
                x[n - 1]
            };
            let t1 = nl.and(one, x1);
            let t2 = nl.and(two, x2);
            let sel = nl.or(t1, t2);
            row.push(nl.xor(sel, neg));
        }
        let sign = row[n];
        let base = 2 * i;
        stack.push_row(base, &row);
        // Optimized sign extension: sign-extending `row` from column
        // base+n+1 up adds `sign * (-2^(base+n+1))` (mod 2^2n), which equals
        // `!sign * 2^(base+n+1)` plus the constant `-2^(base+n+1)`.
        if base + n + 1 < width {
            let nsign = nl.not(sign);
            stack.push_bit(base + n + 1, nsign);
            sign_const = sign_const.wrapping_sub(1u64 << (base + n + 1));
        }
        // Two's-complement correction: +neg at the row's LSB column.
        stack.push_bit(base, neg);
    }

    // Fold the accumulated sign-extension constant in as constant-1 bits
    // (constants never toggle).
    let one = nl.one();
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let c = sign_const & mask;
    for col in 0..width {
        if (c >> col) & 1 == 1 {
            stack.push_bit(col, one);
        }
    }

    let product = stack.reduce_to_sum(&mut nl);
    nl.mark_output_bus(&product);
    nl
}

/// Builds the Booth–Wallace multiplier with *naive* sign extension: each
/// partial-product row replicates its sign bit across the full output
/// width instead of using the inverted-bit + constant scheme. Functionally
/// identical to [`build_booth_wallace`]; kept as the ablation baseline
/// showing how much low-precision activity the optimized scheme removes.
///
/// # Panics
///
/// Panics if `n` is zero, odd or larger than 32.
#[must_use]
pub fn build_booth_wallace_naive(n: usize) -> Netlist {
    assert!(
        n > 0 && n.is_multiple_of(2) && n <= 32,
        "n must be even and <= 32"
    );
    let mut nl = Netlist::new();
    let x = nl.input_bus(n);
    let y = nl.input_bus(n);
    let zero = nl.zero();
    let width = 2 * n;
    let mut stack = ColumnStack::new(width);
    for i in 0..n / 2 {
        let hi = y[2 * i + 1];
        let mid = y[2 * i];
        let lo = if i == 0 { zero } else { y[2 * i - 1] };
        let one = nl.xor(mid, lo);
        let him = nl.xor(hi, mid);
        let none = nl.not(one);
        let two = nl.and(him, none);
        let neg = hi;
        let mut row = Vec::with_capacity(n + 1);
        for j in 0..=n {
            let x1 = if j < n { x[j] } else { x[n - 1] };
            let x2 = if j == 0 {
                zero
            } else if j - 1 < n {
                x[j - 1]
            } else {
                x[n - 1]
            };
            let t1 = nl.and(one, x1);
            let t2 = nl.and(two, x2);
            let sel = nl.or(t1, t2);
            row.push(nl.xor(sel, neg));
        }
        let sign = row[n];
        let base = 2 * i;
        stack.push_row(base, &row);
        // Naive sign extension: replicate the sign bit (it toggles with
        // the data in every column it reaches).
        for col in (base + n + 1)..width {
            stack.push_bit(col, sign);
        }
        stack.push_bit(base, neg);
    }
    let product = stack.reduce_to_sum(&mut nl);
    nl.mark_output_bus(&product);
    nl
}

/// Builds an unsigned `n x n` array multiplier netlist (AND-gate partial
/// products reduced by a Wallace tree).
///
/// Inputs: `x[0..n]` then `y[0..n]` (LSB first). Outputs: `p[0..2n]`.
///
/// # Panics
///
/// Panics if `n` is zero or larger than 32.
#[must_use]
pub fn build_array_multiplier(n: usize) -> Netlist {
    assert!(n > 0 && n <= 32, "n must be in 1..=32");
    let mut nl = Netlist::new();
    let x = nl.input_bus(n);
    let y = nl.input_bus(n);
    let mut stack = ColumnStack::new(2 * n);
    for (i, &xi) in x.iter().enumerate() {
        for (j, &yj) in y.iter().enumerate() {
            let pp = nl.and(xi, yj);
            stack.push_bit(i + j, pp);
        }
    }
    let product = stack.reduce_to_sum(&mut nl);
    nl.mark_output_bus(&product);
    nl
}

/// A bit-accurate exact multiplier with both a behavioral path and a
/// gate-level netlist, used as the reference design and the DAS substrate.
///
/// # Example
///
/// ```
/// use dvafs_arith::multiplier::ExactMultiplier;
///
/// let m = ExactMultiplier::booth_wallace(16);
/// assert_eq!(m.mul(-300, 41), -300 * 41);
/// ```
#[derive(Debug, Clone)]
pub struct ExactMultiplier {
    netlist_fn: fn(usize) -> Netlist,
    n: usize,
    signed: bool,
}

impl ExactMultiplier {
    /// A signed Booth–Wallace multiplier of width `n` (the paper's design).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, odd or larger than 32.
    #[must_use]
    pub fn booth_wallace(n: usize) -> Self {
        assert!(n > 0 && n.is_multiple_of(2) && n <= 32);
        ExactMultiplier {
            netlist_fn: build_booth_wallace,
            n,
            signed: true,
        }
    }

    /// An unsigned array multiplier of width `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or larger than 32.
    #[must_use]
    pub fn array(n: usize) -> Self {
        assert!(n > 0 && n <= 32);
        ExactMultiplier {
            netlist_fn: build_array_multiplier,
            n,
            signed: false,
        }
    }

    /// Operand width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.n
    }

    /// Behavioral product (reference semantics).
    #[must_use]
    pub fn mul(&self, x: i64, y: i64) -> i64 {
        if self.signed {
            // Confirm through Booth recoding for widths <= 32.
            debug_assert_eq!(
                booth_digits(y as i32, self.n as u32)
                    .iter()
                    .enumerate()
                    .map(|(i, d)| i64::from(d.value) << (2 * i))
                    .sum::<i64>(),
                y
            );
            x * y
        } else {
            x * y
        }
    }

    /// Builds the gate-level netlist for this multiplier.
    #[must_use]
    pub fn build_netlist(&self) -> Netlist {
        (self.netlist_fn)(self.n)
    }

    /// Evaluates the gate-level netlist on one operand pair and decodes the
    /// product (two's complement when signed). Intended for verification;
    /// for activity extraction drive a [`Simulator`] with a stream instead.
    #[must_use]
    pub fn mul_via_netlist(&self, x: i64, y: i64) -> i64 {
        let nl = self.build_netlist();
        let mut sim = Simulator::new(nl);
        let mask = self.operand_mask();
        let mut inputs = to_bits((x as u64) & mask, self.n);
        inputs.extend(to_bits((y as u64) & mask, self.n));
        let out = sim
            .eval(&inputs)
            .expect("input width matches by construction");
        self.decode_product(from_bits(&out))
    }

    /// Batched gate-level entry point: the exact products of a whole
    /// operand batch, in order, evaluated through the bitsliced engine —
    /// one netlist build, [`LANES`] pairs per word, bit-identical to
    /// [`mul_via_netlist`](Self::mul_via_netlist) pair by pair.
    #[must_use]
    pub fn evaluate_packed(&self, pairs: &[(i64, i64)]) -> Vec<i64> {
        let mut sim = BitSimulator::new(self.build_netlist());
        let mask = self.operand_mask();
        let mut out = Vec::with_capacity(pairs.len());
        for batch in pairs.chunks(LANES) {
            let xs: Vec<u64> = batch.iter().map(|&(x, _)| (x as u64) & mask).collect();
            let ys: Vec<u64> = batch.iter().map(|&(_, y)| (y as u64) & mask).collect();
            let mut planes = pack_value_bits(&xs, self.n);
            planes.extend(pack_value_bits(&ys, self.n));
            let words = sim
                .eval_packed(&planes, batch.len())
                .expect("input width matches by construction");
            out.extend(
                unpack_value_bits(&words, batch.len())
                    .into_iter()
                    .map(|raw| self.decode_product(raw)),
            );
        }
        out
    }

    fn operand_mask(&self) -> u64 {
        if self.n == 64 {
            u64::MAX
        } else {
            (1u64 << self.n) - 1
        }
    }

    fn decode_product(&self, raw: u64) -> i64 {
        if self.signed {
            let w = 2 * self.n;
            ((raw << (64 - w)) as i64) >> (64 - w)
        } else {
            raw as i64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn booth_wallace_4b_exhaustive() {
        let m = ExactMultiplier::booth_wallace(4);
        for x in -8i64..=7 {
            for y in -8i64..=7 {
                assert_eq!(m.mul_via_netlist(x, y), x * y, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn booth_wallace_6b_exhaustive() {
        let m = ExactMultiplier::booth_wallace(6);
        for x in -32i64..=31 {
            for y in -32i64..=31 {
                assert_eq!(m.mul_via_netlist(x, y), x * y, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn booth_wallace_16b_random_and_corners() {
        let m = ExactMultiplier::booth_wallace(16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut cases: Vec<(i64, i64)> = vec![
            (0, 0),
            (-32768, -32768),
            (-32768, 32767),
            (32767, 32767),
            (-1, -1),
            (1, -32768),
        ];
        for _ in 0..60 {
            cases.push((rng.gen_range(-32768..=32767), rng.gen_range(-32768..=32767)));
        }
        for (x, y) in cases {
            assert_eq!(m.mul_via_netlist(x, y), x * y, "x={x} y={y}");
        }
    }

    #[test]
    fn array_4b_exhaustive() {
        let m = ExactMultiplier::array(4);
        for x in 0i64..16 {
            for y in 0i64..16 {
                assert_eq!(m.mul_via_netlist(x, y), x * y);
            }
        }
    }

    #[test]
    fn array_16b_random() {
        let m = ExactMultiplier::array(16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let x = rng.gen_range(0i64..65536);
            let y = rng.gen_range(0i64..65536);
            assert_eq!(m.mul_via_netlist(x, y), x * y);
        }
    }

    #[test]
    fn evaluate_packed_matches_behavioral_across_word_boundaries() {
        // 100 pairs forces one full word plus a ragged 36-lane tail.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let signed_pairs: Vec<(i64, i64)> = (0..100)
            .map(|_| (rng.gen_range(-32768..=32767), rng.gen_range(-32768..=32767)))
            .collect();
        let bw = ExactMultiplier::booth_wallace(16);
        assert_eq!(
            bw.evaluate_packed(&signed_pairs),
            signed_pairs
                .iter()
                .map(|&(x, y)| x * y)
                .collect::<Vec<i64>>()
        );
        let unsigned_pairs: Vec<(i64, i64)> = (0..70)
            .map(|_| (rng.gen_range(0..65536), rng.gen_range(0..65536)))
            .collect();
        let ar = ExactMultiplier::array(16);
        assert_eq!(
            ar.evaluate_packed(&unsigned_pairs),
            unsigned_pairs
                .iter()
                .map(|&(x, y)| x * y)
                .collect::<Vec<i64>>()
        );
    }

    #[test]
    fn netlist_sizes_are_plausible() {
        // A 16x16 Booth-Wallace multiplier has on the order of 1e3 cells.
        let nl = build_booth_wallace(16);
        assert!(nl.gate_count() > 300, "got {}", nl.gate_count());
        assert!(nl.gate_count() < 5000, "got {}", nl.gate_count());
        assert_eq!(nl.input_count(), 32);
        assert_eq!(nl.output_count(), 32);
    }

    #[test]
    fn booth_uses_fewer_rows_than_array() {
        // Booth halves partial products; its stack never exceeds array's.
        let bw = build_booth_wallace(16);
        let ar = build_array_multiplier(16);
        // Not a strict gate-count win with our cell mix, but both must be
        // the same order of magnitude in depth (the final carry-propagate
        // adder dominates both).
        let db = f64::from(bw.critical_depth());
        let da = f64::from(ar.critical_depth());
        assert!(db / da < 1.6, "booth depth {db}, array depth {da}");
    }

    #[test]
    fn naive_sign_extension_variant_is_exact() {
        // The ablation baseline computes identical products.
        let nl = build_booth_wallace_naive(16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let x: i64 = rng.gen_range(-32768..=32767);
            let y: i64 = rng.gen_range(-32768..=32767);
            let mut sim = Simulator::new(nl.clone());
            let mut inputs = to_bits((x as u64) & 0xFFFF, 16);
            inputs.extend(to_bits((y as u64) & 0xFFFF, 16));
            let out = sim.eval(&inputs).expect("fits");
            let raw = from_bits(&out);
            let signed = ((raw << 32) as i64) >> 32;
            assert_eq!(signed, x * y, "x={x} y={y}");
        }
    }

    #[test]
    fn naive_sign_extension_exhaustive_4b() {
        let nl = build_booth_wallace_naive(4);
        for x in -8i64..=7 {
            for y in -8i64..=7 {
                let mut sim = Simulator::new(nl.clone());
                let mut inputs = to_bits((x as u64) & 0xF, 4);
                inputs.extend(to_bits((y as u64) & 0xF, 4));
                let out = sim.eval(&inputs).expect("fits");
                let raw = from_bits(&out);
                let signed = ((raw << 56) as i64) >> 56;
                assert_eq!(signed, x * y, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn behavioral_matches_std_multiplication() {
        let m = ExactMultiplier::booth_wallace(16);
        assert_eq!(m.mul(-300, 41), -12300);
        assert_eq!(m.mul(0, 12345), 0);
    }
}
