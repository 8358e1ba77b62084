//! Property-based tests of the arithmetic substrate's core invariants.

use dvafs_arith::booth::{booth_digits, digits_value};
use dvafs_arith::fixed::{Precision, Quantizer, RoundingMode};
use dvafs_arith::multiplier::baselines::{
    column_cells, ApproximateMultiplier, TruncatedMultiplier,
};
use dvafs_arith::multiplier::{DasMultiplier, DvafsMultiplier, KulkarniMultiplier};
use dvafs_arith::netlist::Simulator;
use dvafs_arith::subword::{pack_lanes, unpack_lanes, SubwordMode};
use proptest::prelude::*;

fn mode_strategy() -> impl Strategy<Value = SubwordMode> {
    prop_oneof![
        Just(SubwordMode::X1),
        Just(SubwordMode::X2),
        Just(SubwordMode::X4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The mode-gated netlist computes exactly the behavioral packed
    /// product for every operand pair in every mode — the central
    /// functional invariant of the DVAFS multiplier.
    #[test]
    fn netlist_equals_behavioral_packed_product(
        a in any::<u16>(),
        b in any::<u16>(),
        mode in mode_strategy(),
    ) {
        let m = DvafsMultiplier::new();
        prop_assert_eq!(m.mul_packed_via_netlist(a, b, mode), m.mul_packed(a, b, mode));
    }

    /// Subword lanes are independent: changing one lane's operands never
    /// affects another lane's product.
    #[test]
    fn subword_lanes_are_independent(
        a in prop::array::uniform4(-8i32..=7),
        b in prop::array::uniform4(-8i32..=7),
        patch in -8i32..=7,
        lane in 0usize..4,
    ) {
        let m = DvafsMultiplier::new();
        let before = m.mul_subwords(&a, &b, SubwordMode::X4);
        let mut a2 = a;
        a2[lane] = patch;
        let after = m.mul_subwords(&a2, &b, SubwordMode::X4);
        for i in 0..4 {
            if i != lane {
                prop_assert_eq!(before[i], after[i], "lane {} perturbed", i);
            }
        }
        prop_assert_eq!(after[lane], patch * b[lane]);
    }

    /// Packing then unpacking recovers the lane values exactly.
    #[test]
    fn pack_unpack_roundtrip(word in any::<u16>(), mode in mode_strategy()) {
        let lanes: Vec<i32> = unpack_lanes(word, mode).collect();
        prop_assert_eq!(pack_lanes(&lanes, mode).expect("unpacked lanes fit"), word);
    }

    /// Radix-4 Booth digits always reconstruct the operand.
    #[test]
    fn booth_digits_reconstruct(y in i32::from(i16::MIN)..=i32::from(i16::MAX)) {
        prop_assert_eq!(digits_value(&booth_digits(y, 16)), i64::from(y));
    }

    /// Booth digits stay within the radix-4 digit set.
    #[test]
    fn booth_digits_in_range(y in i32::from(i16::MIN)..=i32::from(i16::MAX)) {
        for d in booth_digits(y, 16) {
            prop_assert!((-2..=2).contains(&d.value));
        }
    }

    /// The DAS multiplier is exactly the exact multiplier applied to
    /// quantized operands, at every precision.
    #[test]
    fn das_is_exact_on_quantized_operands(
        x in i32::from(i16::MIN)..=i32::from(i16::MAX),
        y in i32::from(i16::MIN)..=i32::from(i16::MAX),
        bits in 1u32..=16,
    ) {
        let mut m = DasMultiplier::new(RoundingMode::Truncate);
        m.set_precision(Precision::new(bits).expect("valid"));
        let q = *m.quantizer();
        prop_assert_eq!(m.mul(x, y), i64::from(q.quantize(x)) * i64::from(q.quantize(y)));
    }

    /// Quantization is idempotent and its error is bounded.
    #[test]
    fn quantizer_idempotent_and_bounded(
        x in i32::from(i16::MIN)..=i32::from(i16::MAX),
        bits in 1u32..=16,
        round in any::<bool>(),
    ) {
        let mode = if round { RoundingMode::RoundNearest } else { RoundingMode::Truncate };
        let q = Quantizer::new(Precision::new(bits).expect("valid"), mode);
        let once = q.quantize(x);
        prop_assert_eq!(q.quantize(once), once, "idempotence");
        prop_assert!((i64::from(x) - i64::from(once)).unsigned_abs() <= q.max_error() as u64);
    }

    /// Truncated-multiplier error is bounded by the dropped-column mass.
    #[test]
    fn truncated_error_bound(a in any::<u16>(), b in any::<u16>(), t in 0u32..24) {
        let m = TruncatedMultiplier::new(t);
        let exact = u64::from(a) * u64::from(b);
        let approx = m.mul(a, b);
        // Dropped bits sum to at most sum_{c<t} cells(c) * 2^c, plus the
        // compensation constant 2^(t-1).
        let bound: u64 = (0..t.min(31))
            .map(|c| u64::from(column_cells(c)) << c)
            .sum::<u64>()
            + if t == 0 { 0 } else { 1u64 << (t - 1) };
        let err = approx.abs_diff(exact);
        prop_assert!(err <= bound, "err {} > bound {}", err, bound);
    }

    /// The Kulkarni multiplier never overestimates (its block only loses
    /// magnitude) and is exact when no 2-bit digit pair is (3, 3).
    #[test]
    fn kulkarni_underestimates(a in any::<u16>(), b in any::<u16>()) {
        let m = KulkarniMultiplier::new();
        prop_assert!(m.mul(a, b) <= u64::from(a) * u64::from(b));
    }

    /// Toggle counts are zero whenever the stimulus does not change.
    #[test]
    fn constant_stimulus_never_toggles(a in any::<u16>(), b in any::<u16>(), mode in mode_strategy()) {
        let m = DvafsMultiplier::new();
        let mut sim = Simulator::new(m.build_netlist());
        for _ in 0..3 {
            sim.eval(&DvafsMultiplier::stimulus(a, b, mode)).expect("fits");
        }
        prop_assert_eq!(sim.stats().toggles, 0);
    }
}
