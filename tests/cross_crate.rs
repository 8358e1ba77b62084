//! Cross-crate integration: the SIMD processor, the CNN substrate and the
//! arithmetic library agree with each other.

use dvafs_arith::multiplier::DvafsMultiplier;
use dvafs_arith::subword::{pack_lanes, unpack_lanes, SubwordMode};
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::models;
use dvafs_nn::network::QuantConfig;
use dvafs_simd::energy::SimdEnergyModel;
use dvafs_simd::kernels::ConvKernel;
use dvafs_simd::processor::{ProcConfig, Processor};
use dvafs_tech::scaling::ScalingMode;
use rand::{Rng, SeedableRng};

#[test]
fn simd_processor_outputs_bit_exact_across_all_configs() {
    // The cycle-level machine and the software reference must agree in
    // every regime x precision x width combination.
    let model = SimdEnergyModel::new();
    let kernel = ConvKernel::random(11, 512, 77);
    for sw in [4usize, 8] {
        for scaling in ScalingMode::ALL {
            for bits in [16u32, 12, 8, 4] {
                let cfg = ProcConfig::new(sw, scaling, bits).expect("valid");
                let r = Processor::with_model(cfg, model.clone())
                    .run_kernel(&kernel)
                    .expect("runs");
                assert!(
                    r.outputs_match(&kernel),
                    "sw={sw} {scaling:?} {bits}b mismatch"
                );
            }
        }
    }
}

#[test]
fn gate_level_and_behavioral_multipliers_agree_in_the_processor_modes() {
    // The SIMD lanes use behavioral subword MACs; the netlist is the
    // physical model. They must be the same function.
    let m = DvafsMultiplier::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for mode in SubwordMode::ALL {
        for _ in 0..20 {
            let a: u16 = rng.gen();
            let b: u16 = rng.gen();
            assert_eq!(
                m.mul_packed_via_netlist(a, b, mode),
                m.mul_packed(a, b, mode),
                "mode {mode}"
            );
        }
    }
}

#[test]
fn packing_roundtrips_through_the_whole_stack() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    for mode in SubwordMode::ALL {
        let w = mode.lane_bits();
        let lo = -(1i32 << (w - 1));
        let hi = (1i32 << (w - 1)) - 1;
        for _ in 0..50 {
            let lanes: Vec<i32> = (0..mode.lanes()).map(|_| rng.gen_range(lo..=hi)).collect();
            let word = pack_lanes(&lanes, mode).expect("in range");
            assert_eq!(unpack_lanes(word, mode).collect::<Vec<_>>(), lanes);
        }
    }
}

#[test]
fn quantized_lenet_matches_full_precision_on_most_inputs() {
    // 8-bit uniform quantization should barely perturb classification —
    // the observation that makes DVAFS useful for CNNs at all.
    let net = models::lenet5(123);
    let data = SyntheticDataset::digits(32, 321);
    let full = QuantConfig::uniform(net.layer_count(), 16, 16);
    let eight = QuantConfig::uniform(net.layer_count(), 8, 8);
    let acc = net.relative_accuracy(&data, &eight, &full);
    assert!(acc >= 0.9, "8-bit agreement only {acc}");
}

#[test]
fn energy_decreases_monotonically_down_the_dvafs_precision_ladder() {
    let model = SimdEnergyModel::new();
    let kernel = ConvKernel::random(9, 512, 88);
    let mut prev = f64::INFINITY;
    for bits in [16u32, 8, 4] {
        let cfg = ProcConfig::new(8, ScalingMode::Dvafs, bits).expect("valid");
        let e = Processor::with_model(cfg, model.clone())
            .run_kernel(&kernel)
            .expect("runs")
            .energy_per_word();
        assert!(e < prev, "{bits}b energy {e} >= previous {prev}");
        prev = e;
    }
}
