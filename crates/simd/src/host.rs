//! The host's vector tier: the one place the workspace asks the CPU which
//! instructions it has (it builds for baseline x86-64).
//!
//! The tiers form a ladder, each with every feature of the ones below:
//! `scalar` (every host), `avx2` (`avx2`), `avx512` (`avx512f`,
//! `avx512bw`, `avx512dq`, `avx512vl` and `fma`) and `avx512-vnni`
//! (`avx512vnni`). The features are probed once per process, and a
//! [`Tier`] comes only from [`Tier::best`] or [`Tier::all`], so holding
//! one at or above a rung proves the host has that rung's features: each
//! safe wrapper over an `unsafe` x86 kernel takes a `Tier` and asserts
//! that it reaches the kernel's rung (the GEMM tiers decline instead, and
//! the next tier down runs). Production code runs [`Tier::best`]; a test
//! forces a lower tier by passing one of [`Tier::all`]. No option selects
//! a tier.

use std::sync::OnceLock;

/// A rung of the ladder, in ladder order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rung {
    Scalar,
    Avx2,
    Avx512,
    Vnni,
}

/// A vector tier this host runs (see the module docs).
///
/// Its field is private, so no code outside this module can make one:
///
/// ```compile_fail
/// use dvafs_simd::host::Tier;
///
/// // error[E0423]: cannot initialize a tuple struct which contains private fields
/// fn forged() -> Tier {
///     Tier(unimplemented!())
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier(Rung);

/// Every rung, in ladder order, with its name.
const LADDER: [(Tier, &str); 4] = [
    (Tier(Rung::Scalar), "scalar"),
    (Tier(Rung::Avx2), "avx2"),
    (Tier(Rung::Avx512), "avx512"),
    (Tier(Rung::Vnni), "avx512-vnni"),
];

impl Tier {
    /// The highest tier this host runs.
    #[must_use]
    pub fn best() -> Tier {
        *Tier::all().last().expect("every host runs scalar")
    }

    /// Every tier this host runs, `scalar` first and [`best`](Self::best)
    /// last.
    #[must_use]
    pub fn all() -> &'static [Tier] {
        static ALL: OnceLock<Vec<Tier>> = OnceLock::new();
        ALL.get_or_init(|| LADDER[..detect()].iter().map(|&(t, _)| t).collect())
    }

    /// Whether the host has `avx2`.
    #[must_use]
    pub fn has_avx2(self) -> bool {
        self.0 >= Rung::Avx2
    }

    /// Whether the host has every `avx512` feature (and `avx2`).
    #[must_use]
    pub fn has_avx512(self) -> bool {
        self.0 >= Rung::Avx512
    }

    /// Whether the host has `avx512vnni` (and every `avx512` feature).
    #[must_use]
    pub fn has_vnni(self) -> bool {
        self.0 >= Rung::Vnni
    }
}

/// The `host tiers: …` line the equivalence tests print after running
/// every tier of [`Tier::all`]: each rung, `ran` or `absent`.
#[must_use]
pub fn tiers_line() -> String {
    let ran = Tier::all().len();
    let rungs: Vec<String> = (0..)
        .zip(LADDER)
        .map(|(i, (_, name))| format!("{name} {}", if i < ran { "ran" } else { "absent" }))
        .collect();
    format!("host tiers: {}", rungs.join(", "))
}

/// How many rungs of the ladder the host runs: one past the highest whose
/// features, and those of every rung below it, it has.
fn detect() -> usize {
    #[cfg(target_arch = "x86_64")]
    let features = [
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("fma"),
        is_x86_feature_detected!("avx512vnni"),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let features: [bool; 0] = [];
    1 + features.iter().take_while(|&&has| has).count()
}
