//! Golden snapshot tests: the paper's figure data, serialized to JSON and
//! compared byte-for-byte against checked-in fixtures.
//!
//! The fixtures pin the *exact* floating-point values of Fig. 2, Fig. 3a,
//! Fig. 3b, Fig. 4, Table II and Table III (plus the Fig. 6 searches and
//! the layer-wise flow) at the default seed, so any change to the models,
//! the activity extraction, the Monte-Carlo chunking, the cycle-level
//! SIMD processor or the executor that moves a figure — even in the last
//! bit — fails loudly here instead of drifting silently.
//!
//! Since the scenario-registry refactor the JSON comes from the **generic
//! scenario serializer** (`dvafs::scenario::render`), invoked in-process —
//! the same path `dvafs run <id> --format json` serves — so these tests
//! also pin the CLI's machine-readable output.
//!
//! ## Regenerating
//!
//! After an *intentional* model change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_figures
//! git diff tests/golden/   # review the numeric drift, then commit it
//! ```
//!
//! Fixtures are written with shortest-roundtrip float formatting (see
//! `dvafs::report::json`), so a byte-level diff is a bit-level diff of the
//! computed values.

use dvafs::scenario::{self, Format, ScenarioCtx};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn assert_matches_golden(id: &str) {
    let s = scenario::find(id).expect("scenario registered");
    // Paper-scale configuration on a small worker pool: determinism makes
    // the thread count irrelevant to the bytes produced.
    let result = s.run(&ScenarioCtx::new().with_threads(2));
    let actual = scenario::render(s.label(), s.title(), &result, Format::Json);

    let path = fixture_path(id);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             regenerate with: UPDATE_GOLDEN=1 cargo test --test golden_figures",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{id} drifted from tests/golden/{id}.json — if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test \
         golden_figures and commit the diff"
    );
}

#[test]
fn fig2_matches_golden() {
    assert_matches_golden("fig2");
}

#[test]
fn fig3a_matches_golden() {
    assert_matches_golden("fig3a");
}

#[test]
fn fig3b_matches_golden() {
    // Paper-scale Monte-Carlo volume: the fixture pins the full stream.
    assert_matches_golden("fig3b");
}

#[test]
fn table3_matches_golden() {
    assert_matches_golden("table3");
}

#[test]
fn fig6_matches_golden() {
    // The LeNet-5/AlexNet precision search of Fig. 6. Like fig6_vgg, the
    // bytes pin the rescan oracle and the naive MAC kernel as well as the
    // shipping paths (see crates/nn/tests).
    assert_matches_golden("fig6");
}

#[test]
fn fig6_vgg_matches_golden() {
    // The VGG16-scale search the incremental strategy unlocks; the search
    // strategy never moves a number, so this fixture also pins the
    // rescan oracle (see the equivalence net in crates/nn).
    assert_matches_golden("fig6_vgg");
}

#[test]
fn cnn_layerwise_matches_golden() {
    // The Section IV/V end-to-end flow. Its calibration, search and
    // sparsity measurement all walk 16-sample chunks; the chunking never
    // moves a number (see crates/nn/tests/batch_equivalence.rs).
    assert_matches_golden("cnn_layerwise");
}

#[test]
fn fig4_matches_golden() {
    // Energy per word of every (kernel, regime, precision) cell of the
    // cycle-level SIMD processor: a function of the cycle count and of
    // every event count, so any simulator change that moves one shows.
    assert_matches_golden("fig4");
}

#[test]
fn table2_matches_golden() {
    // Rail voltages, domain shares and power of the simulated processor
    // at each precision and regime.
    assert_matches_golden("table2");
}
