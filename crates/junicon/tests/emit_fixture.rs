//! Snapshot tests for the emitter.
//!
//! The paper's Fig. 5 shows the Java translation of
//! `def spawnMap (f, chunk) { suspend ! (|> f(!chunk)); }`.
//! Here that procedure and four more sources (`fixtures/sources.rs`) are
//! transpiled to Rust; each checked-in fixture is compared byte-for-byte
//! against the current emitter output, and the `emitted_exec` test compiles
//! and runs the very same fixtures. Regenerate with
//! `UPDATE_FIXTURES=1 cargo test -p junicon`.

#[path = "fixtures/sources.rs"]
mod sources;

use junicon::emit::emit_program_source;

fn check_fixture(src: &str, name: &str) {
    let path = format!(
        "{}/tests/fixtures/{name}_emitted.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = emit_program_source(src).unwrap();
    if std::env::var("UPDATE_FIXTURES").is_ok() {
        std::fs::write(&path, &want).unwrap();
    }
    let have = std::fs::read_to_string(&path)
        .expect("fixture missing — run UPDATE_FIXTURES=1 cargo test -p junicon");
    assert_eq!(
        have, want,
        "emitter output drifted from the checked-in fixture; \
         regenerate with UPDATE_FIXTURES=1 cargo test -p junicon"
    );
}

#[test]
fn spawnmap_fixture_is_current() {
    check_fixture(sources::SPAWNMAP_SRC, "spawnmap");
}

#[test]
fn countdown_fixture_is_current() {
    check_fixture(sources::COUNTDOWN_SRC, "countdown");
}

#[test]
fn prims_fixture_is_current() {
    check_fixture(sources::PRIMS_SRC, "prims");
}

#[test]
fn fig4_fixture_is_current() {
    check_fixture(sources::FIG4_SRC, "fig4");
}

#[test]
fn classes_fixture_is_current() {
    check_fixture(sources::CLASSES_SRC, "classes");
}
