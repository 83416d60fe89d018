//! Shared by the golden suites: the one compare-against-a-pinned-file
//! helper.

/// Asserts `rendered` equals `tests/golden/{file}` byte for byte. With
/// `UPDATE_GOLDEN` set in the environment the file is (re)written first,
/// so a deliberate change is regenerated with
///
/// ```sh
/// UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test <suite>
/// ```
/// and reviewed as a diff like any other golden change.
pub fn assert_golden(file: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("update golden");
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "{file} drifted from the golden file; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}
