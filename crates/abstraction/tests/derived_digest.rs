//! The derived abstraction's digest is computed once, in `Derived::new`; it
//! must equal the digest of the content it binds. An integration test for
//! the same reason as `tests/boolprog.rs`: it needs `canvas_wp`'s `Derived`.

use canvas_abstraction::certificate::Digest;
use canvas_abstraction::derived_digest;

#[test]
fn derived_digest_matches_a_recomputation_from_the_content() {
    let spec = canvas_easl::builtin::cmp();
    let exact = canvas_wp::derive_abstraction(&spec).unwrap();
    let conservative = canvas_wp::derive_conservative(&spec, 1).unwrap();
    for derived in [&exact, &conservative] {
        let copy = derived.clone();
        let mut h = Digest::new();
        h.write_str(copy.spec_name());
        h.write_str(&format!("{:?}", copy.families()));
        h.write_str(&format!("{:?}", copy.stmt_abstractions()));
        assert_eq!(derived_digest(derived), h.finish());
        assert_eq!(derived_digest(&copy), h.finish());
    }
    assert_ne!(derived_digest(&exact), derived_digest(&conservative));
}
