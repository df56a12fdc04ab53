//! # baselines — re-implementations of the paper's comparator methods
//!
//! The paper's evaluation (Tables I–II, Figs. 12–14) compares SGQ/TBQ
//! against seven published systems. The originals are separate C++/Java
//! codebases; this crate re-implements each method's *decision procedure* at
//! the level the paper's Table II characterises them, so the comparative
//! results emerge from genuine behavioural differences rather than
//! hard-coding:
//!
//! | Method | Node similarity | Edge-to-path | Predicates | Main idea |
//! |--------|-----------------|--------------|------------|-----------|
//! | gStore | ✗ | ✗ | ✓ | graph isomorphism |
//! | SLQ    | ✓ | ✗ | ✗ | transformation library |
//! | NeMa   | ✓ | ✓ | ✗ | structural similarity |
//! | S4     | ✗ | ✓ | ✓ | structural pattern mining |
//! | p-hom  | ✓ | ✓ | ✗ | p-homomorphism |
//! | GraB   | ✗ | ✓ | ✗ | bounded matching scores |
//! | QGA    | ✓ | ✗ | ✓ | keyword-based query graph assembly |
//!
//! All methods answer through the same harness contract
//! ([`GraphQueryMethod`]): given a query graph and `k`, return ranked pivot
//! entities. Internally they share the [`common`] path-enumeration skeleton
//! parameterised by each method's node-matching mode and segment scorer.

pub mod common;
pub mod grab;
pub mod gstore;
pub mod nema;
pub mod phom;
pub mod qga;
pub mod s4;
pub mod slq;

pub use common::{Features, GraphQueryMethod, MethodAnswer};
pub use grab::GraB;
pub use gstore::GStore;
pub use nema::NeMa;
pub use phom::PHom;
pub use qga::Qga;
pub use s4::S4;
pub use slq::Slq;

/// All baselines with default settings, for sweep experiments.
pub fn all_baselines() -> Vec<Box<dyn GraphQueryMethod>> {
    vec![
        Box::new(GStore::new()),
        Box::new(Slq::new()),
        Box::new(NeMa::new(4)),
        Box::new(S4::new(4)),
        Box::new(PHom::new(4)),
        Box::new(GraB::new(4)),
        Box::new(Qga::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_matches_table2() {
        let expect = [
            ("gStore", false, false, true),
            ("SLQ", true, false, false),
            ("NeMa", true, true, false),
            ("S4", false, true, true),
            ("p-hom", true, true, false),
            ("GraB", false, true, false),
            ("QGA", true, false, true),
        ];
        let methods = all_baselines();
        assert_eq!(methods.len(), expect.len());
        for (m, (name, ns, e2p, preds)) in methods.iter().zip(expect) {
            let f = m.features();
            assert_eq!(m.name(), name);
            assert_eq!(f.node_similarity, ns, "{name} node similarity");
            assert_eq!(f.edge_to_path, e2p, "{name} edge-to-path");
            assert_eq!(f.predicates, preds, "{name} predicates");
        }
    }
}
