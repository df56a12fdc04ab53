//! # lexicon — the synonym/abbreviation transformation library
//!
//! Implements the node-match relation φ of paper Definition 3 and the
//! transformation library of Table III. A query node `v` matches a graph
//! node `u` when their types (for target nodes) or names (for specific
//! nodes) are related by one of three cases:
//!
//! 1. **Identical** — exactly the same label,
//! 2. **Synonym** — e.g. `Car` for `Automobile`,
//! 3. **Abbreviation** — e.g. `GER` for `Germany`.
//!
//! The paper builds its library from BabelNet; BabelNet is an external
//! licensed resource, so this crate ships the same *interface* backed by an
//! explicit dictionary that callers (notably the `datagen` crate) populate
//! for their vocabulary.

pub mod library;
pub mod matcher;
pub mod normalize;

pub use library::{TransformKind, TransformationLibrary};
pub use matcher::NodeMatcher;
pub use normalize::normalize_label;
