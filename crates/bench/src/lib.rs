//! # sgq-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's §VII evaluation over
//! the synthetic datasets ([`EXPERIMENTS`] is the index):
//!
//! ```text
//! cargo run -p bench --release --bin repro -- all
//! cargo run -p bench --release --bin repro -- table1 fig12 fig15 …
//! ```
//!
//! Serving performance is measured end to end by the separate
//! `semkg-bench` package (see the root `BENCHMARK.json`), which drives the
//! socket path and reports a per-layer breakdown.

pub mod experiments;
pub mod table;

pub use experiments::{run_experiment, EXPERIMENTS};
