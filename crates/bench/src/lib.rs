//! # dps-bench — experiment harness and benchmarks
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper (driven by `dpscope analyze`); the Criterion benches under
//! `benches/` track the performance of the hot paths.

pub mod experiments;
