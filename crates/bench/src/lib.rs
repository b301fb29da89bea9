//! # tm-bench
//!
//! The SunSpider-style suite and its measurement harness: JTS ports of
//! the 26 programs the paper evaluates, one runner that turns a (program,
//! configuration) pair into a `bench/v2` [`record::Record`], and the
//! declarative perf gates the `bench` binary checks against
//! `BENCH_gates.json`. `bench report` regenerates Figures 10–12; the
//! `ablation` binary covers the design-choice studies. See
//! EXPERIMENTS.md for results.

pub mod gates;
pub mod record;
pub mod suite;

pub use suite::{by_name, BenchProgram, SIEVE, SUITE};
