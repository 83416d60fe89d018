//! The bodies of the **gated** micro-benchmarks, measured by the
//! `bench_gate` regression binary against `bench/baseline.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
