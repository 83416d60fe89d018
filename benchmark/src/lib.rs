//! The MosquitoNet repository benchmark.
//!
//! Four wall-clock workloads, four end-to-end metrics and 85 per-layer
//! metrics, measured from outside: the harness drives the simulator only
//! through public functions (all of them called from [`adapter`]) and
//! times the calls itself. `README.md` beside this package is the
//! reference: metric glossary, workload rationale, the layer→end-to-end
//! predictions, how to read a trace, and the known noise.
//!
//! Two binaries share this library. `mnbench` makes the untraced run that
//! the end-to-end metrics come from; `mnbench-traced` installs the
//! counting allocator, turns on the program's own profiler, records spans
//! and runs the probes.

#![warn(missing_docs)]

pub mod adapter;
pub mod alloc;
pub mod harness;
pub mod names;
pub mod probe;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod yardstick;
