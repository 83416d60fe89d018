//! The MosquitoNet test-bed and experiment harness.
//!
//! This crate rebuilds the paper's Figure 5 environment —
//! [`topology::build`] wires the home net (36.135), the department net
//! (36.8), the Metricom radio cell (36.134), the router/home agent, and
//! optional extras (Internet cloud, distant correspondent, a filtered
//! foreign site with two cells, foreign agents, DHCP service) — and then
//! drives the paper's measurements over it:
//!
//! * [`workload`] — the traffic generators the §4 experiments use (UDP
//!   echo streams with per-sequence loss accounting, bulk transfers, TCP
//!   sessions, registration storms).
//! * [`experiments`] — one runner per table/figure/claim (T1, F6, F7,
//!   C1–C7, A1–A3, S1–S3), each returning a serializable result, and
//!   [`experiments::REGISTRY`], the one roster of them.
//! * [`report`] — renderers that print each result in the paper's own
//!   format, annotated with the paper's numbers for comparison.
//! * [`calibrate`] — every calibrated constant, with its provenance.
//!
//! The `experiment` binary runs any registry entry by name with checked
//! `key=value` parameters; `experiment all` produces the whole of
//! `EXPERIMENTS.md` (and, with `json=FILE`, machine-readable results).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod experiments;
pub mod report;
pub mod topology;
pub mod workload;
