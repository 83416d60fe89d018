//! Deterministic discrete-event simulation engine for MosquitoNet.
//!
//! The engine steps each world single-threaded: every experiment in the
//! paper ("Supporting Mobility in MosquitoNet", USENIX 1996) measures
//! *timing* — packet-loss windows, device bring-up latency, registration
//! round-trips — and a single-threaded virtual clock makes those
//! measurements exactly reproducible from a seed. A topology can also be
//! partitioned into shards, each owning its own [`Sim`], and the
//! [`shard`] module steps them under conservative time-window
//! synchronization, just as reproducibly.
//!
//! The central type is [`Sim`], which owns a user-supplied *world* (the
//! network state) together with a future-event queue. Events are boxed
//! closures receiving `&mut Sim<W>`, so handlers can inspect the world,
//! mutate it, and schedule further events.
//!
//! # Examples
//!
//! ```
//! use mosquitonet_sim::{Sim, SimTime, SimDuration};
//!
//! let mut sim = Sim::new(0u64); // the world here is just a counter
//! sim.schedule_in(SimDuration::from_millis(5), |sim| {
//!     *sim.world_mut() += 1;
//! });
//! sim.run();
//! assert_eq!(*sim.world(), 1);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod flightrec;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod rng;
pub mod shard;
mod stats;
mod time;
mod trace;

pub use engine::{EventId, Scheduler, Sim};
pub use flightrec::{
    Blackout, CapturedFrame, FlightDump, FlightRecorder, HopAction, HopEvent, Journey, Note,
    Outcome, NO_FLIGHT,
};
pub use json::{FromJson, Json};
pub use metrics::{
    Counter, HistogramSnapshot, LatencyHistogram, MetricValue, MetricsRegistry, MetricsScope,
    Snapshot,
};
pub use profile::Profiler;
pub use rng::{IdHashMap, IdHashSet, SimRng};
pub use shard::{run_sharded, shard_seed, ShardEnvelope, ShardWorld};
pub use stats::{Histogram, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{Line, Trace, TraceKind};
