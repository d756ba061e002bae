//! A deterministic discrete-event network simulator for geo-distributed
//! split learning.
//!
//! The paper (§II) observes that with spatially separated end-systems,
//! "parameters from the end-system can arrive at the server lately or
//! sparsely", requiring an arrival queue and a scheduling policy. This
//! crate provides the machinery to *measure* that claim: simulated time,
//! a tie-stable event queue, link models (latency distribution + bandwidth
//! serialization + loss), geographic star topologies with
//! distance-derived latency, scheduled fault plans, and the one event
//! recorder every trainer reports through ([`EventLog`]: a counter bank,
//! an optional trace and optional telemetry, whose journal is a bounded
//! [`TraceLog`] of the same rows as the trace).
//!
//! Everything is deterministic given a seed; two runs produce identical
//! event orders.
//!
//! # Examples
//!
//! ```
//! use stsl_simnet::{EndSystemId, EventQueue, Link, SimTime, StarTopology};
//! use stsl_tensor::init::rng_from_seed;
//!
//! // Two hospitals: one nearby (5 ms), one across an ocean (80 ms).
//! let topology = StarTopology::new(vec![Link::wan(5.0, 100.0), Link::wan(80.0, 100.0)]);
//! let mut rng = rng_from_seed(7);
//! let mut arrivals = EventQueue::new();
//! for (id, site) in [(EndSystemId(0), "near"), (EndSystemId(1), "far")] {
//!     // Both sites send 1 KiB of activations at t = 0.
//!     let took = topology.link(id).transfer(1024, &mut rng).expect("lossless link");
//!     arrivals.schedule(SimTime::ZERO + took, site);
//! }
//! let (_, first) = arrivals.pop().unwrap();
//! assert_eq!(first, "near"); // the far site arrives late — the
//!                            // queueing problem the paper names
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod event;
mod fault;
mod link;
mod time;
mod topology;
mod trace;

pub use event::{EventQueue, QueueKind};
pub use fault::{corrupt_payload, AttackSpec, FaultEpisode, FaultKind, FaultPlan};
pub use link::{LatencyModel, Link};
pub use time::{SimDuration, SimTime};
pub use topology::{EndSystemId, GeoPoint, StarTopology};
pub use trace::{EventLog, Telemetry, TraceEvent, TraceLog};
