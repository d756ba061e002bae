//! A deterministic discrete-event network simulator for geo-distributed
//! split learning.
//!
//! The paper (§II) observes that with spatially separated end-systems,
//! "parameters from the end-system can arrive at the server lately or
//! sparsely", requiring an arrival queue and a scheduling policy. This
//! crate provides the machinery to *measure* that claim: simulated time,
//! a tie-stable event queue, link models (latency distribution + bandwidth
//! serialization + loss), geographic star topologies with
//! distance-derived latency, traffic counters, and the one event
//! recorder every trainer reports through.
//!
//! Everything is deterministic given a seed; two runs produce identical
//! event orders.
//!
//! # Examples
//!
//! ```
//! use stsl_simnet::{SimNetwork, StarTopology, Link, EndSystemId, Direction, SimTime};
//!
//! // Two hospitals: one nearby (5 ms), one across an ocean (80 ms).
//! let topology = StarTopology::new(vec![Link::wan(5.0, 100.0), Link::wan(80.0, 100.0)]);
//! let mut net: SimNetwork<&str> = SimNetwork::new(topology, 7);
//! net.send(EndSystemId(0), Direction::Uplink, 1024, SimTime::ZERO, "near");
//! net.send(EndSystemId(1), Direction::Uplink, 1024, SimTime::ZERO, "far");
//! let (_, first) = net.recv().unwrap();
//! assert_eq!(first.payload, "near"); // the far site arrives late — the
//!                                    // queueing problem the paper names
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod event;
mod fault;
mod link;
mod network;
mod time;
mod topology;
mod trace;

pub use event::{with_queue_kind, EventQueue, QueueKind};
pub use fault::{corrupt_payload, AttackSpec, FaultEpisode, FaultKind, FaultPlan};
pub use link::{LatencyModel, Link};
pub use network::{Delivery, Direction, SimNetwork, TrafficCounter};
pub use time::{SimDuration, SimTime};
pub use topology::{EndSystemId, GeoPoint, StarTopology};
pub use trace::{EventLog, TraceEvent, TraceLog};
