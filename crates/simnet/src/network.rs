//! [`SimNetwork`]: topology + event queue + per-link randomness + traffic
//! counters.

use crate::{EndSystemId, EventLog, EventQueue, SimTime, StarTopology};
use rand::rngs::StdRng;
use stsl_telemetry::{EventKind, MetricId, TelemetryHub};
use stsl_tensor::init::rng_from_seed;

/// Direction of a transfer in the star topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// End-system → centralized server (smashed activations).
    Uplink,
    /// Server → end-system (cut-layer gradients).
    Downlink,
}

/// A message delivered by the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<T> {
    /// The end-system at the non-server end of the link.
    pub end_system: EndSystemId,
    /// Transfer direction.
    pub direction: Direction,
    /// Payload size used for the serialization-delay term.
    pub bytes: usize,
    /// Time the message was handed to the network.
    pub sent_at: SimTime,
    /// The payload.
    pub payload: T,
}

/// Byte and message counters for one direction of a link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounter {
    /// Messages delivered.
    pub messages: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Messages dropped by the link.
    pub dropped: u64,
}

impl TrafficCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        TrafficCounter::default()
    }

    /// Records a delivered message of `bytes`.
    pub fn record_delivery(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Records a dropped message.
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Delivery ratio in `[0, 1]`; 1.0 when nothing was sent.
    pub fn delivery_ratio(&self) -> f64 {
        let sent = self.messages + self.dropped;
        if sent == 0 {
            1.0
        } else {
            self.messages as f64 / sent as f64
        }
    }
}

/// A deterministic simulated star network carrying typed messages between
/// end-systems and the centralized server.
///
/// Drive it by calling [`SimNetwork::send`] with explicit send timestamps
/// and draining deliveries with [`SimNetwork::recv`]; deliveries come out
/// in arrival-time order with deterministic tie-breaking.
#[derive(Debug)]
pub struct SimNetwork<T> {
    topology: StarTopology,
    queue: EventQueue<Delivery<T>>,
    rngs: Vec<StdRng>,
    uplink: Vec<TrafficCounter>,
    downlink: Vec<TrafficCounter>,
    log: EventLog,
}

impl<T> SimNetwork<T> {
    /// Creates a network over `topology`; per-link randomness derives from
    /// `seed`.
    pub fn new(topology: StarTopology, seed: u64) -> Self {
        let n = topology.len();
        let rngs = (0..n)
            .map(|i| rng_from_seed(seed ^ (0x5851_F42D_4C95_7F2D_u64.wrapping_mul(i as u64 + 1))))
            .collect();
        SimNetwork {
            topology,
            queue: EventQueue::new(),
            rngs,
            uplink: vec![TrafficCounter::new(); n],
            downlink: vec![TrafficCounter::new(); n],
            log: EventLog::new(),
        }
    }

    /// Attaches a telemetry hub; every subsequent transfer records its
    /// delivery latency ([`MetricId::UplinkLatency`] /
    /// [`MetricId::DownlinkLatency`]) and every link-level loss is
    /// journaled as [`EventKind::NetworkDrop`].
    pub fn attach_telemetry(&mut self, hub: TelemetryHub) {
        self.log.attach_hub(hub);
    }

    /// The attached telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&TelemetryHub> {
        self.log.hub()
    }

    /// Detaches and returns the telemetry hub (e.g. to export after a
    /// run).
    pub fn take_telemetry(&mut self) -> Option<TelemetryHub> {
        self.log.take_hub()
    }

    /// The topology the network runs over.
    pub fn topology(&self) -> &StarTopology {
        &self.topology
    }

    /// Current simulated time (timestamp of the last delivery).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of in-flight messages.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Sends `payload` of `bytes` across end-system `id`'s link at
    /// simulated time `at`. Returns `true` if the message entered the
    /// network, `false` if the link dropped it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the topology.
    pub fn send(
        &mut self,
        id: EndSystemId,
        direction: Direction,
        bytes: usize,
        at: SimTime,
        payload: T,
    ) -> bool {
        let link = *self.topology.link(id);
        let rng = &mut self.rngs[id.0];
        let counter = match direction {
            Direction::Uplink => &mut self.uplink[id.0],
            Direction::Downlink => &mut self.downlink[id.0],
        };
        match link.transfer(bytes, rng) {
            None => {
                counter.record_drop();
                self.log.record(at, EventKind::NetworkDrop, id);
                false
            }
            Some(dur) => {
                counter.record_delivery(bytes);
                if let Some(hub) = self.log.hub_mut() {
                    let metric = match direction {
                        Direction::Uplink => MetricId::UplinkLatency,
                        Direction::Downlink => MetricId::DownlinkLatency,
                    };
                    hub.record(metric, id.0 as u64, dur.as_micros());
                }
                self.queue.schedule(
                    at + dur,
                    Delivery {
                        end_system: id,
                        direction,
                        bytes,
                        sent_at: at,
                        payload,
                    },
                );
                true
            }
        }
    }

    /// Pops the next delivery in arrival order, advancing the clock.
    pub fn recv(&mut self) -> Option<(SimTime, Delivery<T>)> {
        self.queue.pop()
    }

    /// Arrival time of the next pending delivery.
    pub fn peek_arrival(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Uplink traffic counter for end-system `id`.
    pub fn uplink_traffic(&self, id: EndSystemId) -> &TrafficCounter {
        &self.uplink[id.0]
    }

    /// Downlink traffic counter for end-system `id`.
    pub fn downlink_traffic(&self, id: EndSystemId) -> &TrafficCounter {
        &self.downlink[id.0]
    }

    /// Total bytes moved in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.uplink
            .iter()
            .chain(&self.downlink)
            .map(|c| c.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Link;

    fn net(latency_ms: &[f64]) -> SimNetwork<&'static str> {
        let links = latency_ms.iter().map(|&ms| Link::wan(ms, 1000.0)).collect();
        SimNetwork::new(StarTopology::new(links), 0)
    }

    #[test]
    fn deliveries_arrive_in_latency_order() {
        let mut n = net(&[50.0, 5.0]);
        let t0 = SimTime::ZERO;
        n.send(EndSystemId(0), Direction::Uplink, 0, t0, "slow");
        n.send(EndSystemId(1), Direction::Uplink, 0, t0, "fast");
        let (t1, d1) = n.recv().unwrap();
        let (t2, d2) = n.recv().unwrap();
        assert_eq!(d1.payload, "fast");
        assert_eq!(d2.payload, "slow");
        assert!(t1 < t2);
        assert_eq!(t1.as_micros(), 5_000);
        assert_eq!(t2.as_micros(), 50_000);
    }

    #[test]
    fn serialization_delay_applies() {
        // 1000 Mbps = 125e6 B/s; 125_000 B take 1 ms.
        let mut n = net(&[0.0]);
        n.send(
            EndSystemId(0),
            Direction::Uplink,
            125_000,
            SimTime::ZERO,
            "x",
        );
        let (t, _) = n.recv().unwrap();
        assert_eq!(t.as_micros(), 1_000);
    }

    #[test]
    fn counters_track_traffic() {
        let mut n = net(&[1.0, 1.0]);
        n.send(EndSystemId(0), Direction::Uplink, 10, SimTime::ZERO, "a");
        n.send(EndSystemId(0), Direction::Downlink, 20, SimTime::ZERO, "b");
        assert_eq!(n.uplink_traffic(EndSystemId(0)).bytes, 10);
        assert_eq!(n.downlink_traffic(EndSystemId(0)).bytes, 20);
        assert_eq!(n.uplink_traffic(EndSystemId(1)).messages, 0);
        assert_eq!(n.total_bytes(), 30);
    }

    #[test]
    fn lossy_link_reports_drop() {
        let links = vec![Link::ideal().loss(0.999999)];
        let mut n: SimNetwork<()> = SimNetwork::new(StarTopology::new(links), 1);
        let ok = n.send(EndSystemId(0), Direction::Uplink, 1, SimTime::ZERO, ());
        assert!(!ok);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.uplink_traffic(EndSystemId(0)).dropped, 1);
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let run = || {
            let top = StarTopology::latency_gradient(3, 1.0, 50.0, 100.0);
            let mut n: SimNetwork<usize> = SimNetwork::new(top, 42);
            for i in 0..30 {
                n.send(
                    EndSystemId(i % 3),
                    Direction::Uplink,
                    1000,
                    SimTime::ZERO,
                    i,
                );
            }
            let mut order = Vec::new();
            while let Some((t, d)) = n.recv() {
                order.push((t, d.payload));
            }
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn attached_telemetry_sees_latencies_and_drops() {
        let mut n = net(&[10.0, 2.0]);
        n.attach_telemetry(TelemetryHub::new(16));
        n.send(EndSystemId(0), Direction::Uplink, 0, SimTime::ZERO, "a");
        n.send(EndSystemId(1), Direction::Downlink, 0, SimTime::ZERO, "b");
        let hub = n.telemetry().unwrap();
        let up = hub
            .registry()
            .histogram(MetricId::UplinkLatency, 0)
            .unwrap();
        assert_eq!(up.count(), 1);
        assert_eq!(up.max(), Some(10_000));
        let down = hub
            .registry()
            .histogram(MetricId::DownlinkLatency, 1)
            .unwrap();
        assert_eq!(down.max(), Some(2_000));

        let links = vec![Link::ideal().loss(0.999999)];
        let mut lossy: SimNetwork<()> = SimNetwork::new(StarTopology::new(links), 1);
        lossy.attach_telemetry(TelemetryHub::new(16));
        lossy.send(EndSystemId(0), Direction::Uplink, 1, SimTime::ZERO, ());
        let hub = lossy.take_telemetry().unwrap();
        assert_eq!(hub.journal_log().count(EventKind::NetworkDrop), 1);
    }

    #[test]
    fn traffic_counter_ratios() {
        let mut c = TrafficCounter::new();
        assert_eq!(c.delivery_ratio(), 1.0);
        c.record_delivery(100);
        c.record_delivery(50);
        c.record_drop();
        assert_eq!(c.messages, 2);
        assert_eq!(c.bytes, 150);
        assert!((c.delivery_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn send_after_recv_uses_later_clock() {
        let mut n = net(&[10.0]);
        n.send(EndSystemId(0), Direction::Uplink, 0, SimTime::ZERO, "first");
        let (t1, _) = n.recv().unwrap();
        // Reply sent at the delivery time arrives one latency later.
        n.send(EndSystemId(0), Direction::Downlink, 0, t1, "reply");
        let (t2, d) = n.recv().unwrap();
        assert_eq!(d.direction, Direction::Downlink);
        assert_eq!(t2.as_micros(), 20_000);
    }
}
