//! Deterministic fault injection: scheduled fault episodes layered on top
//! of the link models.
//!
//! A [`FaultPlan`] is a list of [`FaultEpisode`]s, each active over a
//! half-open simulated-time window `[from, until)`. Trainers consult the
//! plan at event time — the plan itself holds no mutable state, so the
//! same plan plus the same seed reproduces the same run bit-for-bit.
//!
//! The fault kinds cover the failure modes a geo-distributed split
//! deployment sees in practice: total link outages, loss-rate surges,
//! latency spikes with jitter, end-system crash→recover windows, server
//! stalls, payload corruption, membership churn (join/leave/rejoin), and
//! Byzantine adversary personas ([`AttackSpec`]) that poison update
//! *content* while staying protocol-valid.

use crate::{EndSystemId, Link, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use stsl_tensor::init::{derive_seed, rng_from_seed};

/// What goes wrong during an episode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Every transfer on the client's link fails.
    LinkOutage {
        /// Affected end-system.
        client: EndSystemId,
    },
    /// The client's link loses packets at (at least) the given rate,
    /// compounded with the link's base loss.
    LossSurge {
        /// Affected end-system.
        client: EndSystemId,
        /// Additional loss probability in `[0, 1)`.
        loss: f64,
    },
    /// Transfers on the client's link take extra time.
    LatencySpike {
        /// Affected end-system.
        client: EndSystemId,
        /// Added latency in milliseconds.
        extra_ms: f64,
        /// Uniform jitter amplitude in milliseconds (each transfer adds
        /// `U[0, jitter_ms)` on top of `extra_ms`).
        jitter_ms: f64,
    },
    /// The end-system crashes at `from` and recovers at `until`.
    ClientCrash {
        /// Affected end-system.
        client: EndSystemId,
    },
    /// The server processes nothing during the window.
    ServerStall,
    /// Each transfer on the client's link is delivered, but its payload is
    /// garbled with probability `rate` (random bit flips or truncation —
    /// see [`corrupt_payload`]). Unlike [`FaultKind::LossSurge`] the bytes
    /// still arrive; whether the receiver notices is up to the protocol's
    /// integrity checks.
    PayloadCorruption {
        /// Affected end-system.
        client: EndSystemId,
        /// Per-transfer corruption probability in `(0, 1]`.
        rate: f64,
    },
    /// The end-system joins the fleet at `from`. Before that instant it is
    /// dormant (declared in the config but not yet participating); membership
    /// admits it mid-training with a server-seeded warm start.
    ClientJoin {
        /// Joining end-system.
        client: EndSystemId,
    },
    /// The end-system departs the fleet at `from` (a deliberate leave, not
    /// a crash: its outstanding work is abandoned and it stops producing
    /// batches until a matching [`FaultKind::ClientRejoin`], if any).
    ClientLeave {
        /// Departing end-system.
        client: EndSystemId,
    },
    /// A departed end-system rejoins at `from`, resyncing from its last
    /// acked batch.
    ClientRejoin {
        /// Rejoining end-system.
        client: EndSystemId,
    },
    /// The end-system behaves Byzantinely while the episode is active: it
    /// follows the protocol (valid frames, finite values, plausible norms)
    /// but perturbs the *content* of every activation batch it sends
    /// according to [`AttackSpec`]. Unlike [`FaultKind::PayloadCorruption`]
    /// nothing on the wire is damaged — the poison is semantic, so only
    /// statistical defenses at the aggregation point can catch it.
    Adversary {
        /// Attacking end-system.
        client: EndSystemId,
        /// How it perturbs its updates.
        attack: AttackSpec,
    },
}

/// How a Byzantine end-system perturbs the activation batches it sends
/// (see [`FaultKind::Adversary`]). All perturbations keep values finite
/// and frames wire-valid — they are crafted to sail past CRC and
/// plausibility checks and must be caught statistically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackSpec {
    /// Sends `-gain × activations`: the classic gradient-reversal attack
    /// that pushes the shared model away from the descent direction.
    SignFlip {
        /// Magnitude multiplier (applied together with the sign flip).
        gain: f64,
    },
    /// Sends `factor × activations`: a boosting attacker that inflates its
    /// own influence on the aggregate.
    Scale {
        /// Magnitude multiplier, `> 1` to boost.
        factor: f64,
    },
    /// Adds zero-mean Gaussian noise whose amplitude grows as
    /// `sigma × √k` over the attacker's `k`-th poisoned batch — a slow
    /// drift engineered to stay under per-batch plausibility thresholds.
    GaussianDrift {
        /// Base noise amplitude.
        sigma: f64,
    },
    /// Replaces the activations with `gain ×` a pseudorandom direction
    /// derived from `(clique, batch)` — every member of the same clique
    /// sends the *same* malicious direction for the same batch index, so
    /// colluders corroborate each other against distance-based defenses.
    Collude {
        /// Clique identifier; members sharing it coordinate.
        clique: u64,
        /// Magnitude multiplier of the shared direction.
        gain: f64,
    },
}

impl FaultKind {
    /// The end-system this fault targets, if it is client-scoped.
    pub fn client(&self) -> Option<EndSystemId> {
        match *self {
            FaultKind::LinkOutage { client }
            | FaultKind::LossSurge { client, .. }
            | FaultKind::LatencySpike { client, .. }
            | FaultKind::ClientCrash { client }
            | FaultKind::PayloadCorruption { client, .. }
            | FaultKind::ClientJoin { client }
            | FaultKind::ClientLeave { client }
            | FaultKind::ClientRejoin { client }
            | FaultKind::Adversary { client, .. } => Some(client),
            FaultKind::ServerStall => None,
        }
    }
}

/// One scheduled fault, active over `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEpisode {
    /// What goes wrong.
    pub kind: FaultKind,
    /// When it starts (inclusive).
    pub from: SimTime,
    /// When it ends (exclusive).
    pub until: SimTime,
}

impl FaultEpisode {
    /// Creates an episode, validating the window.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`, or on out-of-range fault parameters.
    pub fn new(kind: FaultKind, from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "fault episode window must be non-empty");
        if let FaultKind::LossSurge { loss, .. } = kind {
            assert!((0.0..1.0).contains(&loss), "surge loss must be in [0, 1)");
        }
        if let FaultKind::LatencySpike {
            extra_ms,
            jitter_ms,
            ..
        } = kind
        {
            assert!(
                extra_ms >= 0.0 && jitter_ms >= 0.0,
                "latency spike must be non-negative"
            );
        }
        if let FaultKind::PayloadCorruption { rate, .. } = kind {
            assert!(
                rate > 0.0 && rate <= 1.0,
                "corruption rate must be in (0, 1]"
            );
        }
        if let FaultKind::Adversary { attack, .. } = kind {
            let magnitude = match attack {
                AttackSpec::SignFlip { gain } => gain,
                AttackSpec::Scale { factor } => factor,
                AttackSpec::GaussianDrift { sigma } => sigma,
                AttackSpec::Collude { gain, .. } => gain,
            };
            assert!(
                magnitude.is_finite() && magnitude > 0.0,
                "attack magnitude must be finite and positive"
            );
        }
        FaultEpisode { kind, from, until }
    }

    /// Whether the episode is active at `at`.
    pub fn active_at(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }
}

/// A deterministic schedule of fault episodes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    episodes: Vec<FaultEpisode>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an episode (builder style).
    pub fn with(mut self, episode: FaultEpisode) -> Self {
        self.episodes.push(episode);
        self
    }

    /// Adds a link outage on `client` over `[from, until)`.
    pub fn link_outage(self, client: EndSystemId, from: SimTime, until: SimTime) -> Self {
        self.with(FaultEpisode::new(
            FaultKind::LinkOutage { client },
            from,
            until,
        ))
    }

    /// Adds a loss surge on `client` over `[from, until)`.
    pub fn loss_surge(self, client: EndSystemId, loss: f64, from: SimTime, until: SimTime) -> Self {
        self.with(FaultEpisode::new(
            FaultKind::LossSurge { client, loss },
            from,
            until,
        ))
    }

    /// Adds a latency spike on `client` over `[from, until)`.
    pub fn latency_spike(
        self,
        client: EndSystemId,
        extra_ms: f64,
        jitter_ms: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.with(FaultEpisode::new(
            FaultKind::LatencySpike {
                client,
                extra_ms,
                jitter_ms,
            },
            from,
            until,
        ))
    }

    /// Adds a crash→recover window for `client`.
    pub fn client_crash(self, client: EndSystemId, from: SimTime, until: SimTime) -> Self {
        self.with(FaultEpisode::new(
            FaultKind::ClientCrash { client },
            from,
            until,
        ))
    }

    /// Adds a server stall over `[from, until)`.
    pub fn server_stall(self, from: SimTime, until: SimTime) -> Self {
        self.with(FaultEpisode::new(FaultKind::ServerStall, from, until))
    }

    /// Adds a payload-corruption episode on `client` over `[from, until)`.
    pub fn payload_corruption(
        self,
        client: EndSystemId,
        rate: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.with(FaultEpisode::new(
            FaultKind::PayloadCorruption { client, rate },
            from,
            until,
        ))
    }

    /// Adds a mid-training join for `client` at `at`. Churn transitions
    /// are instants, modeled as minimum-width episodes so they share the
    /// episode machinery.
    pub fn client_join(self, client: EndSystemId, at: SimTime) -> Self {
        self.with(FaultEpisode::new(
            FaultKind::ClientJoin { client },
            at,
            at + SimDuration::from_micros(1),
        ))
    }

    /// Adds a deliberate departure for `client` at `at`.
    pub fn client_leave(self, client: EndSystemId, at: SimTime) -> Self {
        self.with(FaultEpisode::new(
            FaultKind::ClientLeave { client },
            at,
            at + SimDuration::from_micros(1),
        ))
    }

    /// Adds a rejoin for a previously departed `client` at `at`.
    pub fn client_rejoin(self, client: EndSystemId, at: SimTime) -> Self {
        self.with(FaultEpisode::new(
            FaultKind::ClientRejoin { client },
            at,
            at + SimDuration::from_micros(1),
        ))
    }

    /// Adds an adversarial persona on `client` over `[from, until)`: while
    /// active, every activation batch the client produces is perturbed per
    /// `attack` before it hits the wire. Attack-free clients (and windows)
    /// consume no attack randomness, so an attack-free plan reproduces the
    /// exact event stream of a plan-free run — the same discipline as
    /// [`FaultPlan::payload_corruption`].
    pub fn adversary(
        self,
        client: EndSystemId,
        attack: AttackSpec,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.with(FaultEpisode::new(
            FaultKind::Adversary { client, attack },
            from,
            until,
        ))
    }

    /// Gives each of the first `attackers` end-systems the same adversarial
    /// persona over `[from, until)` — the poison-sweep benchmark's
    /// fixed-fraction attacker cohort.
    pub fn adversaries(
        mut self,
        attackers: usize,
        attack: AttackSpec,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        for i in 0..attackers {
            self = self.adversary(EndSystemId(i), attack, from, until);
        }
        self
    }

    /// Adds the same payload-corruption episode to every one of `clients`
    /// links — the corruption-sweep benchmark's uniform-noise scenario.
    pub fn payload_corruption_all(
        mut self,
        clients: usize,
        rate: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        for i in 0..clients {
            self = self.payload_corruption(EndSystemId(i), rate, from, until);
        }
        self
    }

    /// Generates a random but fully seed-determined plan over `[0,
    /// horizon)` for `clients` end-systems. `intensity` in `[0, 1]` scales
    /// how many episodes each client receives: at `0.0` the plan is empty,
    /// at `1.0` every client gets roughly one episode of every kind.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]` or `horizon` is zero.
    pub fn random(clients: usize, horizon: SimDuration, seed: u64, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "intensity must be in [0, 1]"
        );
        assert!(horizon > SimDuration::ZERO, "horizon must be positive");
        // Stream 1 of the caller's seed: `random` and `churn` fed the
        // same parent seed must not alias the same RNG stream.
        let mut rng = rng_from_seed(derive_seed(seed, 1));
        let mut plan = FaultPlan::new();
        let h = horizon.as_micros();
        // Episodes last 5–20 % of the horizon.
        let window = |rng: &mut StdRng| {
            let len = rng.gen_range(h / 20..=h / 5).max(1);
            let start = rng.gen_range(0..h.saturating_sub(len).max(1));
            (
                SimTime::from_micros(start),
                SimTime::from_micros(start + len),
            )
        };
        for i in 0..clients {
            let client = EndSystemId(i);
            if rng.gen_bool(intensity) {
                let (from, until) = window(&mut rng);
                let loss = rng.gen_range(0.05..0.5);
                plan = plan.loss_surge(client, loss, from, until);
            }
            if rng.gen_bool(intensity * 0.8) {
                let (from, until) = window(&mut rng);
                let extra = rng.gen_range(20.0..200.0);
                let jitter = rng.gen_range(0.0..extra);
                plan = plan.latency_spike(client, extra, jitter, from, until);
            }
            if rng.gen_bool(intensity * 0.5) {
                let (from, until) = window(&mut rng);
                plan = plan.link_outage(client, from, until);
            }
            if rng.gen_bool(intensity * 0.5) {
                let (from, until) = window(&mut rng);
                plan = plan.client_crash(client, from, until);
            }
        }
        if rng.gen_bool(intensity * 0.5) {
            let (from, until) = window(&mut rng);
            plan = plan.server_stall(from, until);
        }
        plan
    }

    /// Generates a seeded churn arrival process over `[0, horizon)`.
    ///
    /// `members` end-systems (ids `0..members`) start active; each leaves
    /// with probability `turnover` at a time uniform in the middle of the
    /// horizon, and a leaver rejoins after a uniform gap when that still
    /// lands inside the horizon. `joiners` additional end-systems (ids
    /// `members..members + joiners`) start dormant and join in the first
    /// half of the horizon. Same seed, same plan, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `turnover` is outside `[0, 1]` or `horizon` is zero.
    pub fn churn(
        members: usize,
        joiners: usize,
        horizon: SimDuration,
        seed: u64,
        turnover: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&turnover),
            "turnover must be in [0, 1]"
        );
        assert!(horizon > SimDuration::ZERO, "horizon must be positive");
        // Stream 2: see `random`.
        let mut rng = rng_from_seed(derive_seed(seed, 2));
        let mut plan = FaultPlan::new();
        let h = horizon.as_micros().max(10);
        for i in 0..members {
            let client = EndSystemId(i);
            if rng.gen_bool(turnover) {
                let leave = rng.gen_range(h / 5..4 * h / 5);
                plan = plan.client_leave(client, SimTime::from_micros(leave));
                let gap = rng.gen_range(h / 20..h / 5).max(2);
                let back = leave.saturating_add(gap);
                if back < h {
                    plan = plan.client_rejoin(client, SimTime::from_micros(back));
                }
            }
        }
        for j in 0..joiners {
            let client = EndSystemId(members + j);
            let at = rng.gen_range(h / 10..h / 2);
            plan = plan.client_join(client, SimTime::from_micros(at));
        }
        plan
    }

    /// All scheduled joins as `(client, at)`, ascending by `(at, client)`.
    pub fn join_events(&self) -> Vec<(EndSystemId, SimTime)> {
        self.churn_events(|k| matches!(k, FaultKind::ClientJoin { .. }))
    }

    /// All scheduled departures as `(client, at)`, ascending by
    /// `(at, client)`.
    pub fn leave_events(&self) -> Vec<(EndSystemId, SimTime)> {
        self.churn_events(|k| matches!(k, FaultKind::ClientLeave { .. }))
    }

    /// All scheduled rejoins as `(client, at)`, ascending by
    /// `(at, client)`.
    pub fn rejoin_events(&self) -> Vec<(EndSystemId, SimTime)> {
        self.churn_events(|k| matches!(k, FaultKind::ClientRejoin { .. }))
    }

    fn churn_events(&self, select: impl Fn(&FaultKind) -> bool) -> Vec<(EndSystemId, SimTime)> {
        let mut out: Vec<(EndSystemId, SimTime)> = self
            .episodes
            .iter()
            .filter(|e| select(&e.kind))
            .filter_map(|e| e.kind.client().map(|c| (c, e.from)))
            .collect();
        out.sort_by_key(|&(c, at)| (at, c.0));
        out
    }

    /// All episodes, in insertion order.
    pub fn episodes(&self) -> &[FaultEpisode] {
        &self.episodes
    }

    /// Number of episodes.
    pub fn len(&self) -> usize {
        self.episodes.len()
    }

    /// Whether the plan has no episodes.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// The end of the last episode (time after which no fault is active).
    pub fn horizon(&self) -> SimTime {
        self.episodes
            .iter()
            .map(|e| e.until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether `client`'s link is fully down at `at`.
    pub fn link_down(&self, client: EndSystemId, at: SimTime) -> bool {
        self.episodes.iter().any(|e| {
            e.active_at(at) && matches!(e.kind, FaultKind::LinkOutage { client: c } if c == client)
        })
    }

    /// Additional loss probability on `client`'s link at `at` (compounded
    /// over concurrent surges).
    pub fn surge_loss(&self, client: EndSystemId, at: SimTime) -> f64 {
        let mut pass = 1.0;
        for e in &self.episodes {
            if let FaultKind::LossSurge { client: c, loss } = e.kind {
                if c == client && e.active_at(at) {
                    pass *= 1.0 - loss;
                }
            }
        }
        1.0 - pass
    }

    /// Probability that a transfer on `client`'s link at `at` is delivered
    /// with a garbled payload (compounded over concurrent corruption
    /// episodes, like [`FaultPlan::surge_loss`]).
    pub fn corruption_rate(&self, client: EndSystemId, at: SimTime) -> f64 {
        let mut pass = 1.0;
        for e in &self.episodes {
            if let FaultKind::PayloadCorruption { client: c, rate } = e.kind {
                if c == client && e.active_at(at) {
                    pass *= 1.0 - rate;
                }
            }
        }
        1.0 - pass
    }

    /// The adversarial persona active on `client` at `at`, if any. With
    /// overlapping episodes the earliest-inserted one wins — personas do
    /// not compound the way loss or corruption rates do, because two
    /// simultaneous content perturbations have no physical analogue.
    pub fn attack(&self, client: EndSystemId, at: SimTime) -> Option<AttackSpec> {
        self.episodes.iter().find_map(|e| match e.kind {
            FaultKind::Adversary { client: c, attack } if c == client && e.active_at(at) => {
                Some(attack)
            }
            _ => None,
        })
    }

    /// Whether `client` is crashed at `at`.
    pub fn client_crashed(&self, client: EndSystemId, at: SimTime) -> bool {
        self.episodes.iter().any(|e| {
            e.active_at(at) && matches!(e.kind, FaultKind::ClientCrash { client: c } if c == client)
        })
    }

    /// All crash windows, as `(client, from, until)` triples.
    pub fn crash_windows(&self) -> Vec<(EndSystemId, SimTime, SimTime)> {
        self.episodes
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::ClientCrash { client } => Some((client, e.from, e.until)),
                _ => None,
            })
            .collect()
    }

    /// When the server stall covering `at` ends (the latest `until` among
    /// overlapping stall episodes), if any.
    pub fn server_stall_end(&self, at: SimTime) -> Option<SimTime> {
        self.episodes
            .iter()
            .filter(|e| e.active_at(at) && matches!(e.kind, FaultKind::ServerStall))
            .map(|e| e.until)
            .max()
    }

    /// Samples a transfer on `client`'s link at `at` with all active
    /// faults applied: `None` when the link is down or the (compounded)
    /// loss fires, otherwise the base transfer time plus any latency-spike
    /// penalty.
    pub fn transfer_through(
        &self,
        link: &Link,
        client: EndSystemId,
        bytes: usize,
        at: SimTime,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        if self.link_down(client, at) {
            return None;
        }
        let surge = self.surge_loss(client, at);
        let mut faulted = *link;
        if surge > 0.0 {
            faulted.loss = 1.0 - (1.0 - faulted.loss) * (1.0 - surge);
        }
        let base = faulted.transfer(bytes, rng)?;
        // Summed via the sanctioned seam, in episode order with each
        // episode contributing its base spike then its jitter draw —
        // the same addend sequence as the old accumulation loop.
        let extra_ms = stsl_tensor::sum_f64(self.episodes.iter().flat_map(|e| {
            let mut parts = [None, None];
            if let FaultKind::LatencySpike {
                client: c,
                extra_ms: ms,
                jitter_ms,
            } = e.kind
            {
                if c == client && e.active_at(at) {
                    parts[0] = Some(ms);
                    if jitter_ms > 0.0 {
                        parts[1] = Some(rng.gen_range(0.0..jitter_ms));
                    }
                }
            }
            parts.into_iter().flatten()
        }));
        Some(base + SimDuration::from_secs_f64(extra_ms / 1e3))
    }
}

/// Garbles a wire payload in place, deterministically given the RNG state:
/// with probability 1/4 the buffer is truncated at a random point,
/// otherwise 1–16 random bits are flipped. Models the two damage shapes a
/// WAN actually produces — partial delivery and in-flight bit errors.
///
/// Empty buffers are returned untouched (there is nothing to garble).
pub fn corrupt_payload(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    if bytes.is_empty() {
        return;
    }
    if rng.gen_bool(0.25) {
        let keep = rng.gen_range(0..bytes.len());
        bytes.truncate(keep);
    } else {
        let flips = rng.gen_range(1..=16usize);
        for _ in 0..flips {
            let idx = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u8);
            bytes[idx] ^= 1 << bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::new().link_outage(EndSystemId(0), t(10), t(20));
        assert!(!plan.link_down(EndSystemId(0), t(9)));
        assert!(plan.link_down(EndSystemId(0), t(10)));
        assert!(plan.link_down(EndSystemId(0), t(19)));
        assert!(!plan.link_down(EndSystemId(0), t(20)));
        assert!(!plan.link_down(EndSystemId(1), t(15)));
    }

    #[test]
    fn loss_surges_compound() {
        let plan = FaultPlan::new()
            .loss_surge(EndSystemId(0), 0.5, t(0), t(100))
            .loss_surge(EndSystemId(0), 0.5, t(50), t(100));
        assert!((plan.surge_loss(EndSystemId(0), t(10)) - 0.5).abs() < 1e-12);
        assert!((plan.surge_loss(EndSystemId(0), t(60)) - 0.75).abs() < 1e-12);
        assert_eq!(plan.surge_loss(EndSystemId(1), t(60)), 0.0);
    }

    #[test]
    fn outage_blocks_every_transfer() {
        let plan = FaultPlan::new().link_outage(EndSystemId(0), t(0), t(100));
        let link = Link::ideal();
        let mut rng = rng_from_seed(1);
        for _ in 0..20 {
            assert_eq!(
                plan.transfer_through(&link, EndSystemId(0), 100, t(5), &mut rng),
                None
            );
        }
        assert!(plan
            .transfer_through(&link, EndSystemId(0), 100, t(100), &mut rng)
            .is_some());
    }

    #[test]
    fn latency_spike_inflates_transfers() {
        let plan = FaultPlan::new().latency_spike(EndSystemId(0), 100.0, 0.0, t(0), t(100));
        let link = Link::wan(5.0, 100.0);
        let mut rng = rng_from_seed(2);
        let base = link.transfer(1000, &mut rng).unwrap();
        let spiked = plan
            .transfer_through(&link, EndSystemId(0), 1000, t(5), &mut rng)
            .unwrap();
        assert_eq!(spiked, base + SimDuration::from_millis(100));
        let after = plan
            .transfer_through(&link, EndSystemId(0), 1000, t(200), &mut rng)
            .unwrap();
        assert_eq!(after, base);
    }

    #[test]
    fn crash_windows_are_reported() {
        let plan = FaultPlan::new()
            .client_crash(EndSystemId(1), t(10), t(30))
            .server_stall(t(40), t(50));
        assert!(plan.client_crashed(EndSystemId(1), t(15)));
        assert!(!plan.client_crashed(EndSystemId(0), t(15)));
        assert_eq!(plan.crash_windows(), vec![(EndSystemId(1), t(10), t(30))]);
        assert_eq!(plan.server_stall_end(t(45)), Some(t(50)));
        assert_eq!(plan.server_stall_end(t(55)), None);
        assert_eq!(plan.horizon(), t(50));
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(4, SimDuration::from_millis(10_000), 9, 0.8);
        let b = FaultPlan::random(4, SimDuration::from_millis(10_000), 9, 0.8);
        let c = FaultPlan::random(4, SimDuration::from_millis(10_000), 10, 0.8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn zero_intensity_is_empty() {
        let plan = FaultPlan::random(8, SimDuration::from_millis(1000), 3, 0.0);
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn plans_serialize_roundtrip() {
        let plan = FaultPlan::new()
            .loss_surge(EndSystemId(0), 0.1, t(0), t(10))
            .client_crash(EndSystemId(1), t(5), t(15))
            .server_stall(t(1), t(2));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        FaultEpisode::new(FaultKind::ServerStall, t(5), t(5));
    }

    #[test]
    fn corruption_rate_compounds_and_scopes_to_client() {
        let plan = FaultPlan::new()
            .payload_corruption(EndSystemId(0), 0.5, t(0), t(100))
            .payload_corruption(EndSystemId(0), 0.5, t(50), t(100));
        assert!((plan.corruption_rate(EndSystemId(0), t(10)) - 0.5).abs() < 1e-12);
        assert!((plan.corruption_rate(EndSystemId(0), t(60)) - 0.75).abs() < 1e-12);
        assert_eq!(plan.corruption_rate(EndSystemId(0), t(100)), 0.0);
        assert_eq!(plan.corruption_rate(EndSystemId(1), t(60)), 0.0);
        assert_eq!(
            plan.episodes()[0].kind.client(),
            Some(EndSystemId(0)),
            "corruption faults are client-scoped"
        );
    }

    #[test]
    fn payload_corruption_all_covers_every_client() {
        let plan = FaultPlan::new().payload_corruption_all(3, 0.2, t(0), t(10));
        assert_eq!(plan.len(), 3);
        for i in 0..3 {
            assert!((plan.corruption_rate(EndSystemId(i), t(5)) - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "corruption rate")]
    fn zero_corruption_rate_rejected() {
        FaultPlan::new().payload_corruption(EndSystemId(0), 0.0, t(0), t(10));
    }

    #[test]
    fn churn_plans_are_seed_deterministic_and_ordered() {
        let a = FaultPlan::churn(5, 2, SimDuration::from_millis(10_000), 11, 0.5);
        let b = FaultPlan::churn(5, 2, SimDuration::from_millis(10_000), 11, 0.5);
        let c = FaultPlan::churn(5, 2, SimDuration::from_millis(10_000), 12, 0.5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.join_events().len(), 2, "every joiner gets a join event");
        for w in a.leave_events().windows(2) {
            assert!((w[0].1, w[0].0 .0) <= (w[1].1, w[1].0 .0));
        }
        // Every rejoin follows that client's leave.
        for (client, back) in a.rejoin_events() {
            let leave = a
                .leave_events()
                .into_iter()
                .find(|&(c, _)| c == client)
                .expect("rejoiner must have left");
            assert!(back > leave.1);
        }
    }

    #[test]
    fn zero_turnover_churn_only_joins() {
        let plan = FaultPlan::churn(4, 1, SimDuration::from_millis(1_000), 3, 0.0);
        assert!(plan.leave_events().is_empty());
        assert!(plan.rejoin_events().is_empty());
        assert_eq!(plan.join_events().len(), 1);
        assert_eq!(plan.join_events()[0].0, EndSystemId(4));
    }

    #[test]
    fn churn_builders_are_client_scoped_instants() {
        let plan = FaultPlan::new()
            .client_join(EndSystemId(2), t(10))
            .client_leave(EndSystemId(0), t(20))
            .client_rejoin(EndSystemId(0), t(30));
        assert_eq!(plan.join_events(), vec![(EndSystemId(2), t(10))]);
        assert_eq!(plan.leave_events(), vec![(EndSystemId(0), t(20))]);
        assert_eq!(plan.rejoin_events(), vec![(EndSystemId(0), t(30))]);
        for e in plan.episodes() {
            assert!(e.kind.client().is_some());
        }
        // Churn does not count as a crash or link fault.
        assert!(!plan.client_crashed(EndSystemId(0), t(20)));
        assert!(!plan.link_down(EndSystemId(0), t(20)));
        assert!(plan.crash_windows().is_empty());
    }

    #[test]
    fn adversary_windows_scope_to_client_and_time() {
        let plan = FaultPlan::new()
            .adversary(
                EndSystemId(0),
                AttackSpec::SignFlip { gain: 3.0 },
                t(10),
                t(20),
            )
            .adversary(
                EndSystemId(1),
                AttackSpec::Collude {
                    clique: 7,
                    gain: 2.0,
                },
                t(0),
                t(100),
            );
        assert_eq!(plan.attack(EndSystemId(0), t(9)), None);
        assert_eq!(
            plan.attack(EndSystemId(0), t(10)),
            Some(AttackSpec::SignFlip { gain: 3.0 })
        );
        assert_eq!(plan.attack(EndSystemId(0), t(20)), None);
        assert!(matches!(
            plan.attack(EndSystemId(1), t(50)),
            Some(AttackSpec::Collude { clique: 7, .. })
        ));
        assert_eq!(plan.attack(EndSystemId(2), t(50)), None);
        // Attacks are not link faults: transfers still flow.
        assert!(!plan.link_down(EndSystemId(0), t(15)));
        assert!(!plan.client_crashed(EndSystemId(0), t(15)));
        // Overlap resolution: earliest-inserted persona wins.
        let overlapped = plan.adversary(
            EndSystemId(1),
            AttackSpec::Scale { factor: 9.0 },
            t(0),
            t(100),
        );
        assert!(matches!(
            overlapped.attack(EndSystemId(1), t(50)),
            Some(AttackSpec::Collude { .. })
        ));
    }

    #[test]
    fn adversaries_covers_prefix_cohort() {
        let plan = FaultPlan::new().adversaries(3, AttackSpec::Scale { factor: 4.0 }, t(0), t(10));
        assert_eq!(plan.len(), 3);
        for i in 0..3 {
            assert!(plan.attack(EndSystemId(i), t(5)).is_some());
        }
        assert!(plan.attack(EndSystemId(3), t(5)).is_none());
        assert!(FaultPlan::new()
            .adversaries(0, AttackSpec::SignFlip { gain: 1.0 }, t(0), t(1))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "attack magnitude")]
    fn non_positive_attack_magnitude_rejected() {
        FaultPlan::new().adversary(
            EndSystemId(0),
            AttackSpec::GaussianDrift { sigma: 0.0 },
            t(0),
            t(10),
        );
    }

    #[test]
    fn adversary_plans_serialize_roundtrip() {
        let plan = FaultPlan::new()
            .adversary(
                EndSystemId(2),
                AttackSpec::GaussianDrift { sigma: 0.5 },
                t(1),
                t(9),
            )
            .adversaries(2, AttackSpec::SignFlip { gain: 2.0 }, t(0), t(4));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn corrupt_payload_is_deterministic_and_always_damages() {
        let original: Vec<u8> = (0u8..=255).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        corrupt_payload(&mut a, &mut rng_from_seed(7));
        corrupt_payload(&mut b, &mut rng_from_seed(7));
        assert_eq!(a, b, "same seed, same damage");

        // Over many draws both damage shapes occur, and nearly every draw
        // visibly changes the buffer (an even number of flips landing on
        // the same bit can cancel, so "always" is not guaranteed).
        let mut rng = rng_from_seed(1);
        let mut saw_truncation = false;
        let mut saw_flip = false;
        let mut damaged = 0;
        for _ in 0..100 {
            let mut buf = original.clone();
            corrupt_payload(&mut buf, &mut rng);
            if buf != original {
                damaged += 1;
            }
            if buf.len() < original.len() {
                saw_truncation = true;
            } else {
                saw_flip = true;
            }
        }
        assert!(saw_truncation && saw_flip);
        assert!(damaged >= 90, "only {damaged}/100 draws caused damage");

        let mut empty: Vec<u8> = Vec::new();
        corrupt_payload(&mut empty, &mut rng_from_seed(3));
        assert!(empty.is_empty());
    }
}
