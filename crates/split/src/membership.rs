//! Dynamic fleet membership: a per-client lifecycle state machine.
//!
//! The paper's end-systems are spatially scattered and come and go; the
//! trainer therefore tracks each declared end-system through an explicit
//! lifecycle — `Joining → Active → Suspect → Departed → Rejoining →
//! Active` — instead of freezing the fleet at construction. The registry
//! is pure bookkeeping (no clocks, no RNG): every transition is validated
//! against the legal edge set and the conservation law
//! `joined − departed = active + suspect` holds after every accepted
//! transition (the property suite checks both).
//!
//! Counter semantics: `joined` counts *admissions* — the initially active
//! fleet plus every `Joining → Active` and `Rejoining → Active` edge.
//! `departed` counts transitions into [`MembershipState::Departed`].
//! Suspicion (`Active ↔ Suspect`) moves a member between sub-states
//! without touching either counter, so the conservation law is invariant
//! under crash/recover noise.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Lifecycle state of one declared end-system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MembershipState {
    /// Declared in the config but dormant: it joins mid-training at its
    /// scheduled join event.
    Joining,
    /// A full member, producing batches.
    Active,
    /// A member that missed its liveness deadline (crashed or silent);
    /// still counted in the membership until it departs.
    Suspect,
    /// Left the fleet; produces nothing and is not a member.
    Departed,
    /// A departed end-system resyncing from its last acked batch before
    /// re-admission.
    Rejoining,
}

impl MembershipState {
    /// Stable snake_case label for logs and exports.
    pub fn as_str(self) -> &'static str {
        match self {
            MembershipState::Joining => "joining",
            MembershipState::Active => "active",
            MembershipState::Suspect => "suspect",
            MembershipState::Departed => "departed",
            MembershipState::Rejoining => "rejoining",
        }
    }
}

/// A rejected lifecycle transition: `from → to` is not a legal edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipError {
    /// The end-system whose transition was rejected.
    pub client: usize,
    /// Its current state.
    pub from: MembershipState,
    /// The requested (illegal) state.
    pub to: MembershipState,
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal membership transition for end-system {}: {} -> {}",
            self.client,
            self.from.as_str(),
            self.to.as_str()
        )
    }
}

impl std::error::Error for MembershipError {}

/// Typed terminal error: every member is dead or departed while training
/// work remains, so the run cannot make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumLost {
    /// Simulation time (microseconds) at which the quorum hit zero.
    pub at_us: u64,
    /// Total admissions up to that point.
    pub joined: u64,
    /// Total departures up to that point.
    pub departed: u64,
}

impl fmt::Display for QuorumLost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quorum lost at t={}us: no active member remains ({} joined, {} departed)",
            self.at_us, self.joined, self.departed
        )
    }
}

impl std::error::Error for QuorumLost {}

/// Whether `from → to` is a legal lifecycle edge.
fn legal(from: MembershipState, to: MembershipState) -> bool {
    use MembershipState::*;
    matches!(
        (from, to),
        (Joining, Active)
            | (Active, Suspect)
            | (Suspect, Active)
            | (Active, Departed)
            | (Suspect, Departed)
            | (Departed, Rejoining)
            | (Rejoining, Active)
    )
}

/// The fleet registry: one lifecycle state per declared end-system plus
/// the conservation counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    states: Vec<MembershipState>,
    joined: u64,
    departed: u64,
    rejoins: u64,
    suspicions: u64,
}

impl Membership {
    /// A fleet of `total` end-systems, all immediately active. Each
    /// initial member counts as one admission.
    pub fn new(total: usize) -> Self {
        Membership {
            states: vec![MembershipState::Active; total],
            joined: total as u64,
            departed: 0,
            rejoins: 0,
            suspicions: 0,
        }
    }

    /// Marks `client` as dormant ([`MembershipState::Joining`]) before the
    /// run starts, un-counting its initial admission. Builder-style, used
    /// for end-systems declared in the config whose join event lies in the
    /// future.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn dormant(mut self, client: usize) -> Self {
        // stsl-audit: allow(panic-reachability, reason = "builder precondition on config-declared client ids, checked before the run starts; a bad id is a config bug, not runtime input")
        assert!(client < self.states.len(), "dormant client out of range");
        if let Some(s) = self.states.get_mut(client) {
            if *s == MembershipState::Active {
                *s = MembershipState::Joining;
                self.joined -= 1;
            }
        }
        self
    }

    /// Number of declared end-systems (every lifecycle state).
    pub fn total(&self) -> usize {
        self.states.len()
    }

    /// Current state of `client`, or `None` when out of range.
    pub fn state(&self, client: usize) -> Option<MembershipState> {
        self.states.get(client).copied()
    }

    /// Whether `client` is an active member (the only state that produces
    /// and is served batches).
    pub fn is_active(&self, client: usize) -> bool {
        self.state(client) == Some(MembershipState::Active)
    }

    /// Requests the lifecycle edge `client → to`, updating the
    /// conservation counters on success. Illegal edges (and out-of-range
    /// clients) are rejected with a typed error and change nothing.
    pub fn transition(
        &mut self,
        client: usize,
        to: MembershipState,
    ) -> Result<(), MembershipError> {
        let from = self.state(client).ok_or(MembershipError {
            client,
            // An unknown id is reported as a Departed → to rejection: it
            // is not a member and cannot become one.
            from: MembershipState::Departed,
            to,
        })?;
        if !legal(from, to) {
            return Err(MembershipError { client, from, to });
        }
        if let Some(s) = self.states.get_mut(client) {
            *s = to;
        }
        match (from, to) {
            (MembershipState::Joining, MembershipState::Active) => self.joined += 1,
            (MembershipState::Rejoining, MembershipState::Active) => {
                self.joined += 1;
                self.rejoins += 1;
            }
            (MembershipState::Active, MembershipState::Suspect) => self.suspicions += 1,
            (_, MembershipState::Departed) => self.departed += 1,
            _ => {}
        }
        Ok(())
    }

    /// Active member count.
    pub fn active_count(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s == MembershipState::Active)
            .count()
    }

    /// Suspect member count.
    pub fn suspect_count(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s == MembershipState::Suspect)
            .count()
    }

    /// Membership size: active + suspect (what the `MembershipSize`
    /// telemetry metric samples).
    pub fn member_count(&self) -> usize {
        self.active_count() + self.suspect_count()
    }

    /// Total admissions (initial fleet + joins + re-admissions).
    pub fn joined(&self) -> u64 {
        self.joined
    }

    /// Total departures.
    pub fn departed(&self) -> u64 {
        self.departed
    }

    /// Total re-admissions (`Rejoining → Active` edges).
    pub fn rejoins(&self) -> u64 {
        self.rejoins
    }

    /// Total suspicions (`Active → Suspect` edges): members declared dead
    /// after falling silent.
    pub fn suspicions(&self) -> u64 {
        self.suspicions
    }

    /// The conservation law: `joined − departed = active + suspect`.
    /// Always true after any sequence of accepted transitions.
    pub fn conserves(&self) -> bool {
        self.joined - self.departed == self.member_count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_fleet_is_active_and_conserving() {
        let m = Membership::new(4);
        assert_eq!(m.total(), 4);
        assert_eq!(m.active_count(), 4);
        assert_eq!(m.joined(), 4);
        assert_eq!(m.departed(), 0);
        assert!(m.conserves());
    }

    #[test]
    fn dormant_members_are_not_admitted_until_join() {
        let mut m = Membership::new(3).dormant(2);
        assert_eq!(m.state(2), Some(MembershipState::Joining));
        assert_eq!(m.joined(), 2);
        assert!(m.conserves());
        m.transition(2, MembershipState::Active).unwrap();
        assert_eq!(m.joined(), 3);
        assert!(m.is_active(2));
        assert!(m.conserves());
    }

    #[test]
    fn full_lifecycle_round_trip() {
        let mut m = Membership::new(2);
        m.transition(0, MembershipState::Suspect).unwrap();
        assert_eq!(m.member_count(), 2, "suspects still count as members");
        assert_eq!(m.suspicions(), 1);
        m.transition(0, MembershipState::Active).unwrap();
        m.transition(0, MembershipState::Departed).unwrap();
        assert_eq!(m.member_count(), 1);
        assert_eq!(m.departed(), 1);
        m.transition(0, MembershipState::Rejoining).unwrap();
        assert_eq!(m.member_count(), 1, "rejoining is not yet a member");
        m.transition(0, MembershipState::Active).unwrap();
        assert_eq!(m.member_count(), 2);
        assert_eq!(m.rejoins(), 1);
        assert_eq!(m.joined(), 3, "re-admission is a new admission");
        assert!(m.conserves());
    }

    #[test]
    fn illegal_edges_are_rejected_and_change_nothing() {
        let mut m = Membership::new(2);
        let before = m.clone();
        for to in [
            MembershipState::Joining,
            MembershipState::Active,
            MembershipState::Rejoining,
        ] {
            let err = m.transition(0, to).unwrap_err();
            assert_eq!(err.client, 0);
            assert_eq!(err.from, MembershipState::Active);
            assert_eq!(err.to, to);
        }
        // Departed is terminal except via Rejoining.
        m.transition(1, MembershipState::Departed).unwrap();
        assert!(m.transition(1, MembershipState::Active).is_err());
        assert!(m.transition(1, MembershipState::Suspect).is_err());
        // Out-of-range ids are rejected, not a panic.
        assert!(m.transition(99, MembershipState::Active).is_err());
        assert_eq!(before.states[..1], m.states[..1]);
        assert!(m.conserves());
    }

    #[test]
    fn errors_render_readably() {
        let mut m = Membership::new(1);
        let err = m.transition(0, MembershipState::Joining).unwrap_err();
        assert_eq!(
            err.to_string(),
            "illegal membership transition for end-system 0: active -> joining"
        );
        let q = QuorumLost {
            at_us: 1_500,
            joined: 3,
            departed: 3,
        };
        assert!(q.to_string().contains("quorum lost at t=1500us"));
    }
}
