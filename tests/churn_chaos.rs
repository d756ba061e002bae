//! Churn chaos integration tests: dynamic membership under crashes,
//! departures and rejoins; quorum loss as a typed error instead of a
//! hang; and property-based checks that the membership state machine
//! never admits an illegal transition and always conserves
//! `joined - departed = active + suspect`.

use proptest::prelude::*;
use spatio_temporal_split_learning::data::SyntheticCifar;
use spatio_temporal_split_learning::simnet::{
    EndSystemId, FaultPlan, Link, SimDuration, SimTime, StarTopology,
};
use spatio_temporal_split_learning::split::{
    AsyncSplitTrainer, ComputeModel, CutPoint, Membership, MembershipState, SchedulingPolicy,
    SplitConfig,
};
use spatio_temporal_split_learning::telemetry::EventKind;

fn data(n: usize, seed: u64) -> spatio_temporal_split_learning::data::ImageDataset {
    SyntheticCifar::new(seed)
        .difficulty(0.08)
        .generate_sized(n, 16)
}

fn ms(x: u64) -> SimTime {
    SimTime::from_millis(x)
}

/// A client that crashes, recovers, departs the fleet, and rejoins
/// mid-training must resume from its last acked batch and contribute to
/// the final model — end-to-end through checkpoint restore, membership
/// bookkeeping, and the rewind-based resync.
#[test]
fn crashed_departed_rejoined_client_still_contributes() {
    let train = data(48, 1);
    let test = data(24, 2);
    let topology = StarTopology::uniform(2, Link::wan(5.0, 100.0));
    let plan = FaultPlan::new()
        .client_crash(EndSystemId(0), ms(40), ms(80))
        .client_leave(EndSystemId(0), ms(150))
        .client_rejoin(EndSystemId(0), ms(400));
    let cfg = SplitConfig::tiny(CutPoint(1), 2)
        .epochs(3)
        .batch_size(8)
        .seed(7);
    let mut t = AsyncSplitTrainer::new(
        cfg,
        &train,
        topology,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .unwrap()
    .with_fault_plan(plan)
    .with_auto_checkpoint(SimDuration::from_millis(30));
    t.enable_trace();
    let r = t.run(&test);

    assert_eq!(r.crash_events, 1);
    assert_eq!(r.recovery_events, 1);
    assert_eq!(r.clients_departed, 1);
    assert_eq!(r.rejoins, 1);
    assert_eq!(r.clients_joined, 0, "no scheduled joiners in this plan");
    // 9 batches per client; the crash may cost one, the departure none
    // (its un-acked batch is rewound and replayed after the rejoin).
    // Client 0 cannot have been served this much before its 150 ms
    // departure, so the rejoin demonstrably contributed.
    assert!(r.served_per_client[0] >= 8, "{:?}", r.served_per_client);
    assert_eq!(r.served_per_client[1], 9);
    assert!(r.final_accuracy.is_finite());

    let trace = t.trace().unwrap();
    assert_eq!(trace.count(EventKind::ClientLeave), 1);
    assert_eq!(trace.count(EventKind::ClientRejoin), 1);
    assert!(t.membership().conserves());
}

/// When every member departs with work left and nothing scheduled to
/// repopulate the fleet, `try_run` terminates immediately with a typed
/// error — no hang, no panic, no silent half-report.
#[test]
fn quorum_zero_terminates_with_typed_error() {
    let train = data(48, 1);
    let test = data(24, 2);
    let topology = StarTopology::uniform(2, Link::wan(5.0, 100.0));
    let plan = FaultPlan::new()
        .client_leave(EndSystemId(0), ms(60))
        .client_leave(EndSystemId(1), ms(90));
    let cfg = SplitConfig::tiny(CutPoint(1), 2)
        .epochs(50)
        .batch_size(8)
        .seed(7);
    let mut t = AsyncSplitTrainer::new(
        cfg,
        &train,
        topology,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .unwrap()
    .with_fault_plan(plan);
    let lost = t.try_run(&test).unwrap_err();
    assert_eq!(lost.joined, 2);
    assert_eq!(lost.departed, 2);
    assert_eq!(lost.at_us, 90_000, "detected at the second departure");
    assert!(lost.to_string().contains("quorum lost"));
    // The legacy `run` path still returns a report (with the simulation
    // cut short at quorum loss) for callers that cannot handle errors.
    let r = t.run(&test);
    assert_eq!(r.clients_departed, 2);
}

/// A fleet that drains only because everyone finished is NOT a quorum
/// loss: departures after training completes are clean shutdowns.
#[test]
fn departures_after_completion_are_not_quorum_loss() {
    let train = data(32, 1);
    let test = data(16, 2);
    let topology = StarTopology::uniform(2, Link::wan(5.0, 100.0));
    // 2 batches per client at ~16 ms per roundtrip: done well before 5 s.
    let plan = FaultPlan::new()
        .client_leave(EndSystemId(0), ms(5_000))
        .client_leave(EndSystemId(1), ms(5_000));
    let cfg = SplitConfig::tiny(CutPoint(1), 2)
        .epochs(1)
        .batch_size(8)
        .seed(7);
    let mut t = AsyncSplitTrainer::new(
        cfg,
        &train,
        topology,
        SchedulingPolicy::Fifo,
        ComputeModel::default(),
    )
    .unwrap()
    .with_fault_plan(plan);
    let r = t
        .try_run(&test)
        .expect("completed fleet is not quorum loss");
    assert_eq!(r.served_per_client, vec![2, 2]);
}

/// A seeded churn plan drives a full run deterministically: the same
/// seed reproduces the same joins, departures, rejoins and trace.
#[test]
fn seeded_churn_plans_run_deterministically() {
    let mk = || {
        let train = data(72, 1);
        let test = data(24, 2);
        // 2 founding members + 1 pre-declared joiner = fleet of 3.
        let topology = StarTopology::uniform(3, Link::wan(5.0, 100.0));
        let plan = FaultPlan::churn(2, 1, SimDuration::from_millis(600), 11, 0.5);
        let cfg = SplitConfig::tiny(CutPoint(1), 3)
            .epochs(2)
            .batch_size(8)
            .seed(7);
        let mut t = AsyncSplitTrainer::new(
            cfg,
            &train,
            topology,
            SchedulingPolicy::Fifo,
            ComputeModel::default(),
        )
        .unwrap()
        .with_fault_plan(plan)
        .with_auto_checkpoint(SimDuration::from_millis(50));
        t.enable_trace();
        let r = t.run(&test);
        let csv = t.trace().unwrap().to_csv();
        let conserves = t.membership().conserves();
        (r, csv, conserves)
    };
    let (a, csv_a, conserves_a) = mk();
    let (b, csv_b, _) = mk();
    assert_eq!(csv_a, csv_b, "same seed, same churn, same trace");
    assert_eq!(a.clients_joined, b.clients_joined);
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.clients_joined, 1, "the one pre-declared joiner joined");
    assert!(conserves_a);
}

const ALL_STATES: [MembershipState; 5] = [
    MembershipState::Joining,
    MembershipState::Active,
    MembershipState::Suspect,
    MembershipState::Departed,
    MembershipState::Rejoining,
];

/// The legal lifecycle edges, mirrored from the membership module's
/// documentation. Everything else must be rejected.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Driving the registry with arbitrary transition requests never
    /// admits an illegal edge, never corrupts unrelated clients, and
    /// conserves `joined - departed = active + suspect` at every step.
    #[test]
    fn membership_never_admits_illegal_transitions(
        total in 1usize..6,
        dormant_mask in 0usize..32,
        steps in proptest::collection::vec((0usize..8, 0usize..5), 0..64)
    ) {
        let mut m = Membership::new(total);
        for i in 0..total {
            if dormant_mask & (1 << i) != 0 {
                m = m.dormant(i);
            }
        }
        prop_assert!(m.conserves());
        for (client, to_idx) in steps {
            let to = ALL_STATES[to_idx];
            let before = m.state(client);
            let result = m.transition(client, to);
            match before {
                Some(from) if legal(from, to) => {
                    prop_assert!(result.is_ok(), "legal {:?}->{:?} rejected", from, to);
                    prop_assert_eq!(m.state(client), Some(to));
                }
                _ => {
                    // Unknown client or illegal edge: rejected, and the
                    // client's state is untouched.
                    prop_assert!(result.is_err());
                    prop_assert_eq!(m.state(client), before);
                }
            }
            prop_assert!(m.conserves(), "conservation broken after {:?}", to);
            prop_assert_eq!(
                m.member_count(),
                m.active_count() + m.suspect_count()
            );
        }
    }
}
