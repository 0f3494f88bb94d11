//! Satellite coverage: `mgmt_channel::counters::CounterBoard` accounting
//! (category breakdown, reset, zero-default `get`) and `FaultPlan`
//! determinism (same seed ⇒ identical fault timeline).

use conman::mgmt_channel::{CounterBoard, MessageCategory};
use conman::netsim::clock::{SimDuration, SimTime};
use conman::netsim::device::DeviceId;
use conman::netsim::fault::{FaultKind, FaultPlan};
use conman::netsim::link::LinkId;

#[test]
fn counter_board_breaks_down_by_category() {
    let mut board = CounterBoard::new();
    let nm = DeviceId::from_raw(1);
    let dev = DeviceId::from_raw(2);
    board.record_sent(nm, MessageCategory::Command, 100);
    board.record_sent(nm, MessageCategory::Telemetry, 50);
    board.record_sent(nm, MessageCategory::Telemetry, 50);
    board.record_received(dev, MessageCategory::Telemetry, 50);
    board.record_received(nm, MessageCategory::Response, 80);

    let c = board.get(nm);
    assert_eq!(c.sent, 3);
    assert_eq!(c.bytes_sent, 200);
    assert_eq!(c.sent_by_category[&MessageCategory::Command], 1);
    assert_eq!(c.sent_by_category[&MessageCategory::Telemetry], 2);
    assert!(!c
        .sent_by_category
        .contains_key(&MessageCategory::ConveyMessage));
    assert_eq!(c.received_by_category[&MessageCategory::Response], 1);
    assert_eq!(
        board.get(dev).received_by_category[&MessageCategory::Telemetry],
        1
    );
    assert_eq!(board.total_sent(), 3);
    assert_eq!(board.total_received(), 2);
}

#[test]
fn counter_board_get_defaults_to_zero_and_reset_clears() {
    let mut board = CounterBoard::new();
    // A device that never used the channel reads as all-zero.
    let stranger = DeviceId::from_raw(99);
    let c = board.get(stranger);
    assert_eq!(c.sent, 0);
    assert_eq!(c.received, 0);
    assert_eq!(c.bytes_sent, 0);
    assert_eq!(c.bytes_received, 0);
    assert!(c.sent_by_category.is_empty());
    assert!(c.received_by_category.is_empty());

    board.record_sent(stranger, MessageCategory::Announcement, 10);
    assert_eq!(board.get(stranger).sent, 1);
    board.reset();
    assert_eq!(board.get(stranger).sent, 0);
    assert_eq!(board.total_sent(), 0);
    assert_eq!(board.total_received(), 0);
}

#[test]
fn fault_plans_are_deterministic_functions_of_the_seed() {
    let links: Vec<LinkId> = (0..5).map(LinkId).collect();
    let horizon = SimDuration::from_secs(2);
    let a = FaultPlan::random_flaps(0xC0FFEE, &links, SimTime::ZERO, horizon, 16);
    let b = FaultPlan::random_flaps(0xC0FFEE, &links, SimTime::ZERO, horizon, 16);
    assert_eq!(a, b, "same seed must produce the identical timeline");
    assert_eq!(a.len(), 32, "each flap is a cut plus a restore");

    let c = FaultPlan::random_flaps(0xC0FFEF, &links, SimTime::ZERO, horizon, 16);
    assert_ne!(a, c, "different seeds diverge");

    // The timeline is sorted and every cut precedes its restore.
    let times: Vec<u64> = a.events().iter().map(|e| e.at.as_nanos()).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted);
    let cuts = a
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::LinkCut(_)))
        .count();
    assert_eq!(cuts, 16);
}
