//! The machine and channel layers driven directly, with no scheduler.

use std::hint::black_box;

use bda_core::{AccessOutcome, ChannelModel, DynSystem, Key, RetryPolicy, Ticks, WalkStep};

/// Every request through one reusable fast-forwarding slot: `start`, then
/// `step` until `Done`. Returns the steps taken and the requests whose
/// outcome differs from `expected`.
pub fn slot_loop(
    sys: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    (channel, policy): (ChannelModel, RetryPolicy),
    expected: impl IntoIterator<Item = AccessOutcome>,
) -> (u64, u64) {
    let mut slot = sys.make_slot_channel(channel, policy);
    slot.set_fast_forward(true);
    let (mut steps, mut wrong) = (0, 0);
    for (&(t, key), want) in requests.iter().zip(expected) {
        slot.start(key, t);
        loop {
            steps += 1;
            if let WalkStep::Done(outcome) = slot.step() {
                wrong += u64::from(outcome != want);
                break;
            }
        }
    }
    (steps, wrong)
}

/// Channel-state lookups at the program's mean bucket stride over
/// `horizon` ticks of air. Returns how many were made.
pub fn channel_checks(channel: ChannelModel, sys: &dyn DynSystem, horizon: Ticks) -> u64 {
    let stride = (sys.cycle_len() / sys.num_buckets().max(1) as Ticks).max(1);
    let mut checks = 0;
    let mut t = 0;
    while t < horizon {
        black_box(black_box(&channel).corrupted(black_box(t)));
        checks += 1;
        t += stride;
    }
    checks
}
