"""Property tests over the whole timed protocol: random fault schedules.

The strongest end-to-end statement this reproduction makes: for *any*
schedule of sender/receiver resets (spaced beyond the recovery time, on a
lossless in-order channel, with a properly sized K), the SAVE/FETCH pair
never reuses a sequence number, never accepts a replay, and every gap
stays within 2K.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import build_protocol
from repro.ipsec.costs import CostModel

COSTS = CostModel(t_save=100e-6, t_send=4e-6, t_fetch=0.0)
# Recovery takes down_time + t_save; keep schedules clear of overlap.
DOWN = 3 * COSTS.t_save
SPACING = 10 * COSTS.t_save

#: A fault: (who, when-slot) — slots are multiplied into spaced times.
FAULT = st.tuples(st.sampled_from(["p", "q"]), st.integers(min_value=1, max_value=30))


@given(faults=st.lists(FAULT, min_size=1, max_size=6, unique_by=lambda f: f[1]))
@settings(max_examples=60, deadline=None)
def test_any_spaced_reset_schedule_converges(faults):
    harness = build_protocol(k_p=50, k_q=50, costs=COSTS, seed=1)
    for who, slot in faults:
        target = harness.sender if who == "p" else harness.receiver
        harness.engine.call_at(slot * SPACING, target.reset, DOWN)
    harness.sender.start_traffic(count=12_000)
    horizon = 31 * SPACING + 12_000 * COSTS.t_send
    harness.run(until=horizon)

    report = harness.score()
    assert report.converged, report.bound_violations
    assert report.replays_accepted == 0
    # No sequence number ever reused on the wire.
    seqs = [
        record.detail["seq"]
        for record in harness.engine.trace.filter(source="p", kind="send")
    ]
    assert len(seqs) == len(set(seqs))


@given(
    faults=st.lists(FAULT, min_size=1, max_size=4, unique_by=lambda f: f[1]),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_ceiling_variant_same_guarantee(faults, seed):
    harness = build_protocol(variant="ceiling", k_p=50, k_q=50, costs=COSTS,
                             seed=seed)
    delivered = []
    harness.receiver.on_deliver = lambda seq, payload: delivered.append(seq)
    for who, slot in faults:
        target = harness.sender if who == "p" else harness.receiver
        harness.engine.call_at(slot * SPACING, target.reset, DOWN)
    harness.sender.start_traffic(count=8_000)
    harness.run(until=31 * SPACING + 8_000 * COSTS.t_send)
    report = harness.score(check_bounds=False)
    assert report.replays_accepted == 0
    assert len(delivered) == harness.receiver.delivered_total
    assert len(delivered) == len(set(delivered))
