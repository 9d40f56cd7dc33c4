"""What a session keeps: O(resets) state, not O(messages).

A pair's receiver keeps one first-delivery time per reset record (no
delivery log), its stores keep no SAVE history, and the auditor keeps one
flag byte per uid, so memory held at the end of a session barely grows
with the number of messages it carried.

A replay adversary is the exception: it may replay any earlier packet, so
it keeps every one, and that record is all it keeps.
"""

import gc
import tracemalloc

from repro.core.protocol import build_protocol
from repro.sim.trace import NULL_TRACE

#: Bytes a session may keep per added message: the auditor's flag byte
#: plus ``bytearray`` over-allocation, with room to spare.  A per-message
#: tuple in a list costs ~100 B.
MAX_BYTES_PER_MESSAGE = 4

#: Bytes an ESP pair with a recording adversary may keep per added
#: message: the recorded packet (a 6-field tuple, its 32-byte ICV, its
#: seq and uid ints) and its list slot come to ~235 B.  A
#: ``(time, packet)`` pair per entry adds ~64 B.
MAX_RECORDED_BYTES_PER_MESSAGE = 250


def retained_bytes(messages: int, **options) -> int:
    """Traced memory held by a finished, still-live untraced session."""
    gc.collect()
    tracemalloc.start()
    try:
        harness = build_protocol(trace=NULL_TRACE, seed=1, **options)
        harness.sender.start_traffic(count=messages)
        harness.run()
        assert harness.receiver.delivered_total == messages
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_session_retains_o1_bytes_per_message():
    small = retained_bytes(20_000)
    large = retained_bytes(40_000)
    per_message = (large - small) / 20_000
    assert per_message <= MAX_BYTES_PER_MESSAGE, (
        f"a session keeps {per_message:.1f} B per added message"
    )


def test_adversary_keeps_one_packet_per_message():
    options = {"encap": "esp", "with_adversary": True}
    small = retained_bytes(20_000, **options)
    large = retained_bytes(40_000, **options)
    per_message = (large - small) / 20_000
    assert per_message <= MAX_RECORDED_BYTES_PER_MESSAGE, (
        f"an adversary's record keeps {per_message:.1f} B per added message"
    )
