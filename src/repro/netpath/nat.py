"""Receiver-side NAT handling: the peer-address binding and its policy.

A NAT rebinding is invisible to the paper's protocol — messages carry no
addresses — but very visible to a deployment: the receiver suddenly sees
the same SA's traffic arrive from a different source address, while
packets that left before the rebinding (and anything an adversary
recorded) still carry the old one.  :class:`NatGate` models the
receiving gateway's address check as a front end on the receive path::

    link -> NatGate.on_receive -> receiver.on_receive -> window

The gate keeps the SA's one peer binding and enforces one of
:data:`REBIND_POLICIES`:

* ``"static"`` — forward everything, never move the binding (the
  paper's address-less model; the gate is pure instrumentation).
* ``"strict"`` — only the bound address may speak.  After a NAT
  rebinding the fresh traffic is dropped at the gate: safe against
  address spoofing, fatal to the tunnel (the failure mode E16 tables).
* ``"rebind_on_valid"`` — MOBIKE-style: packets from unknown addresses
  are forwarded, and the binding moves the first time one of them is
  *accepted by the anti-replay window*.  Old-binding in-flight packets
  keep flowing through the window — which is the point: the window, not
  the address, is the replay authority, so a recorded-history replay
  from the old binding is rejected exactly as it would be without NAT.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.receiver import BaseReceiver

#: Peer-address rebinding policies (RFC 3947/4555-style NAT handling,
#: simulation form), one per gate; see the module docstring.
REBIND_POLICIES = ("static", "strict", "rebind_on_valid")


class NatGate:
    """Address check in front of a receiver (see module docstring).

    Args:
        receiver: the protocol receiver whose ``on_receive`` the gate
            forwards to.  The gate registers a process listener to learn
            window verdicts (how ``rebind_on_valid`` decides).
        policy: one of :data:`REBIND_POLICIES`.
        initial_binding: the address the SA was established from
            (``None`` latches to the first source seen).
    """

    def __init__(
        self,
        receiver: "BaseReceiver",
        policy: str = "rebind_on_valid",
        initial_binding: str | None = None,
    ) -> None:
        if policy not in REBIND_POLICIES:
            raise ValueError(
                f"unknown rebind policy {policy!r}; expected one of {REBIND_POLICIES}"
            )
        self.receiver = receiver
        self.policy = policy
        #: The current peer binding.
        self.binding = initial_binding
        #: Candidate source per in-flight packet, awaiting its window
        #: verdict.  Keyed by ``id(packet)``, as the receiver reports the
        #: verdict with the very object that arrived, and holding the
        #: packet pins its id: one that never gets a verdict (dropped
        #: while the receiver is down, or wiped from the wake buffer by a
        #: reset) can never alias a later packet and trigger a spurious
        #: rebind.  Its entry just stays, bounded by the scenario's
        #: off-binding packet count.
        self._pending: dict[int, tuple[Any, str]] = {}
        # Statistics (monotonic; scenario extras read these).
        self.forwarded = 0
        self.rejected = 0
        self.off_binding = 0
        self.rebinds = 0
        receiver.add_process_listener(self._on_verdict)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_receive(self, packet: Any) -> None:
        """Link sink: apply the address policy, then forward."""
        src = getattr(packet, "src", None)
        if src is None:
            # Address-less traffic (the paper's model) bypasses the check.
            self.forwarded += 1
            self.receiver.on_receive(packet)
            return
        if self.binding is None:
            self.binding = src  # first contact establishes the binding
        if src != self.binding:
            if self.policy == "strict":
                self.rejected += 1
                return
            self.off_binding += 1
            if self.policy == "rebind_on_valid":
                self._pending[id(packet)] = (packet, src)
        self.forwarded += 1
        self.receiver.on_receive(packet)

    def _on_verdict(self, packet: Any, verdict: Any) -> None:
        entry = self._pending.get(id(packet))
        if entry is None or entry[0] is not packet:
            return
        del self._pending[id(packet)]
        if not getattr(verdict, "accepted", False):
            return
        src = entry[1]
        if src != self.binding:
            self.binding = src
            self.rebinds += 1

    def metrics(self) -> dict[str, Any]:
        """JSON-safe counters for scenario ``extra`` metrics."""
        return {
            "policy": self.policy,
            "binding": self.binding,
            "forwarded": self.forwarded,
            "rejected": self.rejected,
            "off_binding": self.off_binding,
            "rebinds": self.rebinds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NatGate policy={self.policy!r} binding={self.binding!r}>"
