"""Time-varying network paths: profiles and NAT rebinding.

The paper's channel is fixed for the lifetime of an SA.  Deployed SAs
live on paths that change mid-SA: loss/delay regimes shift, routes flap
and blackhole, and NAT rebindings move the peer's network address while
in-flight (and adversary-recorded) packets still carry the old one.
This package makes those conditions first-class, schedulable simulation
objects:

* :mod:`~repro.netpath.profile` — :class:`PathPhase` /
  :class:`PathProfile`: an ordered, seed-deterministic timeline of
  delay/loss/up regimes a :class:`~repro.net.link.Link` steps through.
  A static single-phase profile is byte-identical to the fixed channel
  (golden-parity pinned by ``tests/netpath/test_netpath_parity.py``).
* :mod:`~repro.netpath.nat` — :class:`NatGate`: the receiver-side
  peer-address check, keeping the SA's one peer binding and enforcing
  a rebinding policy (:data:`repro.netpath.nat.REBIND_POLICIES`).

The injected path events — :class:`~repro.faults.PathFlap`,
:class:`~repro.faults.RegimeShift` and :class:`~repro.faults.NatRebinding`
— are kinds of the one fault algebra in :mod:`repro.faults`; a profile
travels through fleet campaign specs under the ``__pathprofile__`` tag
of :mod:`repro.fleet.spec`.

Scenarios ``nat_rebinding``, ``path_flap`` and ``mobile_handover``
(registry names in :data:`repro.workloads.SCENARIOS`) run the stories
end to end; E16 sweeps phase pattern x reset schedule;
``python -m repro netpath`` is the CLI demo;
``benchmarks/bench_m6_netpath.py`` pins the regime-switching overhead
against the static link.
"""

from repro.netpath.nat import NatGate
from repro.netpath.profile import PathPhase, PathProfile, PathTimeline

__all__ = [
    "NatGate",
    "PathPhase",
    "PathProfile",
    "PathTimeline",
]
