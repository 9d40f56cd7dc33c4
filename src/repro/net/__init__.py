"""Network substrate (systems S2-S4).

The paper's channel model is a unidirectional message stream from sender
``p`` to receiver ``q`` in which messages "may be lost or reordered", plus
an adversary that "can insert in the message stream from p to q a copy of
any message t that was sent earlier by p".

This package provides exactly that, as composable pieces:

* :class:`~repro.net.link.Link` — a unidirectional lossy, delaying link
  that delivers packets to a sink callable via engine events.
* :mod:`~repro.net.loss` — loss models (none, Bernoulli, Gilbert-Elliott
  bursts, deterministic index sets).
* :mod:`~repro.net.delay` — delay models (fixed, uniform jitter,
  exponential jitter); jitter on a non-FIFO link produces reordering.
* :class:`~repro.net.reorder.DegreeReorderStage` — a pipeline stage that
  produces *controlled* reorders of a chosen degree, matching the paper's
  definition ("a message m suffers a reorder of degree w iff the w-th
  message sent after m is received before m").
* :class:`~repro.net.adversary.ReplayAdversary` — records link traffic and
  replays it with the attack strategies of Section 3.
* :mod:`~repro.net.icmp` — ICMP destination-unreachable generation used by
  the Section 6 prolonged-reset recovery and dead-peer detection.
"""

from repro.net.adversary import ReplayAdversary
from repro.net.delay import DelayModel, ExponentialJitterDelay, FixedDelay, UniformJitterDelay
from repro.net.icmp import IcmpMessage, IcmpSink, IcmpType
from repro.net.link import Link, PacketPipe, TapFn
from repro.net.loss import BernoulliLoss, DeterministicLoss, GilbertElliottLoss, LossModel, NoLoss
from repro.net.message import Message
from repro.net.reorder import DegreeReorderStage

__all__ = [
    "BernoulliLoss",
    "DegreeReorderStage",
    "DelayModel",
    "DeterministicLoss",
    "ExponentialJitterDelay",
    "FixedDelay",
    "GilbertElliottLoss",
    "IcmpMessage",
    "IcmpSink",
    "IcmpType",
    "Link",
    "LossModel",
    "Message",
    "NoLoss",
    "PacketPipe",
    "ReplayAdversary",
    "TapFn",
    "UniformJitterDelay",
]
