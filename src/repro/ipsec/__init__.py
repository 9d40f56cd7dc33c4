"""IPsec substrate (systems S5-S7).

The paper's protocol runs over an IPsec security association (SA).  The
anti-replay logic itself only needs sequence numbers, but two other parts
of the reproduction need *real* (simulated-but-enforced) IPsec machinery:

* the IETF baseline ("delete and re-establish the SA on reset") relies on
  old packets *actually failing* integrity verification under the new SA's
  keys — so ESP/AH here carry real HMAC-SHA-256 integrity check values
  over simulated encapsulation;
* the rekey-cost experiment (E7) needs a message-faithful IKE handshake
  with a crypto cost model.

Contents:

* :mod:`~repro.ipsec.crypto` — keys, HMAC integrity, a clearly-labelled
  non-cryptographic stream-cipher stand-in.
* :mod:`~repro.ipsec.sa` — :class:`SecurityAssociation` records (the
  stable attributes; the volatile counter and window live in the
  :mod:`repro.core` endpoints).
* :mod:`~repro.ipsec.esp` / :mod:`~repro.ipsec.ah` — packet encapsulation
  with enforced integrity.
* :mod:`~repro.ipsec.replay_window` — the anti-replay window, one
  RFC-style integer bitmap; the spec's
  :func:`~repro.apn.specs.window_update` is its paper-literal test oracle.
* :mod:`~repro.ipsec.ike` — simplified ISAKMP main + quick mode over the
  simulated network, used by the rekey baseline.
* :mod:`~repro.ipsec.costs` — the paper's measured cost constants
  (T_save = 100 us, T_send = 4 us on a Pentium III 730 MHz) and derived
  quantities such as the minimum SAVE interval K >= 25.
"""

from repro.ipsec.ah import AhPacket, ah_open, ah_seal
from repro.ipsec.costs import PAPER_COSTS, CostModel
from repro.ipsec.crypto import (
    IntegrityError,
    derive_key,
    generate_key,
    hmac_digest,
    hmac_verify,
    xor_stream,
)
from repro.ipsec.esp import EspPacket, esp_open, esp_seal
from repro.ipsec.ike import IkeConfig, IkeInitiator, IkeMessage, IkeResponder, IkeResult
from repro.ipsec.replay_window import BitmapReplayWindow, Verdict
from repro.ipsec.sa import SaPair, SecurityAssociation, make_sa_pair

__all__ = [
    "AhPacket",
    "BitmapReplayWindow",
    "CostModel",
    "EspPacket",
    "IkeConfig",
    "IkeInitiator",
    "IkeMessage",
    "IkeResponder",
    "IkeResult",
    "IntegrityError",
    "PAPER_COSTS",
    "SaPair",
    "SecurityAssociation",
    "Verdict",
    "ah_open",
    "ah_seal",
    "derive_key",
    "esp_open",
    "esp_seal",
    "generate_key",
    "hmac_digest",
    "hmac_verify",
    "make_sa_pair",
    "xor_stream",
]
