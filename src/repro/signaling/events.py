"""Radio-interface events collected inside the visited MNO.

The MNO dataset processes "logs reporting on activities on IuCS, IuPS, A,
and Gb radio interfaces … Each event carries the anonymized user ID, SIM
MCC and MNC, TAC, the sector ID handling the communication, timestamp,
event type, event result code" (§4.1).  :class:`RadioEvent` is that
record; :class:`RadioInterface` maps each interface to the RAT and plane
(circuit-switched voice vs packet-switched data) it carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from repro.cellular.rats import RAT
from repro.signaling.procedures import MessageType, ResultCode


class RadioInterface(str, Enum):
    """The monitored interface an event was captured on.

    =========  ====  =======================
    interface  RAT   plane
    =========  ====  =======================
    A          2G    circuit-switched (voice)
    Gb         2G    packet-switched (data)
    IuCS       3G    circuit-switched (voice)
    IuPS       3G    packet-switched (data)
    S1         4G    packet-switched (data)
    =========  ====  =======================
    """

    A = "A"
    GB = "Gb"
    IU_CS = "IuCS"
    IU_PS = "IuPS"
    S1 = "S1"

    @property
    def rat(self) -> RAT:
        return _RAT_OF[self]

    @property
    def is_voice(self) -> bool:
        """Circuit-switched interfaces carry voice (and SMS-like traffic;
        the paper uses "voice services in a broad sense")."""
        return self in (RadioInterface.A, RadioInterface.IU_CS)

    @property
    def is_data(self) -> bool:
        return not self.is_voice

    @classmethod
    def for_plane(cls, rat: RAT, voice: bool) -> "RadioInterface":
        """The interface carrying ``rat`` traffic on the given plane.

        4G has no circuit-switched plane in this model; requesting a 4G
        voice interface raises (M2M devices and feature phones on LTE are
        rare enough in the paper's data that we can exclude CSFB/VoLTE).
        """
        try:
            return _PLANE_TABLE[(rat, voice)]
        except KeyError:
            raise ValueError(f"no {'voice' if voice else 'data'} interface for {rat.value}") from None


_RAT_OF = {
    RadioInterface.A: RAT.GSM,
    RadioInterface.GB: RAT.GSM,
    RadioInterface.IU_CS: RAT.UMTS,
    RadioInterface.IU_PS: RAT.UMTS,
    RadioInterface.S1: RAT.LTE,
}

_PLANE_TABLE = {
    (RAT.GSM, True): RadioInterface.A,
    (RAT.GSM, False): RadioInterface.GB,
    (RAT.UMTS, True): RadioInterface.IU_CS,
    (RAT.UMTS, False): RadioInterface.IU_PS,
    (RAT.LTE, False): RadioInterface.S1,
}


@dataclass(frozen=True)
class RadioEvent:
    """One radio-interface log record from the MNO's passive probes."""

    device_id: str
    timestamp: float
    sim_plmn: str
    tac: int
    sector_id: int
    interface: RadioInterface
    event_type: MessageType
    result: ResultCode

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")
        if not self.sim_plmn.isdigit() or len(self.sim_plmn) not in (5, 6):
            raise ValueError(f"SIM PLMN must be 5-6 digits, got {self.sim_plmn!r}")
        if not 0 <= self.tac < 10**8:
            raise ValueError(f"TAC must be 8 digits, got {self.tac}")

    @property
    def rat(self) -> RAT:
        return self.interface.rat

    @property
    def day(self) -> int:
        return int(self.timestamp // 86400)

    @property
    def is_success(self) -> bool:
        return self.result.is_success


#: Canonical, index-stable interface order: :mod:`repro.columnar` encodes
#: each event's interface as an index into this tuple, so shard workers
#: and persisted column blocks agree on the mapping.  Append-only — any
#: reordering changes the meaning of every encoded block.
RADIO_INTERFACES: Tuple[RadioInterface, ...] = tuple(RadioInterface)
