"""Frame capture at the PHY/MAC boundary (a "pcap" for the simulated air).

A :class:`FrameCapture` records one JSON-compatible entry per frame event —
transmissions as the PHY puts them on the air and receptions as they finish
decoding — with the fields a protocol debugger actually needs: addresses,
rates, sizes, retry counts and the collision/capture outcome.  Entries
serialize as JSON Lines (one object per line), the same shape whether
streamed to disk or inspected in memory.

The capture is a tracer listener (:meth:`FrameCapture.on_record`): it turns
the PHY's ``phy.tx_start`` and ``phy.rx_end`` records, which carry the frame
and the ``ReceptionResult``, into entries.  Capturing only *reads* protocol
state — no RNG, no scheduling — so results are byte-identical with capture on
or off.  Entries hold only strings and numbers, never the frame itself.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterator, List, Optional


def _mbps(rate: Any) -> Optional[float]:
    bps = getattr(rate, "data_rate_bps", None)
    if bps is None:
        return None
    return round(bps / 1e6, 3)


def _subframe_entry(subframe: Any, portion: str) -> Dict[str, Any]:
    packet = getattr(subframe, "packet", None)
    entry: Dict[str, Any] = {
        "portion": portion,
        "src": str(getattr(subframe, "src", "?")),
        "dst": str(getattr(subframe, "dst", "?")),
        "seq": getattr(subframe, "sequence", None),
        "bytes": subframe.size_bytes,
        "retries": getattr(subframe, "retries", 0),
    }
    if packet is not None:
        entry["proto"] = packet.ip.protocol
    return entry


class FrameCapture:
    """Collects per-frame capture entries from every PHY of a run."""

    def __init__(self, max_frames: Optional[int] = None) -> None:
        self.max_frames = max_frames
        self.entries: List[Dict[str, Any]] = []
        #: Entries not stored because ``max_frames`` was reached.
        self.dropped = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def on_record(self, record: Any) -> None:
        """Tracer listener: capture the PHY's transmissions and receptions."""
        event, fields = (record.category, record.event), record.fields
        if event == ("phy", "tx_start"):
            self.record_tx(record.time, record.source, fields["frame"], fields["duration"])
        elif event == ("phy", "rx_end"):
            self.record_rx(record.time, record.source, fields["result"])

    def _store(self, entry: Dict[str, Any]) -> None:
        if self.max_frames is not None and len(self.entries) >= self.max_frames:
            self.dropped += 1
            return
        self.entries.append(entry)

    def record_tx(self, time: float, node: str, frame: Any, duration: float) -> None:
        """Record a frame the PHY named ``node`` just put on the air."""
        self._store(self._frame_entry(time, node, frame, direction="tx",
                                      airtime=duration))

    def record_rx(self, time: float, node: str, result: Any) -> None:
        """Record a finished reception (``result`` is a ``ReceptionResult``)."""
        entry = self._frame_entry(time, node, result.frame, direction="rx")
        entry["snr_db"] = round(result.snr_db, 2)
        entry["collided"] = result.collided
        entry["captured"] = not result.collided
        entry["decoded"] = result.any_ok
        if result.broadcast_ok:
            entry["broadcast_crc_ok"] = list(result.broadcast_ok)
        if result.unicast_ok:
            entry["unicast_crc_ok"] = list(result.unicast_ok)
        if result.frame.kind.is_control:
            entry["control_ok"] = result.control_ok
        self._store(entry)

    def _frame_entry(self, time: float, node: str, frame: Any, direction: str,
                     airtime: Optional[float] = None) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "t": round(time, 9),
            "node": node,
            "dir": direction,
            "kind": frame.kind.value,
            "bytes": frame.total_bytes,
            "rate_mbps": _mbps(frame.unicast_rate),
        }
        if airtime is not None:
            entry["airtime"] = round(airtime, 9)
        if frame.kind.is_control:
            control = frame.control
            entry["control"] = {
                "dst": str(getattr(control, "dst", "?")),
                **({"src": str(control.src)} if hasattr(control, "src") else {}),
            }
        else:
            if frame.broadcast_rate is not None:
                entry["broadcast_rate_mbps"] = _mbps(frame.broadcast_rate)
            entry["subframes"] = (
                [_subframe_entry(sf, "bcast") for sf in frame.broadcast_subframes]
                + [_subframe_entry(sf, "ucast") for sf in frame.unicast_subframes])
        return entry

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def iter_jsonl(self) -> Iterator[str]:
        """One compact JSON document per stored entry, in capture order."""
        for entry in self.entries:
            yield json.dumps(entry, separators=(",", ":"), default=repr)

    def write_jsonl(self, stream: IO[str]) -> int:
        """Write the capture as JSON Lines; returns the entry count."""
        for line in self.iter_jsonl():
            stream.write(line)
            stream.write("\n")
        return len(self.entries)

    def to_jsonl(self, path: str) -> int:
        """Write the capture to ``path``; returns the entry count."""
        with open(path, "w", encoding="utf-8") as handle:
            return self.write_jsonl(handle)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrameCapture frames={len(self.entries)} dropped={self.dropped}>"
