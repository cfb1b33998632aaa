"""Unit tests for the PHY/MAC frame capture (repro.obs.capture)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.obs.capture import FrameCapture
from repro.phy.frame import FrameKind, PhyFrame, ReceptionResult
from repro.phy.rates import rate_for_mbps

RATE = rate_for_mbps(0.65)


@dataclass
class StubSubframe:
    size_bytes: int
    src: str = "02:00:00:00:00:01"
    dst: str = "02:00:00:00:00:02"
    sequence: int = 7
    retries: int = 1
    packet: Optional[object] = None


@dataclass
class StubControl:
    size_bytes: int = 20
    src: str = "02:00:00:00:00:01"
    dst: str = "02:00:00:00:00:02"


def data_frame():
    return PhyFrame.data([StubSubframe(160)], [StubSubframe(1464)], RATE)


def test_record_tx_data_frame_entry():
    capture = FrameCapture()
    capture.record_tx(0.25, "node1.phy", data_frame(), duration=0.01)
    (entry,) = capture.entries
    assert entry["t"] == 0.25
    assert entry["node"] == "node1.phy"
    assert entry["dir"] == "tx"
    assert entry["kind"] == "data"
    assert entry["bytes"] == 160 + 1464
    assert entry["rate_mbps"] == 0.65
    assert entry["airtime"] == 0.01
    portions = [(sf["portion"], sf["bytes"], sf["retries"])
                for sf in entry["subframes"]]
    assert portions == [("bcast", 160, 1), ("ucast", 1464, 1)]


def test_record_tx_control_frame_entry():
    capture = FrameCapture()
    frame = PhyFrame.control_frame(FrameKind.RTS, StubControl(), RATE)
    capture.record_tx(0.5, "node1.phy", frame, duration=0.001)
    (entry,) = capture.entries
    assert entry["kind"] == "rts"
    assert entry["control"]["dst"] == "02:00:00:00:00:02"
    assert entry["control"]["src"] == "02:00:00:00:00:01"
    assert "subframes" not in entry


def test_record_rx_outcome_fields():
    capture = FrameCapture()
    result = ReceptionResult(frame=data_frame(), snr_db=17.456, collided=False,
                             broadcast_ok=[True], unicast_ok=[False])
    capture.record_rx(1.0, "node2.phy", result)
    (entry,) = capture.entries
    assert entry["dir"] == "rx"
    assert entry["snr_db"] == 17.46
    assert entry["collided"] is False
    assert entry["captured"] is True
    assert entry["decoded"] is True
    assert entry["broadcast_crc_ok"] == [True]
    assert entry["unicast_crc_ok"] == [False]


def test_max_frames_counts_drops():
    capture = FrameCapture(max_frames=1)
    for _ in range(3):
        capture.record_tx(0.0, "node1.phy", data_frame(), duration=0.01)
    assert len(capture) == 1
    assert capture.dropped == 2


def test_jsonl_round_trip(tmp_path):
    capture = FrameCapture()
    capture.record_tx(0.1, "node1.phy", data_frame(), duration=0.01)
    result = ReceptionResult(frame=data_frame(), snr_db=20.0, collided=True)
    capture.record_rx(0.2, "node2.phy", result)
    path = tmp_path / "frames.jsonl"
    assert capture.to_jsonl(str(path)) == 2
    lines = path.read_text().strip().splitlines()
    entries = [json.loads(line) for line in lines]
    assert [e["dir"] for e in entries] == ["tx", "rx"]
    assert entries[1]["captured"] is False
