"""A TCP connection.

The connection implements the subset of TCP the paper's experiments exercise:

* three-way handshake and FIN teardown,
* byte-sequence sliding-window transmission with a configurable MSS
  (1357 bytes in the paper, producing 1464 B MAC frames),
* cumulative acknowledgements — the receiver emits a *pure* ACK for every
  data segment it receives, which is exactly the traffic the MAC classifier
  diverts into the broadcast queue,
* NewReno congestion control (slow start, congestion avoidance, fast
  retransmit/recovery with partial-ACK handling) and RFC 6298 RTO management.

Payload bytes are counted, not stored: the simulator only needs sizes and
sequence numbers.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from repro.errors import TcpStateError
from repro.net.address import IpAddress
from repro.net.packet import Packet, TcpHeader
from repro.sim.simulator import Simulator
from repro.sim.timer import Timer
from repro.transport.tcp.congestion import NewRenoCongestionControl
from repro.transport.tcp.rtt import RttEstimator

#: MSS used throughout the paper's experiments (Section 5).
PAPER_MSS = 1357
#: Default advertised receive window (large enough not to be the bottleneck).
DEFAULT_RECEIVE_WINDOW = 256 * 1024
#: With ``idle_reprobe``: consecutive RTOs after which the retransmission
#: interval is capped, and the cap (seconds).
REPROBE_AFTER_TIMEOUTS = 3
REPROBE_INTERVAL = 5.0


class TcpState(enum.Enum):
    """Connection states (TIME_WAIT is collapsed into CLOSED)."""

    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn_sent"
    SYN_RCVD = "syn_rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin_wait_1"
    FIN_WAIT_2 = "fin_wait_2"
    CLOSE_WAIT = "close_wait"
    LAST_ACK = "last_ack"


class TcpConnection:
    """One end of a TCP connection."""

    def __init__(self, sim: Simulator, network, local_ip: IpAddress, local_port: int,
                 remote_ip: IpAddress, remote_port: int, mss: int = PAPER_MSS,
                 idle_reprobe: bool = False, name: Optional[str] = None) -> None:
        self.sim = sim
        self.network = network
        self.local_ip = IpAddress(local_ip)
        self.local_port = local_port
        self.remote_ip = IpAddress(remote_ip)
        self.remote_port = remote_port
        self.mss = mss
        # Persist-timer-style outage mitigation (off by default so the
        # paper's experiments are unchanged): after REPROBE_AFTER_TIMEOUTS
        # consecutive RTOs the retransmission interval is capped at
        # REPROBE_INTERVAL instead of following the exponential backoff
        # to its 60 s ceiling.  Without it, long outages (e.g. the orbiting
        # relay of mob02) phase-lock with the backed-off RTO: end-to-end
        # retries keep landing while the path is down and the connection can
        # stall for a full backoff period after the path returns.
        self.idle_reprobe = idle_reprobe
        self._consecutive_timeouts = 0
        self.reprobes_sent = 0
        self.name = name or f"tcp-{local_ip}:{local_port}"

        self.state = TcpState.CLOSED

        # --- sender state ------------------------------------------------
        self.snd_una = 0          # oldest unacknowledged sequence number
        self.snd_nxt = 0          # next sequence number to send
        self.send_buffer_bytes = 0  # application bytes written but not yet sent
        self.peer_window = DEFAULT_RECEIVE_WINDOW
        self.cc = NewRenoCongestionControl(mss=mss)
        self.rtt = RttEstimator()
        self._dup_acks = 0
        self._recover = 0
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0
        self._fin_pending = False
        self._fin_sent = False
        self._fin_seq: Optional[int] = None

        # --- receiver state ----------------------------------------------
        self.rcv_nxt = 0
        self._out_of_order: Dict[int, int] = {}
        self.bytes_received = 0
        self.peer_fin_received = False

        # --- counters ------------------------------------------------------
        self.segments_sent = 0
        self.pure_acks_sent = 0
        self.retransmitted_segments = 0
        self.timeouts = 0
        self.bytes_sent_total = 0

        # --- callbacks -----------------------------------------------------
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data_received: Optional[Callable[[int], None]] = None
        self.on_send_complete: Optional[Callable[[], None]] = None
        self.on_closed: Optional[Callable[[], None]] = None

        self._rto_timer = Timer(sim, self._on_rto, priority=Simulator.PRIORITY_APP,
                                name=f"{self.name}.rto")

    # ------------------------------------------------------------------
    # Opening and closing
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        """Send a SYN and start the three-way handshake."""
        if self.state is not TcpState.CLOSED:
            raise TcpStateError(f"cannot open a connection in state {self.state}")
        self.state = TcpState.SYN_SENT
        self._send_segment(seq=0, payload=0, syn=True, ack=False)
        self.snd_nxt = 1
        self._timed_seq = 0
        self._timed_at = self.sim.now
        self._rto_timer.start(self.rtt.rto)

    def accept_syn(self, remote_seq: int) -> None:
        """Passive open: a SYN arrived for a listening port."""
        if self.state is not TcpState.CLOSED:
            raise TcpStateError(f"cannot accept a SYN in state {self.state}")
        self.rcv_nxt = remote_seq + 1
        self.state = TcpState.SYN_RCVD
        self._send_segment(seq=0, payload=0, syn=True, ack=True)
        self.snd_nxt = 1
        self._rto_timer.start(self.rtt.rto)

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data for transmission."""
        if nbytes < 0:
            raise TcpStateError("cannot send a negative number of bytes")
        if self.state not in (TcpState.ESTABLISHED, TcpState.SYN_SENT, TcpState.SYN_RCVD,
                              TcpState.CLOSE_WAIT):
            raise TcpStateError(f"cannot send data in state {self.state}")
        if self._fin_pending:
            raise TcpStateError("cannot send data after close()")
        self.send_buffer_bytes += nbytes
        self._try_send()

    def close(self) -> None:
        """Close the sending direction once all queued data has been delivered."""
        if self._fin_pending:
            return
        self._fin_pending = True
        self._try_send()

    @property
    def flight_size(self) -> int:
        """Bytes in flight (sent but not yet cumulatively acknowledged)."""
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # Segment transmission
    # ------------------------------------------------------------------
    def _send_segment(self, seq: int, payload: int, syn: bool = False, fin: bool = False,
                      ack: bool = True, retransmission: bool = False) -> None:
        header = TcpHeader(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=seq, ack=self.rcv_nxt if ack else 0,
            flags_syn=syn, flags_fin=fin, flags_ack=ack, window=DEFAULT_RECEIVE_WINDOW,
        )
        packet = Packet.tcp_segment(self.local_ip, self.remote_ip, header,
                                    payload_bytes=payload, created_at=self.sim.now)
        self.segments_sent += 1
        if payload == 0 and ack and not syn and not fin:
            self.pure_acks_sent += 1
        if retransmission:
            self.retransmitted_segments += 1
        else:
            self.bytes_sent_total += payload
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(getattr(self.network, "name", str(self.local_ip)), "tcp",
                        "send", seq=seq, retransmission=retransmission, packet=packet)
        self.network.send(packet)

    def _send_pure_ack(self) -> None:
        self._send_segment(seq=self.snd_nxt, payload=0)

    # ------------------------------------------------------------------
    # Sender machinery
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                              TcpState.FIN_WAIT_1, TcpState.LAST_ACK):
            return
        window = self.cc.window(self.peer_window)
        while self.send_buffer_bytes > 0:
            in_flight = self.flight_size
            if in_flight >= window:
                break
            size = min(self.mss, self.send_buffer_bytes, window - in_flight)
            if size <= 0:
                break
            self._send_segment(seq=self.snd_nxt, payload=size)
            if self._timed_seq is None:
                self._timed_seq = self.snd_nxt
                self._timed_at = self.sim.now
            self.snd_nxt += size
            self.send_buffer_bytes -= size
            if not self._rto_timer.running:
                self._rto_timer.start(self.rtt.rto)

        if (self._fin_pending and not self._fin_sent and self.send_buffer_bytes == 0
                and self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)):
            self._fin_seq = self.snd_nxt
            self._send_segment(seq=self.snd_nxt, payload=0, fin=True)
            self._fin_sent = True
            self.snd_nxt += 1
            self.state = (TcpState.FIN_WAIT_1 if self.state is TcpState.ESTABLISHED
                          else TcpState.LAST_ACK)
            if not self._rto_timer.running:
                self._rto_timer.start(self.rtt.rto)

    def _retransmit_head(self) -> None:
        if self.state is TcpState.SYN_SENT:
            self._send_segment(seq=0, payload=0, syn=True, ack=False, retransmission=True)
            return
        if self.state is TcpState.SYN_RCVD:
            self._send_segment(seq=0, payload=0, syn=True, ack=True, retransmission=True)
            return
        if self._fin_sent and self._fin_seq is not None and self.snd_una == self._fin_seq:
            self._send_segment(seq=self._fin_seq, payload=0, fin=True, retransmission=True)
            return
        data_end = self._fin_seq if self._fin_sent and self._fin_seq is not None else self.snd_nxt
        size = min(self.mss, max(0, data_end - self.snd_una))
        if size > 0:
            self._send_segment(seq=self.snd_una, payload=size, retransmission=True)

    def _on_rto(self) -> None:
        if self.snd_una == self.snd_nxt and self.state not in (TcpState.SYN_SENT,
                                                               TcpState.SYN_RCVD):
            return
        self.timeouts += 1
        self._consecutive_timeouts += 1
        self.cc.on_timeout(self.flight_size)
        self.rtt.on_timeout()
        self._dup_acks = 0
        self._timed_seq = None
        self._retransmit_head()
        delay = self.rtt.rto
        if (self.idle_reprobe
                and self._consecutive_timeouts >= REPROBE_AFTER_TIMEOUTS
                and delay > REPROBE_INTERVAL):
            # Bounded idle re-probe: keep poking the path at a fixed cadence
            # instead of riding the exponential backoff, so recovery latency
            # after an outage is bounded by REPROBE_INTERVAL.
            delay = REPROBE_INTERVAL
            self.reprobes_sent += 1
        self._rto_timer.start(delay)

    # ------------------------------------------------------------------
    # Segment reception
    # ------------------------------------------------------------------
    def on_segment(self, packet: Packet) -> None:
        """Process an incoming segment belonging to this connection."""
        header = packet.tcp
        if header is None:  # pragma: no cover - defensive
            return

        if self.state is TcpState.SYN_SENT:
            if header.flags_syn and header.flags_ack and header.ack >= 1:
                self.rcv_nxt = header.seq + 1
                self.snd_una = 1
                self._complete_rtt_sample()
                self.state = TcpState.ESTABLISHED
                self._rto_timer.cancel()
                self._send_pure_ack()
                if self.on_established is not None:
                    self.on_established()
                self._try_send()
            return

        if self.state is TcpState.SYN_RCVD:
            if header.flags_ack and header.ack >= 1:
                self.snd_una = max(self.snd_una, 1)
                self.state = TcpState.ESTABLISHED
                self._rto_timer.cancel()
                if self.on_established is not None:
                    self.on_established()
            # fall through: the ACK may carry data.

        if header.flags_ack:
            self._process_ack(header)
        if packet.payload_bytes > 0:
            self._process_data(header.seq, packet.payload_bytes)
        if header.flags_fin:
            self._process_fin(header, packet.payload_bytes)

    # ------------------------------------------------------------------
    # ACK processing (sender side)
    # ------------------------------------------------------------------
    def _process_ack(self, header: TcpHeader) -> None:
        ackno = header.ack
        self.peer_window = header.window

        if ackno > self.snd_una:
            newly = ackno - self.snd_una
            self.snd_una = ackno
            self.rtt.reset_backoff()
            self._consecutive_timeouts = 0
            self._complete_rtt_sample(ackno)

            if self.cc.in_fast_recovery:
                if ackno > self._recover:
                    self.cc.on_exit_fast_recovery()
                    self._dup_acks = 0
                else:
                    # NewReno partial ACK: retransmit the next missing segment.
                    self.cc.on_partial_ack(newly)
                    self._retransmit_head()
            else:
                self.cc.on_new_ack(newly)
                self._dup_acks = 0

            if self.snd_una == self.snd_nxt:
                self._rto_timer.cancel()
                self._handle_everything_acked()
            else:
                self._rto_timer.start(self.rtt.rto)
            self._try_send()
            return

        if (ackno == self.snd_una and self.flight_size > 0 and not header.flags_syn
                and not header.flags_fin):
            self._dup_acks += 1
            if self._dup_acks == 3 and not self.cc.in_fast_recovery:
                self._recover = self.snd_nxt
                self.cc.on_enter_fast_recovery(self.flight_size)
                self._retransmit_head()
            elif self.cc.in_fast_recovery:
                self.cc.on_dup_ack_in_recovery()
                self._try_send()

    def _complete_rtt_sample(self, ackno: Optional[int] = None) -> None:
        if self._timed_seq is None:
            return
        if ackno is None or ackno > self._timed_seq:
            self.rtt.on_measurement(self.sim.now - self._timed_at)
            self._timed_seq = None

    def _handle_everything_acked(self) -> None:
        if self._fin_sent and self.snd_una == (self._fin_seq or 0) + 1:
            if self.state is TcpState.FIN_WAIT_1:
                self.state = TcpState.FIN_WAIT_2
                if self.peer_fin_received:
                    self._become_closed()
            elif self.state is TcpState.LAST_ACK:
                self._become_closed()
        if (self.send_buffer_bytes == 0 and not self._fin_sent
                and self.on_send_complete is not None):
            self.on_send_complete()

    # ------------------------------------------------------------------
    # Data processing (receiver side)
    # ------------------------------------------------------------------
    def _process_data(self, seq: int, length: int) -> None:
        if seq == self.rcv_nxt:
            self._deliver(length)
            self.rcv_nxt += length
            while self.rcv_nxt in self._out_of_order:
                pending = self._out_of_order.pop(self.rcv_nxt)
                self._deliver(pending)
                self.rcv_nxt += pending
        elif seq > self.rcv_nxt:
            self._out_of_order[seq] = length
        # An ACK is sent for every received data segment (no delayed ACK),
        # matching the ACK-per-segment traffic pattern the paper measures.
        self._send_pure_ack()

    def _deliver(self, length: int) -> None:
        self.bytes_received += length
        if self.on_data_received is not None:
            self.on_data_received(length)

    # ------------------------------------------------------------------
    # FIN processing
    # ------------------------------------------------------------------
    def _process_fin(self, header: TcpHeader, payload: int) -> None:
        fin_seq = header.seq + payload
        if fin_seq != self.rcv_nxt:
            # Out-of-order FIN: acknowledge what we have.
            self._send_pure_ack()
            return
        self.rcv_nxt += 1
        self.peer_fin_received = True
        self._send_segment(seq=self.snd_nxt, payload=0)  # ACK the FIN
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
        elif self.state in (TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2):
            self._become_closed()
        if self.on_closed is not None and self.state is TcpState.CLOSE_WAIT:
            # Notify the application that the peer finished sending.
            self.on_closed()

    def _become_closed(self) -> None:
        previous = self.state
        self.state = TcpState.CLOSED
        self._rto_timer.cancel()
        if self.on_closed is not None and previous is not TcpState.CLOSE_WAIT:
            self.on_closed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TcpConnection {self.local_ip}:{self.local_port}->"
                f"{self.remote_ip}:{self.remote_port} {self.state.value} "
                f"una={self.snd_una} nxt={self.snd_nxt} rcv={self.rcv_nxt}>")
