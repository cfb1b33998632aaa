"""One-way TCP file transfer.

The paper's TCP workload (Section 5) is a one-way transfer of a 0.2 MB file
with an MSS of 1357 bytes.  :class:`FileTransferSender` opens the connection,
writes the whole file and closes; :class:`FileTransferReceiver` accepts the
connection, counts the delivered bytes and records the completion time.
End-to-end throughput is file size divided by the time from the start of the
transfer to the arrival of the last byte.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.address import IpAddress
from repro.transport.tcp.connection import PAPER_MSS, TcpConnection
from repro.units import megabytes, throughput_mbps

#: The paper's file size: 0.2 Mbyte.
PAPER_FILE_BYTES = megabytes(0.2)


class FileTransferSender:
    """Sends a fixed-size file over a new TCP connection."""

    def __init__(self, node, destination: IpAddress, destination_port: int = 5001,
                 file_bytes: int = PAPER_FILE_BYTES, mss: int = PAPER_MSS,
                 connection_options: Optional[dict] = None,
                 name: Optional[str] = None) -> None:
        if file_bytes <= 0:
            raise ConfigurationError("file size must be positive")
        self.node = node
        self.sim = node.sim
        self.destination = IpAddress(destination)
        self.destination_port = destination_port
        self.file_bytes = file_bytes
        self.mss = mss
        self.connection_options = dict(connection_options or {})
        self.name = name or f"ftp-send-{node.index}"
        self.connection: Optional[TcpConnection] = None
        self.start_time: Optional[float] = None
        self.acked_time: Optional[float] = None

    def start(self, delay: float = 0.0) -> None:
        """Open the connection and start the transfer after ``delay`` seconds."""
        self.sim.schedule(delay, self._begin)

    def _begin(self) -> None:
        self.start_time = self.sim.now
        self.connection = self.node.tcp.connect(self.destination, self.destination_port,
                                                mss=self.mss, **self.connection_options)
        self.connection.on_established = self._on_established
        self.connection.on_send_complete = self._on_send_complete

    def _on_established(self) -> None:
        assert self.connection is not None
        self.connection.send(self.file_bytes)
        self.connection.close()

    def _on_send_complete(self) -> None:
        self.acked_time = self.sim.now


class FileTransferReceiver:
    """Accepts a TCP connection and records when the whole file has arrived."""

    def __init__(self, node, local_port: int = 5001,
                 expected_bytes: int = PAPER_FILE_BYTES, name: Optional[str] = None) -> None:
        self.node = node
        self.sim = node.sim
        self.local_port = local_port
        self.expected_bytes = expected_bytes
        self.name = name or f"ftp-recv-{node.index}"
        self.connection: Optional[TcpConnection] = None
        self.bytes_received = 0
        self.accept_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        node.tcp.listen(local_port, self._on_accept)

    def _on_accept(self, connection: TcpConnection) -> None:
        self.connection = connection
        self.accept_time = self.sim.now
        connection.on_data_received = self._on_data

    def _on_data(self, nbytes: int) -> None:
        self.bytes_received += nbytes
        if self.bytes_received >= self.expected_bytes and self.completion_time is None:
            self.completion_time = self.sim.now

    @property
    def complete(self) -> bool:
        """True once the expected number of bytes has been delivered in order."""
        return self.completion_time is not None

    def throughput_mbps(self, transfer_start: float) -> float:
        """End-to-end throughput of the transfer in Mbps (0 if incomplete)."""
        if self.completion_time is None or self.completion_time <= transfer_start:
            return 0.0
        return throughput_mbps(self.bytes_received, self.completion_time - transfer_start)


def run_file_transfer_pair(sender_node, receiver_node, file_bytes: int = PAPER_FILE_BYTES,
                           port: int = 5001, mss: int = PAPER_MSS,
                           connection_options: Optional[dict] = None,
                           ) -> Tuple[FileTransferSender, FileTransferReceiver]:
    """Convenience: wire up a sender and receiver for a one-way transfer.

    ``connection_options`` are forwarded to the sender's
    :class:`~repro.transport.tcp.connection.TcpConnection` (e.g.
    ``{"idle_reprobe": True}`` for the outage mitigation).
    """
    receiver = FileTransferReceiver(receiver_node, local_port=port, expected_bytes=file_bytes)
    sender = FileTransferSender(sender_node, destination=receiver_node.ip,
                                destination_port=port, file_bytes=file_bytes, mss=mss,
                                connection_options=connection_options)
    sender.start()
    return sender, receiver
