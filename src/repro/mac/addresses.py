"""Link-layer (MAC) addresses."""

from __future__ import annotations

from repro.errors import AddressError


class MacAddress:
    """A 48-bit link-layer address.

    Nodes get theirs from :meth:`node`; the broadcast address is
    :data:`BROADCAST_MAC`.
    """

    __slots__ = ("_value",)

    BROADCAST_VALUE = 0xFFFFFFFFFFFF

    def __init__(self, value: int):
        if not isinstance(value, int) or not 0 <= value <= self.BROADCAST_VALUE:
            raise AddressError(f"MAC address integer out of range: {value!r}")
        self._value = value

    @classmethod
    def node(cls, index: int) -> "MacAddress":
        """Locally administered address for node ``index`` (1-based)."""
        if index <= 0 or index > 0xFFFFFF:
            raise AddressError(f"node index out of range: {index}")
        return cls(0x020000000000 | index)

    @property
    def is_broadcast(self) -> bool:
        """True for the all-ones broadcast address."""
        return self._value == self.BROADCAST_VALUE

    def __str__(self) -> str:
        octets = [(self._value >> shift) & 0xFF for shift in range(40, -8, -8)]
        return ":".join(f"{octet:02x}" for octet in octets)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __hash__(self) -> int:
        return hash(self._value)

    def __eq__(self, other: object) -> bool:
        if type(other) is MacAddress:
            return self._value == other._value
        return NotImplemented


#: The all-ones broadcast MAC address.
BROADCAST_MAC = MacAddress(MacAddress.BROADCAST_VALUE)
