"""Link-layer (MAC) addresses."""

from __future__ import annotations

from typing import Dict

from repro.errors import AddressError

#: The one :class:`MacAddress` of each value built so far, by value.  It
#: holds one entry per distinct address a process ever names: a node's
#: own, the broadcast address and those that arrive in pickles.
_INTERNED: Dict[int, "MacAddress"] = {}


class MacAddress:
    """A 48-bit link-layer address.

    Nodes get theirs from :meth:`node`; the broadcast address is
    :data:`BROADCAST_MAC`.  ``MacAddress(value)`` returns the one address
    of that value, so two equal addresses are the same object and
    equality is identity, compared in C.  An address hashes as its value,
    which keeps the order of any set of addresses the same in every
    process; pickling and copying also return the interned object.
    """

    __slots__ = ("_value",)

    BROADCAST_VALUE = 0xFFFFFFFFFFFF

    def __new__(cls, value: int) -> "MacAddress":
        address = _INTERNED.get(value) if type(value) is int else None
        if address is None:
            if not isinstance(value, int) or not 0 <= value <= cls.BROADCAST_VALUE:
                raise AddressError(f"MAC address integer out of range: {value!r}")
            value = int(value)
            address = _INTERNED.get(value)
            if address is None:
                address = _INTERNED[value] = object.__new__(cls)
                address._value = value
        return address

    def __reduce__(self):
        # Unpickling and deepcopy call MacAddress(value): the interned object.
        return (MacAddress, (self._value,))

    @classmethod
    def node(cls, index: int) -> "MacAddress":
        """Locally administered address for node ``index`` (1-based)."""
        if index <= 0 or index > 0xFFFFFF:
            raise AddressError(f"node index out of range: {index}")
        return cls(0x020000000000 | index)

    @property
    def is_broadcast(self) -> bool:
        """True for the all-ones broadcast address."""
        return self is BROADCAST_MAC

    def __str__(self) -> str:
        octets = [(self._value >> shift) & 0xFF for shift in range(40, -8, -8)]
        return ":".join(f"{octet:02x}" for octet in octets)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __hash__(self) -> int:
        return hash(self._value)

    # No __eq__: interning makes the inherited identity comparison exact.


#: The all-ones broadcast MAC address.
BROADCAST_MAC = MacAddress(MacAddress.BROADCAST_VALUE)
