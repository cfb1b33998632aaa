"""IPv4-style addressing.

Addresses are modelled as 32-bit integers with the familiar dotted-quad
syntax.  The experiments only ever need a handful of host addresses in one
subnet, but the type is a proper value object so routing tables and TCP
connection tuples behave predictably.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.errors import AddressError

#: The one :class:`IpAddress` of each value built so far, by value.  It
#: holds one entry per distinct address a process ever names: the nodes'
#: own, the broadcast address, the parsed network bases and those that
#: arrive in pickles.
_INTERNED: Dict[int, "IpAddress"] = {}


class IpAddress:
    """An IPv4-style address.

    ``IpAddress(value)`` returns the one address of that value, whether
    ``value`` is an int, a dotted-quad string or an address (which comes
    back itself), so two equal addresses are the same object and equality
    is identity, compared in C.  An address hashes as its value, which keeps
    the order of any set of addresses the same in every process; pickling
    and copying also return the interned object.  Addresses order by value,
    for sorted routing tables; they do not compare with ints or strings.
    """

    __slots__ = ("_value",)

    def __new__(cls, value: Union[int, str, "IpAddress"]) -> "IpAddress":
        if type(value) is cls:
            return value
        address = _INTERNED.get(value) if type(value) is int else None
        if address is None:
            if isinstance(value, int):
                if not 0 <= value <= 0xFFFFFFFF:
                    raise AddressError(f"IP address integer out of range: {value}")
                value = int(value)
            elif isinstance(value, str):
                value = cls._parse(value)
            else:
                raise AddressError(f"cannot build IpAddress from {value!r}")
            address = _INTERNED.get(value)
            if address is None:
                address = _INTERNED[value] = object.__new__(cls)
                address._value = value
        return address

    def __reduce__(self):
        # Unpickling and deepcopy call IpAddress(value): the interned object.
        return (IpAddress, (self._value,))

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address {text!r}")
        value = 0
        for part in parts:
            try:
                octet = int(part)
            except ValueError:
                raise AddressError(f"malformed IPv4 address {text!r}") from None
            if not 0 <= octet <= 255:
                raise AddressError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return value

    @classmethod
    def host(cls, index: int, network: str = "10.0.0.0") -> "IpAddress":
        """Convenience: the ``index``-th host inside ``network`` (index starts at 1)."""
        base = cls(network)
        return cls(base._value + index)

    @property
    def value(self) -> int:
        """The address as a 32-bit integer."""
        return self._value

    def __str__(self) -> str:
        v = self._value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IpAddress('{self}')"

    def __hash__(self) -> int:
        return hash(self._value)

    # No __eq__: interning makes the inherited identity comparison exact.

    def __lt__(self, other: "IpAddress") -> bool:
        return self._value < other._value
