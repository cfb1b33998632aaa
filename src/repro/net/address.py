"""IPv4-style addressing.

Addresses are modelled as 32-bit integers with the familiar dotted-quad
syntax.  The experiments only ever need a handful of host addresses in one
subnet, but the type is a proper value object so routing tables and TCP
connection tuples behave predictably.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Union

from repro.errors import AddressError


@total_ordering
class IpAddress:
    """An IPv4-style address.

    Immutable: ``IpAddress(address)`` returns ``address`` itself, so every
    layer of a node that normalises its address holds the one object.
    """

    __slots__ = ("_value",)

    def __new__(cls, value: Union[int, str, "IpAddress"]) -> "IpAddress":
        if type(value) is cls:
            return value
        self = object.__new__(cls)
        if isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise AddressError(f"IP address integer out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            self._value = self._parse(value)
        else:
            raise AddressError(f"cannot build IpAddress from {value!r}")
        return self

    def __reduce__(self):
        # ``__new__`` needs the value, which default pickling would not pass.
        return (type(self), (self._value,))

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

    def __eq__(self, other: object) -> bool:
        # Fast path: address-to-address comparison is the hot case (routing
        # tables, delivery checks); coercion is only for int/str literals.
        if type(other) is IpAddress:
            return self._value == other._value
        if isinstance(other, (IpAddress, int, str)):
            try:
                return self._value == IpAddress(other)._value  # type: ignore[arg-type]
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "IpAddress") -> bool:
        if type(other) is IpAddress:
            return self._value < other._value
        return self._value < IpAddress(other)._value
