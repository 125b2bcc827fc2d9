"""IPv4 / MAC address helpers.

Addresses are stored internally as integers (fast masking and comparison in
the flow-table lookup path) and converted to dotted / colon notation only for
display.
"""

from __future__ import annotations


def ip_to_int(address: str | int) -> int:
    """Convert ``"10.0.0.1"`` (or an already-converted int) to a 32-bit integer."""
    if isinstance(address, int):
        if not 0 <= address <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 integer out of range: {address}")
        return address
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad notation."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mac_to_int(address: str | int) -> int:
    """Convert ``"00:00:00:00:00:01"`` (or an int) to a 48-bit integer."""
    if isinstance(address, int):
        if not 0 <= address <= 0xFFFFFFFFFFFF:
            raise ValueError(f"MAC integer out of range: {address}")
        return address
    parts = address.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part, 16)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed MAC address: {address!r}")
        value = (value << 8) | octet
    return value


def int_to_mac(value: int) -> str:
    """Convert a 48-bit integer to colon-separated hex notation."""
    if not 0 <= value <= 0xFFFFFFFFFFFF:
        raise ValueError(f"MAC integer out of range: {value}")
    return ":".join(f"{(value >> shift) & 0xFF:02x}" for shift in (40, 32, 24, 16, 8, 0))


def prefix_mask(prefix_length: int) -> int:
    """32-bit network mask for an IPv4 prefix length (``/24`` -> ``0xFFFFFF00``)."""
    if not 0 <= prefix_length <= 32:
        raise ValueError(f"prefix length out of range: {prefix_length}")
    if prefix_length == 0:
        return 0
    return (0xFFFFFFFF << (32 - prefix_length)) & 0xFFFFFFFF
