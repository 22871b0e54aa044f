"""Hierarchical-name helpers shared by netlist builders and generators.

All generated instances and nets use ``/`` as the hierarchy separator and
``[i]`` for bit indices, e.g. ``alu/adder/carry[3]``.  A :class:`NameScope`
hands out unique names within one netlist so that generators (adders, delay
lines, controllers) can be instantiated repeatedly without collisions.
"""

from __future__ import annotations

import re

from repro.utils.errors import VerilogError

HIER_SEP = "/"

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def is_simple_identifier(name: str) -> bool:
    """Return True for a plain Verilog-style identifier (no hierarchy)."""
    return bool(_IDENT_RE.match(name))


def bit_name(base: str, index: int) -> str:
    """Name of bit ``index`` of the vector ``base``: ``base[index]``."""
    return f"{base}[{index}]"


def split_bit(name: str) -> tuple[str, int | None]:
    """Split ``base[i]`` into ``(base, i)``; plain names give ``(name, None)``."""
    match = re.match(r"^(.*)\[(\d+)\]$", name)
    if match:
        return match.group(1), int(match.group(2))
    return name, None


def join(*parts: str) -> str:
    """Join hierarchical name components with the hierarchy separator."""
    return HIER_SEP.join(part for part in parts if part)


# ----------------------------------------------------------------------
# Handshake-fabric net names.  These are the shared vocabulary between
# the network builder (repro.desync.network), which builds every
# controller, and every consumer that inspects a de-synchronized netlist
# (hold verification, mutation tests, power accounting) — defined once
# here so producer and consumers cannot drift apart.
# ----------------------------------------------------------------------

def clock_net_name(bank: str) -> str:
    """Net carrying the local clock of cluster ``bank``."""
    return f"lt:{bank}"


def inverted_clock_name(bank: str) -> str:
    """Net carrying the complement of ``lt:<bank>`` (shared per bank)."""
    return f"ltn:{bank}"


def request_net_name(pred: str, succ: str) -> str:
    """Net carrying the matched-delay request of one adjacency."""
    return f"req:{pred}>{succ}"


def token_net_name(pred: str, succ: str) -> str:
    """Net carrying the request-token state of one adjacency."""
    return f"tok:{pred}>{succ}"


def ack_net_name(pred: str, succ: str) -> str:
    """Net carrying the acknowledge token state of one adjacency."""
    return f"ack:{pred}>{succ}"


def escape_verilog(name: str) -> str:
    """Return a Verilog-safe identifier for ``name``.

    Plain identifiers pass through; anything containing hierarchy
    separators or bit selects becomes an escaped identifier
    (``\\name `` with the mandatory trailing space).  Names containing
    whitespace cannot be represented at all — the whitespace would
    terminate the escaped identifier — so they are rejected.
    """
    if is_simple_identifier(name):
        return name
    if not name or any(char.isspace() for char in name):
        raise VerilogError(
            f"name {name!r} cannot be emitted as a Verilog identifier: "
            "it is empty or contains whitespace")
    return f"\\{name} "


class NameScope:
    """Allocator of unique names within one namespace.

    >>> scope = NameScope()
    >>> scope.unique("u")
    'u'
    >>> scope.unique("u")
    'u_1'
    """

    def __init__(self, taken: set[str] | None = None):
        self._taken: set[str] = set(taken) if taken else set()
        self._counters: dict[str, int] = {}

    def reserve(self, name: str) -> str:
        """Mark ``name`` as taken, failing silently if it already is."""
        self._taken.add(name)
        return name

    def __contains__(self, name: str) -> bool:
        return name in self._taken

    def unique(self, base: str) -> str:
        """Return ``base`` if free, otherwise ``base_N`` with the next N."""
        if base not in self._taken:
            self._taken.add(base)
            return base
        counter = self._counters.get(base, 0)
        candidate = base
        while candidate in self._taken:
            counter += 1
            candidate = f"{base}_{counter}"
        self._counters[base] = counter
        self._taken.add(candidate)
        return candidate
