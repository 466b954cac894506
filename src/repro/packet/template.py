"""Flyweight packet templates: build once, emit forever.

Traffic sources emit the same few frames millions of times; rebuilding
headers — or even re-parsing them — per emission dominates generation
cost at simulation scale.  A :class:`PacketTemplate` owns one immutable
frame, parses it exactly once, and stamps every packet it mints with a
**class signature**: a stable digest of ``(ingress port, frame bytes)``
computed once per template.  The ISS replay cache and the fluid
signature key on it, so the contract is strict — two packets share a
class key only if their frame bytes and ingress port are identical.

Templates are interned (one instance per distinct ``(port, bytes)``),
which keeps the signature computation amortized even when sources are
rebuilt per sweep point; the digest is content-based, so it is the
same in every process that generates the same flows.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

from .packet import Packet, ParsedHeaders

_interned: Dict[Tuple[int, bytes], "PacketTemplate"] = {}
#: Bound on the intern table (distinct templates per process); beyond
#: it templates still work, they just stop being shared.
_INTERN_LIMIT = 65536


class PacketTemplate:
    """One prebuilt frame + its parse + its class signature."""

    __slots__ = ("data", "port", "class_key", "_parsed")

    def __init__(self, data: bytes, port: int = 0) -> None:
        self.data = bytes(data)
        self.port = port
        self.class_key = (
            "t:" + hashlib.sha1(port.to_bytes(4, "big") + self.data).hexdigest()
        )
        self._parsed: Optional[ParsedHeaders] = None

    @property
    def parsed(self) -> ParsedHeaders:
        """The shared parse — computed once, handed (read-only, by
        convention) to every packet minted from this template."""
        if self._parsed is None:
            probe = Packet(self.data)
            self._parsed = probe.parsed
        return self._parsed

    def make_packet(
        self,
        is_attack: bool = False,
        flow_id: Optional[int] = None,
        seq_index: int = 0,
    ) -> Packet:
        """Mint a packet sharing this template's bytes, parse, and class
        key.  Consumers that mutate ``data`` must go through
        :meth:`Packet.mark_mutated`, which severs both shared caches."""
        packet = Packet(
            self.data,
            ingress_port=self.port,
            is_attack=is_attack,
            flow_id=flow_id,
            seq_index=seq_index,
        )
        packet.class_key = self.class_key
        packet._parsed = self.parsed
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PacketTemplate {len(self.data)}B port={self.port}>"


def intern_template(data: bytes, port: int = 0) -> PacketTemplate:
    """The canonical template for ``(port, data)`` — one instance per
    distinct frame, so class keys and parses are shared process-wide."""
    key = (port, bytes(data))
    template = _interned.get(key)
    if template is None:
        template = PacketTemplate(key[1], port)
        if len(_interned) < _INTERN_LIMIT:
            _interned[key] = template
    return template
