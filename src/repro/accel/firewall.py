"""The blacklist-firewall IP matcher (§7.2).

The paper generates Verilog from the 1050-entry "emerging threats"
blacklist with a Python script; the accelerator checks the first 9 bits
of the source IP in one cycle and the remaining bits the next cycle —
a two-cycle lookup.  Here the same structure is a two-level dict: a
first-level table keyed by the top 9 bits, each entry holding the set
of (remaining-bits, prefix-length) patterns to check in stage two.

Register map (matches the firmware listing in Appendix C):

========  =====================================================
offset    register
========  =====================================================
0x00      ``ACC_SRC_IP`` (write: IP to check, starts the lookup)
0x04      ``ACC_FW_MATCH`` (read: 1 if blacklisted)
========  =====================================================
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from ..packet.headers import int_to_ip, ip_to_int
from .base import Accelerator

#: Cycles for one lookup: stage-1 (9 bits) + stage-2 (remaining bits).
LOOKUP_CYCLES = 2

_RULE_RE = re.compile(
    r"^(?:block\s+)?(?:drop\s+)?(?:quick\s+)?(?:from\s+)?"
    r"(\d+\.\d+\.\d+\.\d+)(?:/(\d+))?"
)


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix in the blacklist."""

    network: int
    length: int

    def matches(self, ip: int) -> bool:
        if self.length == 0:
            return True
        shift = 32 - self.length
        return (ip >> shift) == (self.network >> shift)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


def parse_blacklist(text: str) -> List[Prefix]:
    """Parse pf/emerging-threats style drop rules into prefixes.

    Accepts lines like ``block drop from 192.0.2.0/24 to any`` or bare
    ``192.0.2.1`` entries; comments (#) and blanks are skipped.
    """
    prefixes: List[Prefix] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip().lower()
        if not line:
            continue
        match = _RULE_RE.search(line)
        if not match:
            raise ValueError(f"unparseable blacklist rule: {raw!r}")
        network = ip_to_int(match.group(1))
        length = int(match.group(2)) if match.group(2) else 32
        if not 0 <= length <= 32:
            raise ValueError(f"bad prefix length in {raw!r}")
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        prefixes.append(Prefix(network & mask, length))
    return prefixes


class IpBlacklistMatcher(Accelerator):
    """The two-stage prefix-match accelerator.

    Stage one indexes the top 9 bits of the IP; stage two linearly
    checks the (tiny) per-bucket pattern list — in hardware both are
    single-cycle because each bucket is a parallel comparator bank.
    """

    name = "ip_blacklist"

    REG_SRC_IP = 0x00
    REG_MATCH = 0x04

    def __init__(self, prefixes: Iterable[Prefix]) -> None:
        super().__init__()
        self.prefixes: List[Prefix] = list(prefixes)
        self._stage1: Dict[int, List[Prefix]] = {}
        self._wildcards: List[Prefix] = []  # prefixes shorter than 9 bits
        for prefix in self.prefixes:
            if prefix.length < 9:
                self._wildcards.append(prefix)
                continue
            bucket = prefix.network >> 23
            self._stage1.setdefault(bucket, []).append(prefix)
        self._match_flag = 0
        self.lookups = 0
        self.define_register(self.REG_SRC_IP, 4, write=self._write_ip)
        self.define_register(
            self.REG_MATCH, 1, read=lambda: self._match_flag, value_range=(0, 1)
        )

    def __repr__(self) -> str:
        # the rules, not the address: a spec carrying this matcher keeps one cache key
        digest = hashlib.sha256(",".join(map(str, self.prefixes)).encode()).hexdigest()
        return f"IpBlacklistMatcher({len(self.prefixes)} prefixes, sha256:{digest})"

    def _write_ip(self, ip: int) -> None:
        # firmware does a little-endian word load of the network-order
        # IP bytes (like the paper's C code); the generated hardware
        # comparators are wired for that representation, which here
        # means byte-swapping back to host order
        swapped = (
            ((ip & 0xFF) << 24)
            | ((ip & 0xFF00) << 8)
            | ((ip >> 8) & 0xFF00)
            | ((ip >> 24) & 0xFF)
        )
        self._match_flag = int(self.check(swapped))

    def check(self, ip: int) -> bool:
        """Functional lookup: is ``ip`` blacklisted?"""
        self.lookups += 1
        for prefix in self._stage1.get(ip >> 23, ()):
            if prefix.matches(ip):
                return True
        for prefix in self._wildcards:
            if prefix.matches(ip):
                return True
        return False

    @property
    def lookup_cycles(self) -> int:
        return LOOKUP_CYCLES

    def replay_token(self):
        # MMIO reads expose only the match flag; the prefix tables are
        # immutable after construction, so (fault arm, flag) is the
        # whole mutable slice a bracket's reads can depend on
        return (self._fault_active, self._match_flag)


def generate_blacklist(n_rules: int = 1050, seed: int = 7) -> str:
    """A synthetic stand-in for the emerging-threats PF-DROP list.

    Deterministic, mixes /32 hosts with a sprinkling of /24 and /16
    networks like the real list, and avoids RFC1918 space so test
    traffic can be crafted on either side of the list.
    """
    import random

    rng = random.Random(seed)
    lines = ["# synthetic emerging-threats style blacklist"]
    seen: Set[Tuple[int, int]] = set()
    while len(seen) < n_rules:
        roll = rng.random()
        if roll < 0.85:
            length = 32
        elif roll < 0.97:
            length = 24
        else:
            length = 16
        # public-ish space: first octet 11..200, skipping 127
        first = rng.choice([o for o in range(11, 200) if o != 127 and o != 192])
        ip = (
            (first << 24)
            | (rng.randrange(256) << 16)
            | (rng.randrange(256) << 8)
            | rng.randrange(256)
        )
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        key = (ip & mask, length)
        if key in seen:
            continue
        seen.add(key)
        lines.append(f"block drop from {int_to_ip(key[0])}/{length} to any")
    return "\n".join(lines) + "\n"


def generate_verilog(prefixes: Iterable[Prefix], module_name: str = "fw_ip_match") -> str:
    """Emit the Verilog the paper's script would generate.

    Not consumed anywhere in the simulation — it exists to demonstrate
    (and test) the rule-compiler path of the case study: a two-stage
    comparator tree over the 9-bit index and the remaining bits.
    """
    prefixes = list(prefixes)
    lines = [
        f"module {module_name} (",
        "    input wire clk,",
        "    input wire [31:0] src_ip,",
        "    output reg match",
        ");",
        "  reg [8:0] stage1_idx;",
        "  reg [22:0] stage1_rest;",
        "  always @(posedge clk) begin",
        "    stage1_idx  <= src_ip[31:23];",
        "    stage1_rest <= src_ip[22:0];",
        "    match <= 1'b0;",
        "    case (stage1_idx)",
    ]
    buckets: Dict[int, List[Prefix]] = {}
    for prefix in prefixes:
        buckets.setdefault(prefix.network >> 23, []).append(prefix)
    for bucket in sorted(buckets):
        terms = []
        for prefix in buckets[bucket]:
            rest_bits = prefix.length - 9
            if rest_bits <= 0:
                terms.append("1'b1")
                continue
            rest_value = (prefix.network >> (32 - prefix.length)) & ((1 << rest_bits) - 1)
            hi = 22
            lo = 23 - rest_bits
            terms.append(f"(stage1_rest[{hi}:{lo}] == {rest_bits}'d{rest_value})")
        lines.append(f"      9'd{bucket}: match <= {' || '.join(terms)};")
    lines += [
        "      default: match <= 1'b0;",
        "    endcase",
        "  end",
        "endmodule",
    ]
    return "\n".join(lines) + "\n"
