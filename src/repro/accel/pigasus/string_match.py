"""The Pigasus multi-string pattern matcher, ported to an RPU (§7.1).

Functionally this is exact multi-pattern search over packet payloads
(Aho–Corasick, which is what a bank of parallel hash-probed shift
registers computes in aggregate).  The performance model follows the
RPU port: 16 parallel string-matching engines, together consuming
16 bytes of payload per cycle (§7.1.4), fed by the DMA engine from
packet memory.

The port's key Rosebud-enabled feature is *runtime table loading*: the
big hash/lookup tables live in URAM, which cannot be initialized from
the bitstream, so Rosebud's memory subsystem fills them at runtime —
and can refresh them later to change the ruleset without a new FPGA
image (§7.1.2).  :meth:`load_rules` is that operation; until it has
been called the matcher reports itself unready, like uninitialized
hardware.

Search is a pure function of (tables, payload), so each automaton
memoises it by payload content, counting hits and misses; :meth:`load_rules`
builds a fresh automaton, so a table load is the memo's only invalidation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .ruleset import Rule
from ..base import Accelerator

#: Paper: 16 engines inside each RPU, 16 payload bytes consumed per cycle.
ENGINES_PER_RPU = 16
BYTES_PER_CYCLE = 16

#: Cycles to stream one table word into URAM over the added write port.
TABLE_LOAD_BYTES_PER_CYCLE = 16

#: Capacity of the hardware match FIFO, end-of-packet marker included.
#: This is a *verified contract*: the wrapper declares it as
#: ``stream_depth`` on ``REG_RULE_ID``, the static verifier bounds
#: firmware drain loops by it, so the functional model must enforce it
#: (overflowing matches are dropped and counted, as the RTL would).
MATCH_FIFO_DEPTH = 8

#: Payloads one automaton's memo holds; it stops growing, never evicts.
MEMO_CAPACITY = 1024


class AhoCorasick:
    """A plain Aho–Corasick automaton over byte strings, search memoised by content."""

    def __init__(self, patterns: Dict[bytes, int]) -> None:
        """``patterns`` maps pattern bytes -> opaque id (rule sid)."""
        if not patterns:
            raise ValueError("need at least one pattern")
        # goto function as list of dicts; output sets per state
        self._goto: List[Dict[int, int]] = [{}]
        self._fail: List[int] = [0]
        self._output: List[Set[int]] = [set()]
        for pattern, pid in patterns.items():
            if not pattern:
                raise ValueError("empty pattern")
            state = 0
            for byte in pattern:
                nxt = self._goto[state].get(byte)
                if nxt is None:
                    self._goto.append({})
                    self._fail.append(0)
                    self._output.append(set())
                    nxt = len(self._goto) - 1
                    self._goto[state][byte] = nxt
                state = nxt
            self._output[state].add(pid)
        # BFS to build failure links
        queue = deque()
        for state in self._goto[0].values():
            queue.append(state)
        while queue:
            state = queue.popleft()
            for byte, nxt in self._goto[state].items():
                queue.append(nxt)
                fail = self._fail[state]
                while fail and byte not in self._goto[fail]:
                    fail = self._fail[fail]
                self._fail[nxt] = self._goto[fail].get(byte, 0)
                if self._fail[nxt] == nxt:
                    self._fail[nxt] = 0
                self._output[nxt] |= self._output[self._fail[nxt]]

        self._memo: Dict[bytes, Tuple[Tuple[int, int], ...]] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    @property
    def n_states(self) -> int:
        return len(self._goto)

    def search(self, data: bytes) -> List[Tuple[int, int]]:
        """All matches as (end_offset, pattern_id), in stream order."""
        key = bytes(data)
        memo = self._memo.get(key)
        if memo is not None:
            self.memo_hits += 1
            return list(memo)
        self.memo_misses += 1
        matches: List[Tuple[int, int]] = []
        state = 0
        for offset, byte in enumerate(key):
            while state and byte not in self._goto[state]:
                state = self._fail[state]
            state = self._goto[state].get(byte, 0)
            if self._output[state]:
                for pid in sorted(self._output[state]):
                    matches.append((offset, pid))
        if len(self._memo) < MEMO_CAPACITY:
            self._memo[key] = tuple(matches)
        return matches


class PigasusStringMatcher(Accelerator):
    """The ported fast-pattern matcher with its MMIO wrapper registers.

    Register map (subset of the Appendix B listing)::

        0x00  ACC_PIG_CTRL   (write 1: start, write 2: release match/EoP)
        0x00  ACC_PIG_MATCH  (read: 1 when a match word is waiting)
        0x04  ACC_DMA_LEN    (payload length)
        0x08  ACC_DMA_ADDR   (payload address in packet memory)
        0x0c  ACC_PIG_PORTS  (TCP source/destination ports, one LE word)
        0x1c  ACC_PIG_RULE_ID (read: matched rule id, 0 = end of packet)
    """

    name = "pigasus_sme"
    reads_packet_memory = True

    REG_CTRL = 0x00
    REG_DMA_LEN = 0x04
    REG_DMA_ADDR = 0x08
    REG_PORTS = 0x0C
    REG_RULE_ID = 0x1C

    def __init__(self, n_engines: int = ENGINES_PER_RPU) -> None:
        super().__init__()
        if n_engines < 1:
            raise ValueError("need at least one engine")
        self.n_engines = n_engines
        self._automaton: Optional[AhoCorasick] = None
        self._rules_by_sid: Dict[int, Rule] = {}
        self.table_generation = 0
        self._match_fifo: deque = deque()
        self._dma_len = 0
        self._dma_addr = 0
        self._src_port = 0
        self._dst_port = 0
        self.packets_scanned = 0
        self.bytes_scanned = 0
        self.matches_overflowed = 0
        self.define_register(
            self.REG_CTRL,
            1,
            read=self._read_match_flag,
            write=self._write_ctrl,
            value_range=(0, 1),
            advance_on=(2,),
        )
        self.define_register(self.REG_DMA_LEN, 4, write=self._write_len)
        self.define_register(self.REG_DMA_ADDR, 4, write=self._write_addr)
        self.define_register(self.REG_PORTS, 4, write=self._write_ports)
        self.define_register(
            self.REG_RULE_ID,
            4,
            read=self._read_rule_id,
            stream_depth=MATCH_FIFO_DEPTH,
        )

    # -- runtime table loading (the URAM trick) -----------------------------------

    def load_rules(self, rules: Iterable[Rule]) -> int:
        """Fill the lookup tables at runtime; returns the load cost in
        cycles (table bytes / write-port width)."""
        rules = list(rules)
        patterns = {rule.content: rule.sid for rule in rules}
        self._automaton = AhoCorasick(patterns)
        self._rules_by_sid = {rule.sid: rule for rule in rules}
        self.table_generation += 1
        table_bytes = self._automaton.n_states * 16  # state word estimate
        return -(-table_bytes // TABLE_LOAD_BYTES_PER_CYCLE)

    # -- functional matching ---------------------------------------------------------

    def scan(
        self,
        payload: bytes,
        proto: str = "tcp",
        src_port: int = 0,
        dst_port: int = 0,
    ) -> List[int]:
        """Fast-pattern scan + port-group filter; returns matched sids."""
        if self._automaton is None:
            raise RuntimeError("matcher tables not loaded (URAMs uninitialized)")
        self.packets_scanned += 1
        self.bytes_scanned += len(payload)
        sids: List[int] = []
        seen: Set[int] = set()
        for _offset, sid in self._automaton.search(payload):
            if sid in seen:
                continue
            rule = self._rules_by_sid[sid]
            if rule.matches_ports(proto, src_port, dst_port):
                seen.add(sid)
                sids.append(sid)
        return sids

    def scan_cycles(self, payload_len: int) -> int:
        """Accelerator occupancy: 16 B of payload per cycle, min 1."""
        return max(1, -(-payload_len // BYTES_PER_CYCLE))

    def worst_cycles(self, packet_size: int) -> float:
        return float(self.scan_cycles(max(0, packet_size - 54)))  # eth+ip+tcp: 54 B

    # -- MMIO behaviour (used by the functional ISS RPU) ------------------------------

    def _write_ctrl(self, value: int) -> None:
        if value == 1:  # start: stream the payload in over the DMA port
            length = self._dma_len
            payload = self.dma_read(self._dma_addr, length) if length else b""
            sids = self.scan(payload, "tcp", self._src_port, self._dst_port)
            # the hardware FIFO holds MATCH_FIFO_DEPTH words including
            # the EoP marker; matches past the cap are dropped (the rule
            # id still reaches the host via the punted packet itself)
            room = MATCH_FIFO_DEPTH - 1 - len(self._match_fifo)
            if len(sids) > room:
                self.matches_overflowed += len(sids) - room
                sids = sids[:room]
            for sid in sids:
                self._match_fifo.append(sid)
            self._match_fifo.append(0)  # EoP marker
        elif value == 2:  # release current word
            if self._match_fifo:
                self._match_fifo.popleft()

    def _write_len(self, value: int) -> None:
        self._dma_len = value

    def _write_addr(self, value: int) -> None:
        self._dma_addr = value

    def _write_ports(self, value: int) -> None:
        # firmware does one LE word load of the TCP header's first four
        # bytes (src/dst port, each big-endian on the wire)
        self._src_port = ((value & 0xFF) << 8) | ((value >> 8) & 0xFF)
        self._dst_port = ((value >> 8) & 0xFF00) | ((value >> 24) & 0xFF)

    # front door: ACC_PIG_MATCH of Appendix B (PIGASUS_ASM polls the rule-id FIFO)
    def _read_match_flag(self) -> int:
        return int(bool(self._match_fifo))

    def _read_rule_id(self) -> int:
        return self._match_fifo[0] if self._match_fifo else 0
