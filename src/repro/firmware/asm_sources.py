"""RV32 assembly firmware for the functional RPU simulator.

These are the reproduction's equivalent of the artifact's bare-metal C
firmware: they run on the RV32IM instruction-set simulator inside
:class:`repro.core.funcsim.FunctionalRpu` against the interconnect and
accelerator register maps below, and the funcsim tests measure their
per-packet cycle costs the same way the paper cross-checks C code in
cocotb simulation (§7.1.4).

Interconnect register map (``IO_BASE`` = 0x0100_0000)::

    0x00  RECV_READY    (r)  1 when a descriptor is waiting
    0x04  RECV_TAG      (r)  slot tag of the head descriptor
    0x08  RECV_LEN      (r)  packet length
    0x0c  RECV_PORT     (r)  ingress port
    0x10  RECV_DATA     (r)  packet data pointer (in packet memory)
    0x14  RECV_RELEASE  (w)  pop the descriptor queue
    0x18  SEND_TAG      (w)  slot tag to send
    0x1c  SEND_LEN      (w)  length to send (0 = drop)
    0x20  SEND_PORT_GO  (w)  egress port; the write fires the send
    0x28  DEBUG_OUT_L   (w)  64-bit debug channel to the host, low word
    0x2c  DEBUG_OUT_H   (w)  debug channel, high word
    0x30  CYCLES        (r)  free-running cycle counter

Accelerator windows sit at ``IO_EXT_BASE`` = 0x0200_0000.
"""

#: Basic forwarder (basic_fw): read descriptor, flip port, send.
FORWARDER_ASM = """
# basic_fw: forward every packet out the other port
.equ IO_BASE, 0x01000000

main:
    li   a0, IO_BASE
loop:
    lw   t0, 0(a0)        # RECV_READY
    beqz t0, loop
    lw   t1, 4(a0)        # tag
    lw   t2, 8(a0)        # len
    lw   t3, 12(a0)       # port
    sw   zero, 20(a0)     # release descriptor
    xori t3, t3, 1        # other port
    sw   t1, 24(a0)       # SEND_TAG
    sw   t2, 28(a0)       # SEND_LEN
    sw   t3, 32(a0)       # SEND_PORT_GO
    j    loop
"""

#: Firewall firmware (Appendix C): check ethertype, MMIO the source IP
#: into the blacklist matcher, drop on match else forward.
FIREWALL_ASM = """
# firewall: drop blacklisted source IPs
.equ IO_BASE,     0x01000000
.equ IO_EXT_BASE, 0x02000000

main:
    li   a0, IO_BASE
    li   a1, IO_EXT_BASE
    li   s2, 0x0008       # ethertype 0x0800, little-endian halfword read
loop:
    lw   t0, 0(a0)        # RECV_READY
    beqz t0, loop
    lw   t1, 4(a0)        # tag
    lw   t2, 8(a0)        # len
    lw   t3, 12(a0)       # port
    lw   t4, 16(a0)       # data pointer
    sw   zero, 20(a0)     # release
    lhu  t5, 12(t4)       # ethertype
    bne  t5, s2, drop
    lw   t5, 26(t4)       # source IP (data offset keeps this aligned)
    sw   t5, 0(a1)        # ACC_SRC_IP: start the 2-cycle lookup
    lbu  t6, 4(a1)        # ACC_FW_MATCH
    bnez t6, drop
    xori t3, t3, 1
    sw   t1, 24(a0)
    sw   t2, 28(a0)
    sw   t3, 32(a0)
    j    loop
drop:
    sw   t1, 24(a0)
    sw   zero, 28(a0)     # length 0 = drop
    sw   t3, 32(a0)
    j    loop
"""

#: Forwarder with a poke-interrupt handler (§3.4): on a host poke the
#: firmware dumps a checkpoint word to the debug channel and resumes.
#: Interrupt line 1 (poke) maps to mcause bit 16 in the CPU model.
FORWARDER_IRQ_ASM = """
# basic_fw with poke-interrupt support
.equ IO_BASE, 0x01000000

main:
    la   t0, poke_handler
    csrw mtvec, t0
    li   t0, 0x10000       # enable external line 1 (poke)
    csrw mie, t0
    # the handler reads a0/s4, so they must be live before interrupts
    # are enabled globally — an early poke would otherwise store its
    # checkpoint through whatever a0 happened to hold (the static
    # verifier's handler-entry join catches exactly this ordering bug)
    li   a0, IO_BASE
    li   s4, 0             # packets forwarded (visible to the handler)
    csrrsi x0, mstatus, 8  # global interrupt enable
loop:
    lw   t0, 0(a0)         # RECV_READY
    beqz t0, loop
    lw   t1, 4(a0)
    lw   t2, 8(a0)
    lw   t3, 12(a0)
    sw   zero, 20(a0)
    xori t3, t3, 1
    sw   t1, 24(a0)
    sw   t2, 28(a0)
    sw   t3, 32(a0)
    addi s4, s4, 1
    j    loop

poke_handler:
    # checkpoint: report the forward count to the host and resume
    sw   s4, 40(a0)        # DEBUG_OUT_L = packets forwarded
    li   t6, 0x504B        # 'PK'
    sw   t6, 44(a0)        # DEBUG_OUT_H = poke marker
    mret
"""

#: Packet generator firmware (the tester FPGA's pkt_gen): builds a
#: frame in its packet slot once, then emits descriptors back-to-back.
PKT_GEN_ASM = """
# pkt_gen: synthesize same-size frames as fast as the core can
.equ IO_BASE,  0x01000000
.equ PMEM,     0x00100000
.equ PKT_LEN,  64
.equ COUNT,    32

main:
    li   a0, IO_BASE
    li   t0, PMEM+2        # slot 1 data pointer (PKT_OFFSET 2)
    # build a minimal frame: dst MAC ff.., ethertype 0x88B5
    li   t1, 0xFFFFFFFF
    sw   t1, 0(t0)
    sh   t1, 4(t0)
    li   t1, 0xB588        # ethertype, big-endian on the wire
    sh   t1, 12(t0)
    li   s2, 0             # sent count
    li   s3, COUNT
gen:
    li   t1, 1
    sw   t1, 24(a0)        # SEND_TAG = slot 1
    li   t2, PKT_LEN
    sw   t2, 28(a0)        # SEND_LEN
    sw   zero, 32(a0)      # SEND_PORT_GO (port 0)
    addi s2, s2, 1
    blt  s2, s3, gen
    ebreak
"""

#: Flow-statistics firmware: a per-flow packet counter table kept in
#: core-local data memory — data structures in firmware, host-readable
#: via memory dump (the §3.4 "read and modify the state" story).
FLOW_COUNTER_ASM = """
# flow_stats: count packets per source-IP hash bucket, then forward
.equ IO_BASE,    0x01000000
.equ TABLE,      0x00010000   # dmem base: 256 buckets x 4 bytes

main:
    li   a0, IO_BASE
    li   a1, TABLE
    li   s2, 0x0008           # ethertype IPv4 (LE halfword)
loop:
    lw   t0, 0(a0)            # RECV_READY
    beqz t0, loop
    lw   t1, 4(a0)            # tag
    lw   t2, 8(a0)            # len
    lw   t3, 12(a0)           # port
    lw   t4, 16(a0)           # data ptr
    sw   zero, 20(a0)         # release
    lhu  t5, 12(t4)           # ethertype
    bne  t5, s2, send         # non-IP: forward uncounted
    lw   t5, 26(t4)           # source IP (LE word of the 4 bytes)
    srli t6, t5, 16
    xor  t5, t5, t6           # fold the IP into 16 bits
    srli t6, t5, 8
    xor  t5, t5, t6           # ...then into 8
    andi t5, t5, 0xFF
    slli t5, t5, 2            # bucket offset
    add  t5, t5, a1
    lw   t6, 0(t5)            # counter++
    addi t6, t6, 1
    sw   t6, 0(t5)
send:
    xori t3, t3, 1
    sw   t1, 24(a0)
    sw   t2, 28(a0)
    sw   t3, 32(a0)
    j    loop
"""

#: Pigasus accelerator management (HW-reorder flavour, Appendix B
#: abridged): feed payload pointer/length to the matcher, drain the
#: match FIFO, append rule ids, choose host vs wire.
PIGASUS_ASM = """
# pigasus (hw reorder): orchestrate the string matcher
.equ IO_BASE,     0x01000000
.equ IO_EXT_BASE, 0x02000000
.equ HOST_PORT,   2

main:
    li   a0, IO_BASE
    li   a1, IO_EXT_BASE
    li   s2, 0x0008        # ethertype IPv4 (LE halfword)
loop:
    lw   t0, 0(a0)         # RECV_READY
    beqz t0, loop
    lw   t1, 4(a0)         # tag
    lw   t2, 8(a0)         # len
    lw   t3, 12(a0)        # port
    lw   t4, 16(a0)        # data ptr
    sw   zero, 20(a0)      # release
    lhu  t5, 12(t4)        # ethertype
    bne  t5, s2, drop
    lbu  t5, 23(t4)        # IP protocol
    li   t6, 6
    bne  t5, t6, drop      # only TCP in this firmware
    lw   t5, 34(t4)        # both TCP ports in one word
    sw   t5, 12(a1)        # ACC_PIG_PORTS
    addi t5, t4, 54        # payload = data + eth(14)+ip(20)+tcp(20)
    sw   t5, 8(a1)         # ACC_DMA_ADDR
    addi t6, t2, -54
    sw   t6, 4(a1)         # ACC_DMA_LEN
    li   t6, 1
    sb   t6, 0(a1)         # ACC_PIG_CTRL = 1 (start)
    li   s3, 0             # match flag
drain:                     # bounded by the matcher's 8-deep FIFO
    lw   t5, 28(a1)        # ACC_PIG_RULE_ID
    li   t6, 2
    sb   t6, 0(a1)         # release the word
    beqz t5, done          # 0 = end of packet, no (more) matches
    # append rule id at dword-aligned end of packet
    addi t6, t2, 3
    andi t6, t6, -4
    add  t6, t6, t4
    sw   t5, 0(t6)
    addi t2, t2, 4         # grow len past the appended word
    li   s3, 1
    j    drain
done:
    beqz s3, fwd
    li   t3, HOST_PORT     # matched: punt to host
    j    send
fwd:
    xori t3, t3, 1         # safe: out the other port
send:
    sw   t1, 24(a0)        # SEND_TAG
    sw   t2, 28(a0)        # SEND_LEN
    sw   t3, 32(a0)        # SEND_PORT_GO
    j    loop
drop:
    sw   t1, 24(a0)
    sw   zero, 28(a0)
    sw   t3, 32(a0)
    j    loop
"""
