"""A two-pass RV32IM assembler.

Supports the full instruction set the CPU model executes, the usual
pseudo-instructions (``li``, ``la``, ``mv``, ``j``, ``call``, ``ret``,
``beqz`` …), labels, and the directives firmware needs (``.org``,
``.word``, ``.byte``, ``.half``, ``.ascii``/``.asciz``, ``.space``,
``.align``, ``.equ``).  Operands accept decimal/hex numbers, symbols,
``sym+const`` expressions, and ``%hi()``/``%lo()`` relocation operators.

This is the "toolchain" of the reproduction: RPU firmware is written in
assembly source strings and assembled to images the ISS executes, in
place of riscv-gcc in the artifact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .isa import CSR_NAMES, OPS, PSEUDO, DecodeError, check_range, encode, parse_register


class AssemblerError(ValueError):
    """Raised with source line context on any assembly problem."""

    def __init__(self, message: str, lineno: Optional[int] = None) -> None:
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass
class Program:
    """The assembled output: a flat image plus the symbol table."""

    image: bytes
    symbols: Dict[str, int]
    base: int = 0

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError as exc:
            raise AssemblerError(f"unknown symbol {name!r}") from exc


_MEM_OPERAND = re.compile(r"^(.*)\(\s*([a-zA-Z0-9]+)\s*\)$")
_HI_LO = re.compile(r"^%(hi|lo)\((.+)\)$")


@dataclass
class _Line:
    lineno: int
    label: Optional[str]
    mnemonic: Optional[str]
    operands: List[str]
    addr: int = 0
    size: int = 0


class Assembler:
    """Two-pass assembler producing a flat little-endian image."""

    def __init__(self, base: int = 0) -> None:
        self.base = base

    def assemble(self, source: str) -> Program:
        lines = self._tokenize(source)
        symbols: Dict[str, int] = {}
        lines = self._layout(lines, symbols)
        image = self._emit(lines, symbols)
        return Program(image=image, symbols=symbols, base=self.base)

    # -- pass 0: tokenize ----------------------------------------------------

    def _tokenize(self, source: str) -> List[_Line]:
        out: List[_Line] = []
        for lineno, raw in enumerate(source.splitlines(), start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            # peel off any labels (allow several on one line)
            while True:
                match = re.match(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$", text)
                if not match:
                    break
                out.append(_Line(lineno, match.group(1), None, []))
                text = match.group(2).strip()
            if not text:
                continue
            parts = text.split(None, 1)
            mnemonic = parts[0].lower()
            operands = (
                [op.strip() for op in _split_operands(parts[1])] if len(parts) > 1 else []
            )
            out.append(_Line(lineno, None, mnemonic, operands))
        return out

    # -- pass 1: layout / symbols ---------------------------------------------

    def _layout(self, lines: List[_Line], symbols: Dict[str, int]) -> List[_Line]:
        pc = self.base
        for line in lines:
            line.addr = pc
            if line.label is not None:
                if line.label in symbols:
                    raise AssemblerError(f"duplicate label {line.label!r}", line.lineno)
                symbols[line.label] = pc
                continue
            assert line.mnemonic is not None
            line.size = self._sizeof(line, symbols)
            pc += line.size
        return lines

    def _sizeof(self, line: _Line, symbols: Dict[str, int]) -> int:
        m = line.mnemonic
        assert m is not None
        if m == ".equ":
            if len(line.operands) != 2:
                raise AssemblerError(".equ needs name, value", line.lineno)
            symbols[line.operands[0]] = self._const(line.operands[1], symbols, line.lineno)
            return 0
        if m == ".org":
            target = self._const(line.operands[0], symbols, line.lineno)
            if target < line.addr:
                raise AssemblerError(".org cannot move backwards", line.lineno)
            return target - line.addr
        if m == ".align":
            align = 1 << self._const(line.operands[0], symbols, line.lineno)
            return (-line.addr) % align
        if m == ".space":
            return self._const(line.operands[0], symbols, line.lineno)
        if m == ".word":
            return 4 * len(line.operands)
        if m == ".half":
            return 2 * len(line.operands)
        if m == ".byte":
            return len(line.operands)
        if m in (".ascii", ".asciz"):
            text = _parse_string(line.operands[0], line.lineno)
            return len(text) + (1 if m == ".asciz" else 0)
        if m in (".text", ".data", ".globl", ".global", ".section"):
            return 0
        # instructions: everything is 4 bytes except li/la/call (up to 8)
        if m in ("li", "la", "call", "tail"):
            return 8
        return 4

    # -- pass 2: emit ---------------------------------------------------------

    def _emit(self, lines: List[_Line], symbols: Dict[str, int]) -> bytes:
        image = bytearray()

        def pad_to(addr: int) -> None:
            want = addr - self.base
            if want > len(image):
                image.extend(b"\x00" * (want - len(image)))

        for line in lines:
            if line.label is not None:
                continue
            m = line.mnemonic
            assert m is not None
            pad_to(line.addr)
            if m.startswith("."):
                image.extend(self._emit_directive(line, symbols))
            else:
                for word in self._emit_instruction(line, symbols):
                    image.extend(word.to_bytes(4, "little"))
        return bytes(image)

    def _emit_directive(self, line: _Line, symbols: Dict[str, int]) -> bytes:
        m = line.mnemonic
        assert m is not None
        if m in (".equ", ".text", ".data", ".globl", ".global", ".section"):
            return b""
        if m in (".org", ".align", ".space"):
            return b"\x00" * line.size
        if m == ".word":
            return b"".join(
                (self._const(op, symbols, line.lineno) & 0xFFFFFFFF).to_bytes(4, "little")
                for op in line.operands
            )
        if m == ".half":
            return b"".join(
                (self._const(op, symbols, line.lineno) & 0xFFFF).to_bytes(2, "little")
                for op in line.operands
            )
        if m == ".byte":
            return bytes(
                self._const(op, symbols, line.lineno) & 0xFF for op in line.operands
            )
        if m in (".ascii", ".asciz"):
            text = _parse_string(line.operands[0], line.lineno)
            return text + (b"\x00" if m == ".asciz" else b"")
        raise AssemblerError(f"unknown directive {m}", line.lineno)

    def _emit_instruction(self, line: _Line, symbols: Dict[str, int]) -> List[int]:
        m = line.mnemonic
        ops = line.operands
        lineno = line.lineno
        assert m is not None

        def need(n: int) -> None:
            if len(ops) != n:
                raise AssemblerError(f"{m} expects {n} operands, got {len(ops)}", lineno)

        try:
            # --- two-word pseudo-instructions ---
            if m in ("li", "la"):
                need(2)
                value = self._const(ops[1], symbols, lineno) & 0xFFFFFFFF
                return _expand_li(self._reg(ops[0], lineno), value)
            if m in ("call", "tail"):
                need(1)
                offset = self._const(ops[0], symbols, lineno) - line.addr
                # call links through ra; tail goes through t1 and links nothing
                link, scratch = (1, 1) if m == "call" else (0, 6)
                upper = (offset + 0x800) & 0xFFFFF000
                return [
                    encode(OPS["auipc"], rd=scratch, imm=upper),
                    encode(OPS["jalr"], rd=link, rs1=scratch, imm=offset - upper),
                ]

            # --- table rows, and pseudo-instructions that expand to one ---
            op = OPS.get(m)
            fields: Dict[str, int] = {}
            if m in PSEUDO and (op is None or len(ops) != len(op.operands)):
                real, shape, fixed = PSEUDO[m]
                op = OPS[real]
                fields.update(fixed)
            elif op is not None:
                shape = op.operands
            else:
                raise AssemblerError(f"unknown mnemonic {m!r}", lineno)
            need(len(shape))
            for text, operand in zip(ops, shape):
                if operand in ("rd", "rs1", "rs2"):
                    fields[operand] = self._reg(text, lineno)
                elif operand == "mem":
                    fields["rs1"], fields["imm"] = self._mem_operand(text, symbols, lineno)
                elif operand == "csr":
                    fields["csr"] = self._csr(text, symbols, lineno)
                elif operand == "zimm":  # the uimm travels in the rs1 field
                    fields["rs1"] = check_range("zimm", self._const(text, symbols, lineno))
                else:  # imm, shamt, imm20 (the operand of lui/auipc), target (pc-relative)
                    value = self._const(text, symbols, lineno)
                    if operand == "imm20":
                        value <<= 12
                    elif operand == "target":
                        value -= line.addr
                    fields["imm"] = value
            return [encode(op, **fields)]
        except DecodeError as exc:
            raise AssemblerError(str(exc), lineno) from exc

    # -- operand helpers --------------------------------------------------------

    def _reg(self, text: str, lineno: int) -> int:
        try:
            return parse_register(text)
        except DecodeError as exc:
            raise AssemblerError(str(exc), lineno) from exc

    def _mem_operand(
        self, text: str, symbols: Dict[str, int], lineno: int
    ) -> Tuple[int, int]:
        match = _MEM_OPERAND.match(text.strip())
        if not match:
            raise AssemblerError(f"expected offset(reg), got {text!r}", lineno)
        offset_text = match.group(1).strip() or "0"
        return self._reg(match.group(2), lineno), self._const(offset_text, symbols, lineno)

    def _csr(self, text: str, symbols: Dict[str, int], lineno: int) -> int:
        name = text.strip().lower()
        if name in CSR_NAMES:
            return CSR_NAMES[name]
        return self._const(text, symbols, lineno)

    def _const(self, text: str, symbols: Dict[str, int], lineno: int) -> int:
        text = text.strip()
        match = _HI_LO.match(text)
        if match:
            value = self._const(match.group(2), symbols, lineno) & 0xFFFFFFFF
            if match.group(1) == "hi":
                return ((value + 0x800) >> 12) & 0xFFFFF
            lo = value & 0xFFF
            return lo - 0x1000 if lo >= 0x800 else lo
        try:
            return _eval_expr(text, symbols)
        except KeyError as exc:
            raise AssemblerError(f"unknown symbol {exc.args[0]!r}", lineno) from exc
        except (ValueError, SyntaxError) as exc:
            raise AssemblerError(f"bad expression {text!r}: {exc}", lineno) from exc


def _expand_li(rd: int, value: int) -> List[int]:
    """li as lui+addi (always two words so sizing is stable)."""
    upper = (value + 0x800) & 0xFFFFF000
    lower = value - upper
    if lower < -2048:
        lower += 1 << 32
    lower = ((lower + 0x800) & 0xFFF) - 0x800
    return [
        encode(OPS["lui"], rd=rd, imm=upper),
        encode(OPS["addi"], rd=rd, rs1=rd, imm=lower),
    ]


_TOKEN = re.compile(r"\s*(0x[0-9a-fA-F]+|\d+|[A-Za-z_.$][\w.$]*|[-+()~*<>&|^]|<<|>>)")


def _eval_expr(text: str, symbols: Dict[str, int]) -> int:
    """Evaluate a small constant expression: ints, symbols, + - * () ~ << >> & | ^."""
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"bad token at {text[pos:]!r}")
        tok = match.group(1)
        pos = match.end()
        tokens.append(tok)
    # merge shift operators split into single chars
    merged: List[str] = []
    i = 0
    while i < len(tokens):
        if tokens[i] in "<>" and i + 1 < len(tokens) and tokens[i + 1] == tokens[i]:
            merged.append(tokens[i] * 2)
            i += 2
        else:
            merged.append(tokens[i])
            i += 1
    tokens = merged

    def resolve(tok: str) -> int:
        if tok.startswith("0x") or tok.startswith("0X"):
            return int(tok, 16)
        if tok.isdigit():
            return int(tok)
        return symbols[tok]

    # shunting-yard into RPN
    prec = {"|": 1, "^": 2, "&": 3, "<<": 4, ">>": 4, "+": 5, "-": 5, "*": 6, "u-": 7, "~": 7}
    output: List = []
    stack: List[str] = []
    prev_was_value = False
    for tok in tokens:
        if tok not in prec and tok not in "()":
            output.append(resolve(tok))
            prev_was_value = True
        elif tok == "(":
            stack.append(tok)
            prev_was_value = False
        elif tok == ")":
            while stack and stack[-1] != "(":
                output.append(stack.pop())
            if not stack:
                raise ValueError("unbalanced parens")
            stack.pop()
            prev_was_value = True
        else:
            op = tok
            if tok == "-" and not prev_was_value:
                op = "u-"
            elif tok == "~":
                op = "~"
            while (
                stack
                and stack[-1] != "("
                and prec.get(stack[-1], 0) >= prec[op]
                and op not in ("u-", "~")
            ):
                output.append(stack.pop())
            stack.append(op)
            prev_was_value = False
    while stack:
        op = stack.pop()
        if op == "(":
            raise ValueError("unbalanced parens")
        output.append(op)

    # evaluate RPN
    values: List[int] = []
    for item in output:
        if isinstance(item, int):
            values.append(item)
        elif item == "u-":
            values.append(-values.pop())
        elif item == "~":
            values.append(~values.pop())
        else:
            b = values.pop()
            a = values.pop()
            values.append(
                {
                    "+": a + b,
                    "-": a - b,
                    "*": a * b,
                    "<<": a << b,
                    ">>": a >> b,
                    "&": a & b,
                    "|": a | b,
                    "^": a ^ b,
                }[item]
            )
    if len(values) != 1:
        raise ValueError("malformed expression")
    return values[0]


def _split_operands(text: str) -> List[str]:
    """Split on commas not inside parentheses or quotes."""
    out: List[str] = []
    depth = 0
    in_string = False
    current = []
    for ch in text:
        if ch == '"':
            in_string = not in_string
            current.append(ch)
        elif in_string:
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            out.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        out.append("".join(current))
    return out


def _parse_string(text: str, lineno: int) -> bytes:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AssemblerError(f"expected quoted string, got {text!r}", lineno)
    body = text[1:-1]
    out = bytearray()
    i = 0
    escapes = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, '"': 34}
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            esc = body[i + 1]
            if esc not in escapes:
                raise AssemblerError(f"bad escape \\{esc}", lineno)
            out.append(escapes[esc])
            i += 2
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


def assemble(source: str, base: int = 0) -> Program:
    """Convenience one-shot: assemble ``source`` at ``base``."""
    return Assembler(base=base).assemble(source)
