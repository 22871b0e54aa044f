"""Structural Verilog reader: the workload frontend of the flow.

Parses the flat gate-level subset that :mod:`repro.verilog.writer`
emits — one module, scalar ``input``/``output``/``wire`` declarations,
named-pin instances of library cells, escaped identifiers for
hierarchical names — and elaborates it into a validated
:class:`~repro.netlist.core.Netlist`.  This closes the loop with the
writer (``read_verilog(netlist_to_verilog(n))`` reproduces ``n``'s
structure exactly) and lets external gate-level designs mapped onto the
generic cell library enter the de-synchronization flow.

Annotations are ``// key=value`` comments, never free text:

* header (before ``module``): ``library=<name>`` names the cell library
  the netlist was mapped to and must match the reader's library;
  ``clock=<port>`` names the clock input.
* instance lines: ``init=<0|1>`` is the power-up state of a sequential
  or handshake cell.

When no ``clock=`` annotation is present (a netlist from another tool),
the clock is inferred structurally: the unique input port driving a
clock/enable pin of a sequential instance.  Everything else is parsed
without heuristics; any deviation from the subset raises
:class:`~repro.utils.errors.VerilogError` with a source location.
"""

from __future__ import annotations

from repro.netlist.cells import Library
from repro.netlist.core import Netlist
from repro.utils.errors import NetlistError, VerilogError
from repro.verilog.tokenizer import (
    EOF,
    ESCAPED,
    ID,
    SYMBOL,
    Comment,
    Token,
    iter_tokens,
)

_DECL_KEYWORDS = ("input", "output", "wire")


class _Parser:
    """Recursive-descent parser with one token of lookahead.

    ``current`` is the lookahead token; :meth:`advance` pulls the next
    one from the lexer, which appends the comments it passes to
    ``comments``.  So every comment before ``current`` is in the list,
    and the annotation readers never look past ``current``.  Errors are
    raised in source order: a syntax error before the first lexical
    error is the one reported.
    """

    def __init__(self, source: str, library: Library | None):
        self.comments: list[Comment] = []
        self._tokens = iter_tokens(source, self.comments)
        self.current: Token = next(self._tokens)
        self.library = library
        self._comment_scan = 0  # monotonic cursor into self.comments

    # ------------------------------------------------------------------
    # token stream helpers
    # ------------------------------------------------------------------
    def advance(self) -> Token:
        token = self.current
        if token.kind is not EOF:
            self.current = next(self._tokens)
        return token

    def error(self, message: str, token: Token | None = None) -> VerilogError:
        token = token if token is not None else self.current
        return VerilogError(message, token.line, token.column)

    def expect_symbol(self, symbol: str) -> Token:
        token = self.current
        if token.kind != SYMBOL or token.value != symbol:
            raise self.error(f"expected {symbol!r}, found {token.value!r}")
        return self.advance()

    def expect_keyword(self, keyword: str) -> Token:
        token = self.current
        if token.kind != ID or token.value != keyword:
            raise self.error(f"expected {keyword!r}, found {token.value!r}")
        return self.advance()

    def expect_name(self) -> tuple[str, Token]:
        """A plain or escaped identifier; returns the (unescaped) name."""
        token = self.current
        if token.kind not in (ID, ESCAPED):
            raise self.error(f"expected an identifier, found {token.value!r}")
        self.advance()
        return token.value, token

    def at_keyword(self, *keywords: str) -> bool:
        return self.current.kind == ID and self.current.value in keywords

    # ------------------------------------------------------------------
    # annotations
    # ------------------------------------------------------------------
    def header_annotations(self, before_line: int) -> dict[str, str]:
        merged: dict[str, str] = {}
        for comment in self.comments:
            if comment.line >= before_line:
                break
            merged.update(comment.annotations())
        return merged

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------
    def parse_module(self) -> Netlist:
        module_token = self.current
        header = self.header_annotations(module_token.line)
        self.expect_keyword("module")
        name, _ = self.expect_name()

        netlist = Netlist(name, self.library)  # None -> the generic library
        declared_library = header.get("library")
        if (declared_library is not None
                and declared_library != netlist.library.name):
            raise VerilogError(
                f"netlist was mapped to library {declared_library!r} but the "
                f"reader elaborates against {netlist.library.name!r}",
                module_token.line)
        port_order = self.parse_port_list()
        self.expect_symbol(";")

        declared: dict[str, str] = {}   # port/wire name -> decl kind
        while not self.at_keyword("endmodule"):
            if self.current.kind is EOF:
                raise self.error("unexpected end of input: missing 'endmodule'")
            if self.at_keyword(*_DECL_KEYWORDS):
                self.parse_declaration(netlist, declared, port_order)
            else:
                self.parse_instance(netlist, declared)
        self.expect_keyword("endmodule")
        if self.current.kind is not EOF:
            raise self.error(
                f"unexpected {self.current.value!r} after 'endmodule' "
                "(the subset is a single module per file)")

        for port, token in port_order.items():
            if declared.get(port) not in ("input", "output"):
                raise VerilogError(
                    f"port {port!r} has no input/output declaration",
                    token.line, token.column)
        self.resolve_clock(netlist, header, module_token)
        return netlist

    def parse_port_list(self) -> dict[str, Token]:
        self.expect_symbol("(")
        ports: dict[str, Token] = {}
        while True:
            port, token = self.expect_name()
            if port in ports:
                raise VerilogError(f"duplicate port {port!r}",
                                   token.line, token.column)
            ports[port] = token
            if self.current.kind == SYMBOL and self.current.value == ",":
                self.advance()
                continue
            break
        self.expect_symbol(")")
        return ports

    def parse_declaration(self, netlist: Netlist, declared: dict[str, str],
                          port_order: dict[str, Token]) -> None:
        kind = self.advance().value
        name, token = self.expect_name()
        self.expect_symbol(";")
        previous = declared.get(name)
        # ``input`` then ``output`` on one name is a feedthrough port;
        # every other re-declaration is an error.
        if previous is not None and (previous, kind) != ("input", "output"):
            raise VerilogError(
                f"{name!r} already declared as {previous}",
                token.line, token.column)
        if kind in ("input", "output") and name not in port_order:
            raise VerilogError(
                f"{kind} {name!r} is not in the module port list",
                token.line, token.column)
        declared[name] = kind
        try:
            if kind == "input":
                netlist.add_input(name)
            elif kind == "output":
                netlist.add_output(name)
            else:
                netlist.net(name)
        except NetlistError as exc:
            raise VerilogError(str(exc), token.line, token.column) from exc

    def parse_instance(self, netlist: Netlist,
                       declared: dict[str, str]) -> None:
        cell_token = self.current
        cell_name, _ = self.expect_name()
        if cell_token.kind is ESCAPED:
            raise self.error("cell names are plain library identifiers",
                             cell_token)
        if cell_name not in netlist.library:
            raise VerilogError(
                f"unknown cell {cell_name!r} in library "
                f"{netlist.library.name!r}", cell_token.line, cell_token.column)
        cell = netlist.library[cell_name]
        inst_name, inst_token = self.expect_name()
        connections: dict[str, tuple[str, Token]] = {}
        self.expect_symbol("(")
        if not (self.current.kind == SYMBOL and self.current.value == ")"):
            while True:
                self.expect_symbol(".")
                pin, pin_token = self.expect_name()
                if pin in connections:
                    raise VerilogError(
                        f"pin {pin!r} connected twice on {inst_name!r}",
                        pin_token.line, pin_token.column)
                self.expect_symbol("(")
                net, net_token = self.expect_name()
                self.expect_symbol(")")
                if net not in declared:
                    raise VerilogError(
                        f"net {net!r} is not declared (ports and wires must "
                        "be declared before use)",
                        net_token.line, net_token.column)
                connections[pin] = (net, pin_token)
                if self.current.kind == SYMBOL and self.current.value == ",":
                    self.advance()
                    continue
                break
        self.expect_symbol(")")
        semi = self.expect_symbol(";")

        init = self.instance_init(cell_token, semi)
        try:
            inst = netlist.add(cell, name=inst_name, init=init or 0)
        except NetlistError as exc:
            raise VerilogError(str(exc), inst_token.line,
                               inst_token.column) from exc
        if init is not None and not (inst.is_sequential or inst.is_celement):
            raise VerilogError(
                f"init annotation on {inst_name!r}: cell {cell.name} holds "
                "no state", semi.line)
        for pin, (net, pin_token) in connections.items():
            try:
                netlist.connect(inst, pin, net)
            except NetlistError as exc:
                raise VerilogError(str(exc), pin_token.line,
                                   pin_token.column) from exc

    def instance_init(self, start: Token, semi: Token) -> int | None:
        """The ``init=`` annotation of ``start .. semi``, None if absent.

        The statement may span lines; the last matching annotation wins
        (the writer puts it on the closing line).  A comment trailing
        the semicolon belongs to this statement only if no other
        statement begins between the semicolon and the comment.
        """
        annotation = None
        where = semi
        next_token = self.current  # first token after the semicolon
        # Statements arrive in source order, so a persistent cursor keeps
        # the scan linear; it stops at start.line (not past it) because a
        # boundary comment may belong to the next statement.
        index = self._comment_scan
        while (index < len(self.comments)
               and self.comments[index].line < start.line):
            index += 1
        self._comment_scan = index
        while (index < len(self.comments)
               and self.comments[index].line <= semi.line):
            comment = self.comments[index]
            index += 1
            if (comment.line == semi.line and comment.column > semi.column
                    and next_token.kind is not EOF
                    and next_token.line == comment.line
                    and next_token.column < comment.column):
                continue  # a later statement claims this trailing comment
            value = comment.annotations().get("init")
            if value is not None:
                annotation = value
                where = comment
        if annotation is None:
            return None
        if annotation not in ("0", "1"):
            raise VerilogError(
                f"init annotation must be 0 or 1, got {annotation!r}",
                where.line, where.column)
        return int(annotation)

    # ------------------------------------------------------------------
    # clock resolution
    # ------------------------------------------------------------------
    def resolve_clock(self, netlist: Netlist, header: dict[str, str],
                      module_token: Token) -> None:
        annotated = header.get("clock")
        if annotated is not None:
            if annotated not in netlist.inputs:
                raise VerilogError(
                    f"clock annotation names {annotated!r}, which is not an "
                    "input port", module_token.line)
            netlist.clock = annotated
            return
        netlist.clock = infer_clock(netlist)


def infer_clock(netlist: Netlist) -> str | None:
    """The unique input port feeding sequential clock/enable pins, if any.

    Used for externally-produced netlists that carry no ``clock=``
    annotation.  Returns ``None`` when the netlist has no sequential
    cells or when more than one input drives clock pins (a multi-clock
    design, which the flow does not accept anyway).
    """
    candidates: set[str] = set()
    for inst in netlist.seq_instances():
        pin = inst.cell.clock_pin
        if pin is None or pin not in inst.pins:
            continue
        net = inst.pins[pin]
        if net.is_input_port:
            candidates.add(net.name)
    if len(candidates) == 1:
        return candidates.pop()
    return None


def read_verilog(source: str, library: Library | None = None) -> Netlist:
    """Parse structural Verilog ``source`` into a validated netlist.

    ``library`` defaults to the generic library; a ``library=`` header
    annotation naming a different library is an error.  Raises
    :class:`VerilogError` on any lexical, syntactic, or structural
    problem (including validation failures such as undriven nets).
    """
    parser = _Parser(source, library)
    netlist = parser.parse_module()
    try:
        netlist.validate()
    except NetlistError as exc:
        raise VerilogError(f"invalid netlist {netlist.name!r}: {exc}") from exc
    return netlist


def read_verilog_file(path: str, library: Library | None = None) -> Netlist:
    """:func:`read_verilog` on the contents of ``path``."""
    with open(path) as handle:
        return read_verilog(handle.read(), library)


def netlist_signature(netlist: Netlist) -> dict:
    """Structure of a netlist as plain data, for round-trip comparison.

    Two netlists with equal signatures are interchangeable as flow
    inputs: same ports (and order), same clock, same instances with the
    same cells, pin connectivity, and power-up values.
    """
    return {
        "name": netlist.name,
        "library": netlist.library.name,
        "clock": netlist.clock,
        "inputs": list(netlist.inputs),
        "outputs": list(netlist.outputs),
        "nets": sorted(netlist.nets),
        "instances": {
            inst.name: {
                "cell": inst.cell.name,
                "init": inst.init if (inst.is_sequential
                                      or inst.is_celement) else 0,
                "pins": {pin: net.name for pin, net in inst.pins.items()},
            }
            for inst in netlist.instances.values()
        },
    }
