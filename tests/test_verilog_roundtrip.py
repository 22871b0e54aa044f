"""Round-trip tests for the structural Verilog reader.

Property-style sweep: for every corpus configuration and every shared
test circuit, ``read_verilog(netlist_to_verilog(n))`` must reproduce
ports (and their order), instance/cell mapping, connectivity, init
values, and the clock — and re-emission must be byte-identical.  Plus
the reader's error paths: unknown cells, undriven nets, malformed
escaped identifiers, and the other ways a file can leave the subset.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import generate, names
from repro.desync import desynchronize
from repro.netlist import GENERIC
from repro.utils.errors import VerilogError
from repro.verilog import (
    infer_clock,
    netlist_signature,
    netlist_to_verilog,
    read_verilog,
    read_verilog_file,
    write_verilog,
)
from repro.verilog.tokenizer import ID, Token, iter_tokens

from tests.circuits import all_circuits, lfsr3
from tests.oracles import lex_verilog

CIRCUITS = all_circuits()


class TestRoundTrip:
    @pytest.mark.parametrize("config", names())
    def test_corpus_roundtrip(self, config):
        netlist = generate(config)
        recovered = read_verilog(netlist_to_verilog(netlist))
        assert netlist_signature(recovered) == netlist_signature(netlist)

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_shared_circuit_roundtrip(self, circuit):
        netlist = CIRCUITS[circuit]()
        recovered = read_verilog(netlist_to_verilog(netlist))
        assert netlist_signature(recovered) == netlist_signature(netlist)

    def test_emission_is_idempotent(self):
        # write(read(write(n))) == write(n): the pair is byte-stable.
        for circuit in sorted(CIRCUITS):
            text = netlist_to_verilog(CIRCUITS[circuit]())
            assert netlist_to_verilog(read_verilog(text)) == text

    def test_desync_netlist_roundtrip(self):
        # The flow's *output* (latches, C-elements, token cells with
        # init states) survives the round trip too.
        result = desynchronize(lfsr3())
        netlist = result.desync_netlist
        text = netlist_to_verilog(netlist)
        recovered = read_verilog(text)
        assert netlist_signature(recovered) == netlist_signature(netlist)
        assert netlist_to_verilog(recovered) == text

    def test_file_roundtrip(self, tmp_path):
        netlist = generate("crc5")
        path = str(tmp_path / "crc5.v")
        write_verilog(netlist, path)
        recovered = read_verilog_file(path)
        assert netlist_signature(recovered) == netlist_signature(netlist)

    def test_init_values_preserved(self):
        netlist = lfsr3()
        for i, inst in enumerate(netlist.dff_instances()):
            inst.init = i % 2
        recovered = read_verilog(netlist_to_verilog(netlist))
        inits = {inst.name: inst.init
                 for inst in recovered.dff_instances()}
        assert inits == {inst.name: inst.init
                         for inst in netlist.dff_instances()}

    def test_clock_annotation_preserved(self):
        recovered = read_verilog(netlist_to_verilog(generate("pipe4x1")))
        assert recovered.clock == "clk"
        assert recovered.inputs[0] == "clk"

    def test_port_order_preserved(self):
        netlist = generate("mult2")
        recovered = read_verilog(netlist_to_verilog(netlist))
        assert recovered.inputs == netlist.inputs
        assert recovered.outputs == netlist.outputs

    def test_feedthrough_port_roundtrip(self):
        # A net that is both an input and an output port appears once in
        # the port list but in both declaration sections.
        netlist = generate("pipe4x1")
        netlist.add_output("din")
        text = netlist_to_verilog(netlist)
        assert text.count("din,") + text.count("din\n") == 1
        recovered = read_verilog(text)
        assert netlist_signature(recovered) == netlist_signature(netlist)
        assert netlist_to_verilog(recovered) == text


EXTERNAL = """\
module ext (clk, d, q);
  input clk;
  input d;
  output q;
  DFF r0 (.D(d), .CK(clk), .Q(q)); // init=1
endmodule
"""


class TestExternalSources:
    """Hand-written files (no writer annotations) still elaborate."""

    def test_minimal_module(self):
        netlist = read_verilog(EXTERNAL)
        assert netlist.name == "ext"
        assert netlist.inputs == ["clk", "d"]
        assert netlist.outputs == ["q"]
        assert netlist.instances["r0"].init == 1

    def test_clock_inferred_without_annotation(self):
        netlist = read_verilog(EXTERNAL)
        assert netlist.clock == "clk"

    def test_no_clock_inference_without_registers(self):
        source = ("module comb (a, y);\n  input a;\n  output y;\n"
                  "  INV u0 (.A(a), .Q(y));\nendmodule\n")
        netlist = read_verilog(source)
        assert netlist.clock is None
        assert infer_clock(netlist) is None

    def test_explicit_library_accepted(self):
        netlist = read_verilog(EXTERNAL, library=GENERIC)
        assert netlist.library is GENERIC

    def test_whitespace_and_comments_ignored(self):
        noisy = EXTERNAL.replace("input d;",
                                 "// free text comment\n  input d;")
        assert (netlist_signature(read_verilog(noisy))
                == netlist_signature(read_verilog(EXTERNAL)))

    def test_free_text_banner_is_not_an_annotation(self):
        # Tool banners mentioning key=value inside prose must not be
        # mined for library=/clock= pairs.
        banner = ("// synthesized with tool=yosys clock=bogus "
                  "library=unknown\n")
        netlist = read_verilog(banner + EXTERNAL)
        assert netlist.clock == "clk"   # inferred, not 'bogus'

    def test_multiline_instance_keeps_init(self):
        split = EXTERNAL.replace(
            "DFF r0 (.D(d), .CK(clk), .Q(q)); // init=1",
            "DFF r0 (.D(d), // init=1\n    .CK(clk), .Q(q));")
        assert read_verilog(split).instances["r0"].init == 1

    def test_shared_line_init_binds_to_last_statement(self):
        source = ("module two (clk, d, q);\n"
                  "  input clk;\n  input d;\n  output q;\n  wire m;\n"
                  "  DFF a (.D(d), .CK(clk), .Q(m)); "
                  "DFF b (.D(m), .CK(clk), .Q(q)); // init=1\n"
                  "endmodule\n")
        netlist = read_verilog(source)
        assert netlist.instances["a"].init == 0
        assert netlist.instances["b"].init == 1


class TestReaderErrors:
    def _reject(self, source, match):
        with pytest.raises(VerilogError, match=match):
            read_verilog(source)

    def test_unknown_cell(self):
        self._reject(EXTERNAL.replace("DFF", "MAGIC4"), "unknown cell")

    def test_undriven_net(self):
        source = ("module bad (a, y);\n  input a;\n  output y;\n"
                  "  wire n;\n  INV u0 (.A(n), .Q(y));\nendmodule\n")
        self._reject(source, "no driver")

    def test_undriven_output_port(self):
        source = ("module bad (a, y);\n  input a;\n  output y;\n"
                  "endmodule\n")
        self._reject(source, "no driver")

    def test_malformed_escape(self):
        self._reject(EXTERNAL.replace("r0", "\\ "), "malformed escaped")

    def test_unterminated_escape(self):
        self._reject("module m (a);\n  input a;\nendmodule \\tail",
                     "unterminated escaped")

    def test_double_driver(self):
        source = ("module bad (a, y);\n  input a;\n  output y;\n"
                  "  INV u0 (.A(a), .Q(y));\n  INV u1 (.A(a), .Q(y));\n"
                  "endmodule\n")
        self._reject(source, "already driven")

    def test_unknown_pin(self):
        self._reject(EXTERNAL.replace(".CK(", ".CLK("), "no pin")

    def test_reserved_word_pin_name_is_a_clean_error(self):
        # Pin names that collide with Netlist.add keywords must raise a
        # located VerilogError, not leak a TypeError.
        for pin in ("name", "init", "cell"):
            self._reject(EXTERNAL.replace(".CK(", f".{pin}("), "no pin")

    def test_port_without_declaration(self):
        # An undeclared port is caught at the module level...
        self._reject("module bad (a, y, u);\n  input a;\n  output y;\n"
                     "  BUF u0 (.A(a), .Q(y));\nendmodule\n",
                     "no input/output declaration")

    def test_port_declared_only_as_wire(self):
        # ...including a port-list name declared only as a wire, which
        # must not silently become an internal net.
        self._reject("module bad (a, p, y);\n  input a;\n  wire p;\n"
                     "  output y;\n  BUF u0 (.A(a), .Q(p));\n"
                     "  BUF u1 (.A(p), .Q(y));\nendmodule\n",
                     "no input/output declaration")

    def test_undeclared_net_in_connection(self):
        # ...and a connection to an undeclared net at the instance.
        self._reject("module bad (a, y);\n  input a;\n  output y;\n"
                     "  BUF u0 (.A(a), .Q(typo));\nendmodule\n",
                     "not declared")

    def test_library_mismatch(self):
        self._reject("// library=tsmc018\n" + EXTERNAL, "mapped to library")

    def test_bad_init_annotation(self):
        self._reject(EXTERNAL.replace("init=1", "init=2"), "init annotation")

    def test_init_on_combinational_cell_rejected(self):
        source = ("module bad (a, y);\n  input a;\n  output y;\n"
                  "  INV u0 (.A(a), .Q(y)); // init=1\nendmodule\n")
        self._reject(source, "holds no state")

    def test_whitespace_in_name_rejected_at_emission(self):
        netlist = generate("lfsr8")
        netlist.net("two words")
        with pytest.raises(VerilogError, match="whitespace"):
            netlist_to_verilog(netlist)

    def test_unemittable_annotation_value(self):
        from repro.netlist import Library, generic_library
        netlist = generate("lfsr8")
        netlist.library = Library(name="spaced out", voltage=1.8,
                                  wire_cap_per_fanout=1.2,
                                  cells=generic_library().cells)
        with pytest.raises(VerilogError, match="whitespace-free"):
            netlist_to_verilog(netlist)

    def test_clock_annotation_not_an_input(self):
        self._reject("// clock=nope\n" + EXTERNAL, "not an\\s+input")

    def test_missing_endmodule(self):
        self._reject("module m (a);\n  input a;\n", "missing 'endmodule'")

    def test_trailing_garbage(self):
        self._reject(EXTERNAL + "module again (x);\nendmodule\n",
                     "after 'endmodule'")

    def test_unexpected_character(self):
        self._reject(EXTERNAL.replace("(clk, d, q)", "(clk, d, q#)"),
                     "unexpected character")

    def test_error_carries_location(self):
        try:
            read_verilog(EXTERNAL.replace("DFF", "MAGIC4"))
        except VerilogError as exc:
            assert exc.line == 5
            assert "line 5" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected VerilogError")


class TestErrorLocations:
    """Error paths must point at the offending token: both the 1-based
    line and column ride on the :class:`VerilogError`."""

    def _located(self, source):
        with pytest.raises(VerilogError) as excinfo:
            read_verilog(source)
        error = excinfo.value
        assert f"line {error.line}:{error.column}" in str(error)
        return error

    def test_truncated_module(self):
        error = self._located("module m (a, y);\n  input a;\n  output y;\n"
                              "  BUF u0 (.A(a), .Q(y));\n")
        assert "missing 'endmodule'" in str(error)
        # the EOF token sits at the start of the line after the last text
        assert (error.line, error.column) == (5, 1)

    def test_duplicate_net_driver(self):
        error = self._located(
            "module bad (a, y);\n  input a;\n  output y;\n"
            "  INV u0 (.A(a), .Q(y));\n  INV u1 (.A(a), .Q(y));\n"
            "endmodule\n")
        assert "already driven by u0" in str(error)
        # located at u1's output pin token on line 5
        assert (error.line, error.column) == (5, 19)

    def test_unknown_cell(self):
        error = self._located(
            "module m (a, y);\n  input a;\n  output y;\n"
            "  MAGIC4 u0 (.A(a), .Q(y));\nendmodule\n")
        assert "unknown cell 'MAGIC4'" in str(error)
        assert (error.line, error.column) == (4, 3)

    def test_bad_annotation_value(self):
        error = self._located(
            "module m (clk, d, q);\n  input clk;\n  input d;\n"
            "  output q;\n"
            "  DFF r0 (.D(d), .CK(clk), .Q(q)); // init=2\nendmodule\n")
        assert "init annotation must be 0 or 1" in str(error)
        # located at the annotation comment itself, not the statement
        assert (error.line, error.column) == (5, 36)


#: Pieces of a random source: the subset's alphabet and keywords,
#: comment and annotation text, backslashes, whitespace the subset does
#: not allow (vertical tab, form feed, unicode spaces and separators)
#: and stray characters.
LEXER_PIECES = (
    *"aZ_09$();,./\\=#@\"-", " ", "\t", "\r", "\n", "\x0b", "\x0c", "\x1c",
    "\x85", "\xa0", "\u2003", "\u2028", "\u3000", "\xe9", "\U0001f600",
    "module", "endmodule", "input", "wire", "INV", "//", "// init=1",
    "\\a/b[0]", "\\x ", "\\",
)


def _stream(source):
    """``iter_tokens`` run to the end: ``(tokens, comments, error)``,
    where ``error`` is ``(message, line, column)`` or ``None``."""
    tokens, comments = [], []
    try:
        for token in iter_tokens(source, comments):
            tokens.append(token)
    except VerilogError as exc:
        return None, None, (str(exc), exc.line, exc.column)
    return tokens, comments, None


def _oracle(source):
    try:
        tokens, comments = lex_verilog(source)
    except VerilogError as exc:
        return None, None, (str(exc), exc.line, exc.column)
    return tokens, comments, None


class TestStreamingLexer:
    """``iter_tokens`` lexes exactly as the character-loop lexer did:
    the same tokens, comments and errors, at the same positions."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(LEXER_PIECES), max_size=40).map("".join))
    def test_matches_the_character_loop_oracle(self, source):
        assert _stream(source) == _oracle(source)

    @pytest.mark.parametrize("name", ["dlx", "pipe4x1", "lfsr8"])
    def test_matches_the_oracle_on_written_sources(self, name):
        source = netlist_to_verilog(generate(name))
        assert _stream(source) == _oracle(source)

    def test_token_fields_and_repr(self):
        token = Token(ID, "u0", 3, 7)
        assert (token.kind, token.value, token.line, token.column) == \
            (ID, "u0", 3, 7)
        assert repr(token) == "Token(id, 'u0', 3:7)"

    def test_first_error_in_source_order_is_reported(self):
        # A syntax error on line 1 precedes a stray character on line 3.
        # Lexing the whole source first reported the lexical error; the
        # streaming reader stops at the syntax error.
        source = "module m (a b);\n  input a;\n#\nendmodule\n"
        with pytest.raises(VerilogError) as lexical:
            lex_verilog(source)
        assert (lexical.value.line, lexical.value.column) == (3, 1)
        with pytest.raises(VerilogError, match=r"expected '\)'") as syntax:
            read_verilog(source)
        assert (syntax.value.line, syntax.value.column) == (1, 13)


def test_reader_peak_memory_is_near_the_netlist_it_returns():
    """The reader streams its tokens: while reading the DLX source, its
    allocation peak stays within 1.5x the netlist it returns."""
    from repro.dlx.cpu import build_dlx
    source = netlist_to_verilog(build_dlx().netlist)
    gc.collect()
    tracemalloc.start()
    try:
        netlist = read_verilog(source)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(netlist) > 1000
    assert peak <= 1.5 * kept, (peak, kept)
