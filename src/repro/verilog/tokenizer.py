"""Lexer for the structural-Verilog subset the flow reads and writes.

The subset is exactly what :mod:`repro.verilog.writer` emits: plain and
escaped identifiers, the punctuation of module/port/instance syntax, and
``//`` line comments.  Comments are not discarded — the writer encodes
machine-readable annotations (``library=``, ``clock=``, ``init=``) as
``// key=value`` comments.  :func:`iter_tokens` is a generator: it
yields one token at a time, so the reader never holds the whole token
stream, and appends each comment to a caller's list as it passes it.
The reader associates a comment with the header or with an instance
statement once its lookahead token lies past the comment.

Escaped identifiers follow the Verilog rule: ``\\`` starts the
identifier, any run of printable non-whitespace characters forms the
name, and a whitespace character *must* terminate it.  A backslash
followed by whitespace or end-of-input is a lexing error.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from repro.utils.errors import VerilogError

# Token kinds.
ID = "id"            # plain identifier (keywords are plain identifiers)
ESCAPED = "escaped"  # escaped identifier; value holds the unescaped name
SYMBOL = "symbol"    # one of ``( ) ; , .``
EOF = "eof"

# One alternative per token kind, tried at the cursor.  Only valid
# tokens match; the no-match branch of :func:`iter_tokens` names the
# error.  ``\s`` and :meth:`str.isspace` agree on every character.
_TOKEN_RE = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | \\(?P<escaped>\S+)(?=\s)
  | (?P<symbol>[();,.])
  | (?P<id>[A-Za-z_][A-Za-z0-9_$]*)
""", re.VERBOSE)
# match.lastindex -> token kind (None: not a token).
_KINDS = (None, None, None, ESCAPED, SYMBOL, ID)
_SPACE, _COMMENT = 1, 2
_ANNOTATION_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=(\S+)")


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


@dataclass(frozen=True)
class Comment:
    """A ``//`` comment with its source position (1-based)."""

    text: str
    line: int
    column: int = 0

    def annotations(self) -> dict[str, str]:
        """``key=value`` pairs, or ``{}`` unless the *whole* comment is pairs.

        A comment is an annotation only when every whitespace-separated
        token matches ``key=value``; free text that happens to contain
        an ``=`` (tool banners, prose) is never mined for pairs.
        """
        tokens = self.text.split()
        if not tokens:
            return {}
        matches = [_ANNOTATION_RE.fullmatch(token) for token in tokens]
        if not all(matches):
            return {}
        return {match.group(1): match.group(2) for match in matches}


def iter_tokens(source: str, comments: list[Comment]) -> Iterator[Token]:
    """Lex ``source`` one token at a time, ending with an ``EOF`` token.

    Each ``//`` comment is appended to ``comments`` when the lexer
    passes it, so every comment before the last yielded token is there.
    Raises :class:`VerilogError` on characters outside the subset or on
    malformed escaped identifiers, when the lexer reaches them.
    """
    line, line_start = 1, 0
    pos, length = 0, len(source)
    match_at = _TOKEN_RE.match
    while pos < length:
        match = match_at(source, pos)
        if match is None:
            raise _lexical_error(source, pos, line, pos - line_start + 1)
        group = match.lastindex
        if group == _SPACE:
            newlines = match.group().count("\n")
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, match.end()) + 1
        elif group == _COMMENT:
            comments.append(Comment(match.group()[2:].strip(), line,
                                    pos - line_start + 1))
        else:
            yield Token(_KINDS[group], match.group(group), line,
                        pos - line_start + 1)
        pos = match.end()
    yield Token(EOF, "", line, length - line_start + 1)


def _lexical_error(source: str, pos: int, line: int,
                   column: int) -> VerilogError:
    """The error for the text at ``pos``, where no token matches."""
    if source[pos] != "\\":
        return VerilogError(f"unexpected character {source[pos]!r}",
                            line, column)
    end = pos + 1
    while end < len(source) and not source[end].isspace():
        end += 1
    if end == pos + 1:
        return VerilogError("malformed escaped identifier: '\\' must be "
                            "followed by non-whitespace characters",
                            line, column)
    return VerilogError("unterminated escaped identifier "
                        f"{source[pos:end]!r} (escaped identifiers end "
                        "with whitespace)", line, column)
