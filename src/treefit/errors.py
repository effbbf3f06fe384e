"""The core's exceptions and input rule (the paper library's are in its `lemmas`).

`ascii_bytes` reads a `str` exactly as the file of its UTF-8 bytes, turns
CRLF and a lone CR into LF and refuses a non-ASCII byte; `ascii_lines` ends
a line at LF only.  No line reader takes the `_` digit separators that `int`
takes (`integer`), so an integer is `[+-]?[0-9]+`.
"""

import re
from typing import Iterable, Iterator


class TreefitError(Exception):
    """Base class for all treefit errors."""


class ParseError(TreefitError):
    """Malformed graph/tree/certificate text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def read_bytes(path) -> bytes:
    """A file's bytes, in one unbuffered binary read."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read()


def ascii_bytes(source: str | bytes) -> bytes:
    """`source` as every reader parses it: a `str` as its UTF-8 bytes (lone
    surrogates too), CRLF and a lone CR each as LF; a non-ASCII byte raises
    ParseError on its line, counted by LF.  Bytes without CR are not copied."""
    data = source.encode("utf-8", "surrogatepass") if isinstance(source, str) else source
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        bad = re.search(rb"[\x80-\xff]", data).start()
        raise ParseError(f"non-ASCII byte 0x{data[bad]:02x}", data.count(b"\n", 0, bad) + 1)
    return data


def ascii_lines(source: str | bytes) -> list[str]:
    """The lines of `ascii_bytes(source)`, each ended by LF alone (VT, FF
    and FS to RS stay in their line); none follows the last LF."""
    lines = ascii_bytes(source).decode("ascii").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def integer(token: str) -> int:
    """The value of a token without whitespace, as `int` reads it but with
    no `_` digit separators, which `int` takes: an ASCII token must be
    `[+-]?[0-9]+`.  Anything else raises ValueError."""
    if "_" in token:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def read_pairs(
    lines: Iterable[str], start: int, shape: str, non_integer: str
) -> Iterator[tuple[int, int, int]]:
    """(line number, a, b) per non-blank line, numbered from `start`; a line
    of another token count raises ParseError(shape), a non-integer token
    ParseError(non_integer), on that line."""
    for lineno, raw in enumerate(lines, start):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(shape, lineno)
        if "_" in raw:  # as `integer` refuses it, tested once per line
            raise ParseError(non_integer, lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(non_integer, lineno) from None
        yield lineno, a, b


class EmptyGraphError(TreefitError):
    """An operation that needs at least one vertex got an empty graph."""


class PreconditionViolated(TreefitError):
    """A documented precondition of an operation does not hold."""


class InvalidThreePartitionError(TreefitError):
    """Numbers do not form a valid 3-partition instance."""


class InvalidPartitionError(TreefitError):
    """The proposed triple partition does not solve the instance."""


class BudgetExceededError(TreefitError):
    """Exhaustive search hit its node budget."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exceeded after {nodes} nodes")
