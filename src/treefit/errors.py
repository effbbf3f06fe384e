"""The core's exceptions and file readers (the paper library's are in its `lemmas`).

Files are read as bytes: `read_ascii_bytes` hands them to the graph bulk
parser as they are, and `read_ascii` decodes them for the tree, certificate
and numbers readers.  No line reader takes the `_` digit separators that
`int` takes (`integer`), so an ASCII file's integer is `[+-]?[0-9]+`.
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


def read_ascii_bytes(path) -> bytes:
    """Bytes of an ASCII file, read unbuffered in binary, with CRLF and a
    lone CR each turned into LF, as text mode turns them; a non-ASCII byte
    raises ParseError on the line that holds it.  Nothing is decoded, and a
    file without CR is not copied."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    if not data.isascii():
        bad = re.search(rb"[\x80-\xff]", data).start()
        line = len((data[:bad].decode("ascii") + "x").splitlines())
        raise ParseError(f"non-ASCII byte 0x{data[bad]:02x}", line)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def read_ascii(path) -> str:
    """Text of an ASCII file: `read_ascii_bytes`, decoded."""
    return read_ascii_bytes(path).decode("ascii")


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
