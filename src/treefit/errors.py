"""Exception hierarchy shared by every treefit module."""

import re


class TreefitError(Exception):
    """Base class for all treefit errors."""


class ParseError(TreefitError):
    """Malformed graph/tree/certificate text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def read_ascii(path) -> str:
    """Text of an ASCII file (universal newlines); a non-ASCII byte raises
    ParseError on the line that holds it."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
    bad = re.search(rb"[\x80-\xff]", data).start()
    line = len((data[:bad].decode("ascii") + "x").splitlines())
    raise ParseError(f"non-ASCII byte 0x{data[bad]:02x}", line)


class EmptyGraphError(TreefitError):
    """An operation that needs at least one vertex got an empty graph."""


class PreconditionViolated(TreefitError):
    """A documented precondition of an operation does not hold."""


class HypothesisNotMet(TreefitError):
    """A checked hypothesis fails; carries the violating object when known."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class IsEscapeVertexError(TreefitError):
    """nonescape_separator was called on an escape vertex."""


class TooSmallError(TreefitError):
    """The graph is too small for both separator sides to be nonempty."""


class TreeIsSeparableError(TreefitError):
    """The tree admits a balanced split that the operation assumes away."""


class InvalidThreePartitionError(TreefitError):
    """Numbers do not form a valid 3-partition instance."""


class InvalidPartitionError(TreefitError):
    """The proposed triple partition does not solve the instance."""


class BudgetExceededError(TreefitError):
    """Exhaustive search hit its node budget."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exceeded after {nodes} nodes")
