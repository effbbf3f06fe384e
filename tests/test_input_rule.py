"""The one input rule of every reader: a `str` reads exactly as the file of
its UTF-8 bytes, CRLF and a lone CR become LF, a non-ASCII byte is a
ParseError on its LF-counted line, and a line ends at LF only."""

from random import Random

import pytest

from treefit.embedding import parse_certificate, read_certificate
from treefit.errors import ParseError
from treefit.graph import parse_graph, read_graph
from treefit.trees import parse_tree, read_tree

READERS = {
    "graph": (parse_graph, read_graph),
    "tree": (parse_tree, read_tree),
    "certificate": (parse_certificate, read_certificate),
}

# line ends the rule translates (CR, CRLF) or keeps inside a line (VT, FF,
# FS to RS, and the non-ASCII NEL and U+2028), LF most often
ENDINGS = ["\n"] * 12 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
# lines a text may carry besides its pairs
JUNK = ["", " ", "\t", "x", "0 1 2", "7", "1_0 2", "\u00e9", "\ud800", "\u0661 \u0662", "\x0c"]
DIGITS = "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"  # Arabic-Indic


def _token(value: int, rng: Random) -> str:
    """`value` as written, or in a loose form: a sign, a leading zero, or
    Arabic-Indic digits."""
    roll = rng.random()
    if roll < 0.7:
        return str(value)
    if roll < 0.8:
        return f"+{value}"
    if roll < 0.9:
        return f"0{value}"
    return "".join(DIGITS[int(d)] for d in str(value))


def _text(kind: str, rng: Random) -> str:
    """A text of `kind` over a few vertices, in the written form or mixed
    with loose forms, other line ends and junk lines."""
    n = rng.randint(1, 6)
    if kind == "tree":
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        header = [n]
    elif kind == "graph":
        pairs = sorted({tuple(sorted(rng.sample(range(n + 1), 2))) for _ in range(rng.randint(0, 6))})
        header = [n + 1, len(pairs)]
    else:
        pairs = [(v, rng.randrange(2 * n)) for v in range(n)]
        header = []
    rows = [header] if header else []
    rows += [list(p) for p in pairs]
    loose = rng.random() < 0.7
    lines = []
    for row in rows:
        sep = rng.choice([" ", " ", "\t", "  "]) if loose else " "
        lines.append(sep.join(_token(v, rng) if loose else str(v) for v in row))
    if loose:
        for _ in range(rng.randint(0, 2)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(JUNK))
    ends = [rng.choice(ENDINGS) if loose else "\n" for _ in lines]
    if loose and lines and rng.random() < 0.2:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _result(read, arg):
    """What `read(arg)` gives: the error's text and line, a certificate's
    mapping, or a graph's vertex count and neighbour lists in iteration order."""
    try:
        got = read(arg)
    except ParseError as exc:
        return "error", str(exc), exc.line
    if hasattr(got, "mapping"):
        return "certificate", got.mapping
    return "graph", got.n, [list(s) for s in got.adjacency()]


@pytest.mark.parametrize("kind", READERS)
def test_a_str_reads_as_the_file_of_its_bytes(kind, tmp_path):
    parse, read = READERS[kind]
    path = tmp_path / f"input.{kind}"
    rng = Random(f"input rule {kind}")
    kinds = set()
    for _ in range(600):
        text = _text(kind, rng)
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        expected = _result(read, path)
        assert _result(parse, text) == expected, repr(text)
        kinds.add(expected[0])
    assert len(kinds) == 2  # some texts parse, some do not


@pytest.mark.parametrize(
    "data,message",
    [
        # a FF ends no line: line 2 holds both pairs, and the bad line is 3
        (b"3 2\n0 1\x0c1 2\n", "line 2: expected `u v`"),
        (b"3 2\n0 1\x0c\n0 x\n", "line 3: non-integer endpoint"),
        (b"3 1\n\x0c\n0 1\xc3\n", "line 3: non-ASCII byte 0xc3"),
    ],
)
def test_only_lf_ends_a_graph_line(tmp_path, data, message):
    path = tmp_path / "g.graph"
    path.write_bytes(data)
    for read, arg in ((read_graph, path), (parse_graph, data.decode("latin-1"))):
        with pytest.raises(ParseError) as exc:
            read(arg)
        assert str(exc.value) == message


def test_non_ascii_digits_are_refused_in_a_str():
    with pytest.raises(ParseError) as exc:
        parse_tree("\u0663\n\u0660 \u0661\n\u0661 \u0662\n")
    assert (str(exc.value), exc.value.line) == ("line 1: non-ASCII byte 0xd9", 1)
