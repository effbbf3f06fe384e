"""Batch front-end.

Subcommands: solve, verify, generate, oracle, bench.  Exit codes for solve
and oracle: 0 = contains, 1 = not contained, 2 = not found (the node budget
ran out: a BudgetExceeded note, and no bound claimed), anything above 2 is
a usage, parse or file error.  Only `generate random` draws random numbers,
so it alone takes `--seed` (or TREEFIT_SEED).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

from . import hardness
from .color_coding import DEFAULT_NODE_BUDGET
from .embedding import read_certificate, write_certificate
from .errors import BudgetExceededError, ParseError, TreefitError, read_ascii
from .generate import random_graph_min_degree, random_tree
from .graph import read_graph, write_graph
from .outcome import Contains, NotContained, NotFound
from .pipeline import SolveConfig, brute_force_contains, solve, verify_certificate
from .seeds import rng_from
from .trees import read_tree, write_tree

EXIT_CONTAINS = 0
EXIT_NOT_CONTAINED = 1
EXIT_NOT_FOUND = 2
EXIT_USAGE = 3

BENCH_FIELDS = ["instance", "outcome", "branch", "ms", "read_ms", "note", "error"]


def _node_budget(args) -> int | None:
    return None if args.mode == "strict" else args.budget_nodes


def _config_from(args) -> SolveConfig:
    return SolveConfig(node_budget=_node_budget(args))


def _outcome_exit(outcome, cert_out) -> int:
    if isinstance(outcome, Contains):
        print(f"CONTAINS branch={outcome.branch}")
        if cert_out:
            write_certificate(cert_out, outcome.embedding)
        return EXIT_CONTAINS
    if isinstance(outcome, NotContained):
        print(f"NOT_CONTAINED reason={outcome.reason}")
        return EXIT_NOT_CONTAINED
    assert isinstance(outcome, NotFound)
    print(f"NOT_FOUND note={outcome.note}")
    return EXIT_NOT_FOUND


def cmd_solve(args) -> int:
    g = read_graph(args.graph)
    t = read_tree(args.tree)
    outcome = solve(g, t, _config_from(args))
    return _outcome_exit(outcome, args.cert_out)


def cmd_oracle(args) -> int:
    g = read_graph(args.graph)
    t = read_tree(args.tree)
    try:
        outcome = brute_force_contains(g, t, node_cap=_node_budget(args))
    except BudgetExceededError as exc:
        outcome = NotFound(note=f"BudgetExceeded nodes={exc.nodes}")
    return _outcome_exit(outcome, args.cert_out)


def cmd_verify(args) -> int:
    g = read_graph(args.graph)
    t = read_tree(args.tree)
    cert = read_certificate(args.certificate)
    if verify_certificate(g, t, cert):
        print("VALID")
        return 0
    print("INVALID")
    return 1


def _read_numbers(path) -> tuple[int, tuple[int, ...]]:
    """A hardness numbers file: whitespace-separated integers, the target
    first (on line 1), then the sizes."""
    values = []
    for lineno, line in enumerate(read_ascii(path).splitlines(), 1):
        for token in line.split():
            try:
                values.append(int(token))
            except ValueError:
                raise ParseError(f"non-integer number {token!r}", lineno) from None
    if not values:
        raise ParseError("empty numbers file", 1)
    return values[0], tuple(values[1:])


def cmd_generate(args) -> int:
    if args.kind == "random":
        rng = rng_from(args.seed)
        g = random_graph_min_degree(args.n, args.min_degree, rng)
        t = random_tree(args.tree_size, rng)
        landmarks = None
        summary = (
            f"wrote instance.graph (n={g.n}, m={g.edge_count}, "
            f"min_degree={g.min_degree()}) and instance.tree (n={t.n})"
        )
    else:
        target, sizes = _read_numbers(args.numbers)
        inst = hardness.ThreePartitionInstance(sizes, target)
        out = hardness.generate_hardness_instance(inst, args.epsilon)
        g, t, landmarks = out.graph, out.tree, out.landmark_lines()
        summary = f"wrote hardness instance: |V(G)|={g.n}, |V(T)|={t.n}, min_degree={out.delta}"
    # the instance is built, and so validated, before the directory is made
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_graph(out_dir / "instance.graph", g)
    write_tree(out_dir / "instance.tree", t)
    if landmarks is not None:
        (out_dir / "landmarks.jsonl").write_text("\n".join(landmarks) + "\n", encoding="ascii")
    print(summary)
    return 0


def cmd_bench(args) -> int:
    instance_dir = Path(args.dir)
    rows = []
    for graph_path in sorted(instance_dir.glob("*.graph")):
        tree_path = graph_path.with_suffix(".tree")
        if not tree_path.exists():
            continue
        name = graph_path.stem
        row = dict.fromkeys(BENCH_FIELDS, "")
        row["instance"] = name
        try:
            start = time.perf_counter()
            g = read_graph(graph_path)
            t = read_tree(tree_path)
            read_done = time.perf_counter()
            row["read_ms"] = f"{(read_done - start) * 1000.0:.3f}"
            outcome = solve(g, t, _config_from(args))
            row["ms"] = f"{(time.perf_counter() - read_done) * 1000.0:.3f}"
            if isinstance(outcome, Contains):
                row["outcome"] = "contains"
                row["branch"] = outcome.branch
            elif isinstance(outcome, NotContained):
                row["outcome"] = "not_contained"
                row["branch"] = outcome.reason
            else:
                row["outcome"] = "not_found"
                row["note"] = outcome.note
        except (TreefitError, OSError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    writer = csv.DictWriter(sys.stdout, fieldnames=BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return 0


def _count(text: str) -> int:
    """The argparse type of the count flags: a negative value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_USAGE on a usage error, not argparse's 2 (the
    NOT_FOUND code); subcommand parsers share the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treefit",
        description="Tree containment solver for hosts with slack above the minimum degree",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mode", choices=["strict", "budgeted"], default="budgeted")
        p.add_argument("--budget-nodes", type=_count, default=DEFAULT_NODE_BUDGET)

    p_solve = sub.add_parser("solve", help="decide containment and emit a certificate")
    p_solve.add_argument("--graph", required=True)
    p_solve.add_argument("--tree", required=True)
    p_solve.add_argument("--cert-out", default=None)
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exact brute-force decision")
    p_oracle.add_argument("--graph", required=True)
    p_oracle.add_argument("--tree", required=True)
    p_oracle.add_argument("--cert-out", default=None)
    common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="check a certificate file")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--tree", required=True)
    p_verify.add_argument("--certificate", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="write instance files")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    p_rand = gen_sub.add_parser("random")
    p_rand.add_argument("--n", type=_count, required=True)
    p_rand.add_argument("--min-degree", type=_count, required=True)
    p_rand.add_argument("--tree-size", type=_count, required=True)
    p_rand.add_argument("--seed", type=int, default=None, help="64-bit master seed (or TREEFIT_SEED, then 0)")
    p_rand.add_argument("--out-dir", required=True)
    p_rand.set_defaults(func=cmd_generate, kind="random")
    p_hard = gen_sub.add_parser("hardness")
    p_hard.add_argument("--numbers", required=True, help="file: target then the 3n sizes")
    p_hard.add_argument("--epsilon", type=float, required=True)
    p_hard.add_argument("--out-dir", required=True)
    p_hard.set_defaults(func=cmd_generate, kind="hardness")

    p_bench = sub.add_parser("bench", help="run solve over *.graph/*.tree pairs, emit CSV")
    p_bench.add_argument("--dir", required=True)
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) is None:  # `generate random` without --seed
        env = os.environ.get("TREEFIT_SEED")
        try:
            args.seed = int(env) if env else 0
        except ValueError:
            parser.error(f"TREEFIT_SEED must be an integer, got {env!r}")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing, unreadable or unwritable path, named in exc
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TreefitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
