import csv
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from helpers import cycle, path_tree, petersen, spider, star_tree
from treefit import cli
from treefit.cli import main
from treefit.graph import Graph, read_graph, write_graph
from treefit.trees import read_tree, write_tree


def chorded_cycle() -> Graph:
    return Graph(16, list(cycle(16).edges()) + [(0, 2)])


def run_cli(args) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


@pytest.fixture()
def instance_dir(tmp_path):
    write_graph(tmp_path / "a.graph", cycle(6))
    write_tree(tmp_path / "a.tree", path_tree(3))
    write_graph(tmp_path / "b.graph", petersen())
    write_tree(tmp_path / "b.tree", star_tree(4))
    return tmp_path


class TestSolve:
    def test_contains_with_certificate(self, instance_dir, tmp_path):
        cert = tmp_path / "out.cert"
        code, out = run_cli(
            [
                "solve",
                "--graph", str(instance_dir / "a.graph"),
                "--tree", str(instance_dir / "a.tree"),
                "--cert-out", str(cert),
            ]
        )
        assert code == 0
        assert out.startswith("CONTAINS")
        verify_code, verify_out = run_cli(
            [
                "verify",
                "--graph", str(instance_dir / "a.graph"),
                "--tree", str(instance_dir / "a.tree"),
                "--certificate", str(cert),
            ]
        )
        assert verify_code == 0 and verify_out.strip() == "VALID"

    def test_not_contained_exit_code(self, instance_dir):
        code, out = run_cli(
            [
                "solve",
                "--graph", str(instance_dir / "b.graph"),
                "--tree", str(instance_dir / "b.tree"),
            ]
        )
        assert code == 1
        assert out.startswith("NOT_CONTAINED")

    def test_deterministic_output(self, instance_dir, tmp_path):
        args = [
            "solve",
            "--graph", str(instance_dir / "a.graph"),
            "--tree", str(instance_dir / "a.tree"),
            "--cert-out", str(tmp_path / "c1"),
        ]
        code1, out1 = run_cli(args)
        args[-1] = str(tmp_path / "c2")
        code2, out2 = run_cli(args)
        assert (code1, out1) == (code2, out2)
        assert (tmp_path / "c1").read_bytes() == (tmp_path / "c2").read_bytes()

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("2 1\n1 1\n")
        code, _ = run_cli(
            ["solve", "--graph", str(bad), "--tree", str(bad)]
        )
        assert code == 3

    def test_not_found_exit_with_round_metadata(self, tmp_path):
        from treefit.trees import Tree

        # the spider below on a 16-cycle with the chord 0-2: NO, see
        # TestBench.test_budget_note_column, and more than 10 search nodes
        write_graph(tmp_path / "c.graph", chorded_cycle())
        edges = []
        nxt = 1
        for _ in range(3):
            prev = 0
            for _ in range(3):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        write_tree(tmp_path / "c.tree", Tree(10, edges))
        code, out = run_cli(
            [
                "solve",
                "--graph", str(tmp_path / "c.graph"),
                "--tree", str(tmp_path / "c.tree"),
                "--budget-nodes", "10",
            ]
        )
        assert code == 2
        assert out == "NOT_FOUND note=BudgetExceeded\n"

    def test_non_ascii_input_is_a_parse_error(self, instance_dir, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_bytes(b"3 2\n0 1\n1 \xc3\xa92\n")
        code, out = run_cli(
            ["solve", "--graph", str(bad), "--tree", str(instance_dir / "a.tree")]
        )
        assert code == 3 and out == ""
        assert "line 3: non-ASCII byte 0xc3" in capsys.readouterr().err
        bad_tree = tmp_path / "bad.tree"
        bad_tree.write_bytes(b"\xff3\n0 1\n1 2\n")
        code, _ = run_cli(
            ["solve", "--graph", str(instance_dir / "a.graph"), "--tree", str(bad_tree)]
        )
        assert code == 3
        assert "line 1: non-ASCII byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["graph", "tree"])
    def test_unreadable_path_is_a_file_error(self, instance_dir, tmp_path, capsys, path):
        # a directory in place of a file: IsADirectoryError, not a traceback
        # with exit 1 (NOT_CONTAINED's code)
        paths = {"graph": instance_dir / "a.graph", "tree": instance_dir / "a.tree"}
        paths[path] = tmp_path / f"d.{path}"
        paths[path].mkdir()
        code, out = run_cli(["solve", "--graph", str(paths["graph"]), "--tree", str(paths["tree"])])
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert "file error" in err and str(paths[path]) in err

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_failed_certificate_write_prints_no_verdict(self, instance_dir, tmp_path, capsys, command):
        # the certificate is written before the verdict is printed, so a
        # failed write leaves stdout empty rather than saying CONTAINS
        cert = tmp_path / "missing" / "x.cert"
        code, out = run_cli(
            [
                command,
                "--graph", str(instance_dir / "a.graph"),
                "--tree", str(instance_dir / "a.tree"),
                "--cert-out", str(cert),
            ]
        )
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert "file error" in err and str(cert) in err


class TestCrash:
    def test_uncaught_exception_exits_3(self, instance_dir, capsys, monkeypatch):
        # Python's own exit code for a crash, 1, is the NOT_CONTAINED code
        def crash(*args):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(cli, "solve", crash)
        code, out = run_cli(
            ["solve", "--graph", str(instance_dir / "a.graph"), "--tree", str(instance_dir / "a.tree")]
        )
        assert code == 3 and out == ""
        assert capsys.readouterr().err == "error: RuntimeError: solver crashed\n"


class TestCountFlags:
    """A negative count is a usage error (exit 3), not a ValueError
    traceback with exit 1 (NOT_CONTAINED's code) or a solve under a
    negative budget."""

    @pytest.mark.parametrize("flag", ["--n", "--min-degree", "--tree-size", "--budget-nodes"])
    def test_negative_value_exits_3(self, instance_dir, capsys, flag):
        if flag == "--budget-nodes":
            args = ["solve", "--graph", str(instance_dir / "a.graph"), "--tree", str(instance_dir / "a.tree")]
            args += [flag, "-5"]
        else:
            counts = {"--n": "6", "--min-degree": "2", "--tree-size": "3", flag: "-1"}
            args = ["generate", "random", "--out-dir", str(instance_dir / "x")]
            args += [part for item in counts.items() for part in item]
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}: must be non-negative" in captured.err
        assert not (instance_dir / "x").exists()

    def test_zero_and_non_integers_as_before(self, tmp_path, capsys):
        write_graph(tmp_path / "c.graph", chorded_cycle())
        write_tree(tmp_path / "c.tree", spider(3, 3))
        args = ["solve", "--graph", str(tmp_path / "c.graph"), "--tree", str(tmp_path / "c.tree")]
        code, out = run_cli(args + ["--budget-nodes", "0"])
        assert code == 2 and out == "NOT_FOUND note=BudgetExceeded\n"
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--budget-nodes", "ten"])
        assert exc.value.code == 3
        assert "argument --budget-nodes: invalid int value: 'ten'" in capsys.readouterr().err


    @staticmethod
    def solving_args(command, instance_dir) -> list[str]:
        if command == "bench":
            return ["bench", "--dir", str(instance_dir)]
        return [command, "--graph", str(instance_dir / "a.graph"), "--tree", str(instance_dir / "a.tree")]

    @pytest.mark.parametrize("command", ["solve", "oracle", "bench"])
    def test_failure_exponent_is_a_usage_error(self, instance_dir, capsys, command):
        # `solve` runs no colour-coding trial, so it has no failure bound to set
        with pytest.raises(SystemExit) as exc:
            run_cli(self.solving_args(command, instance_dir) + ["--failure-exponent", "20"])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --failure-exponent 20" in captured.err

    @pytest.mark.parametrize("command", ["solve", "oracle", "bench"])
    def test_seed_is_a_usage_error(self, instance_dir, capsys, command):
        # none of the three draws random numbers, so none has a seed to take
        with pytest.raises(SystemExit) as exc:
            run_cli(self.solving_args(command, instance_dir) + ["--seed", "3"])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --seed 3" in captured.err


class TestVerify:
    def test_corrupted_certificate(self, instance_dir, tmp_path):
        cert = tmp_path / "bad.cert"
        cert.write_text("0 0\n1 2\n2 4\n")  # skips around the cycle
        code, out = run_cli(
            [
                "verify",
                "--graph", str(instance_dir / "a.graph"),
                "--tree", str(instance_dir / "a.tree"),
                "--certificate", str(cert),
            ]
        )
        assert code == 1 and out.strip() == "INVALID"

    def test_non_ascii_certificate(self, instance_dir, tmp_path, capsys):
        cert = tmp_path / "bad.cert"
        cert.write_bytes(b"0 0\r\n1 1\r\n2 \xe2\x80\x892\r\n")
        code, _ = run_cli(
            [
                "verify",
                "--graph", str(instance_dir / "a.graph"),
                "--tree", str(instance_dir / "a.tree"),
                "--certificate", str(cert),
            ]
        )
        assert code == 3
        assert "line 3: non-ASCII byte 0xe2" in capsys.readouterr().err


class TestOracle:
    def test_oracle_subcommand(self, instance_dir):
        code, out = run_cli(
            [
                "oracle",
                "--graph", str(instance_dir / "b.graph"),
                "--tree", str(instance_dir / "b.tree"),
            ]
        )
        assert code == 1

    def test_strict_mode_lifts_node_cap(self, tmp_path):
        write_graph(tmp_path / "c.graph", cycle(16))
        write_tree(tmp_path / "c.tree", path_tree(16))
        args = [
            "oracle",
            "--graph", str(tmp_path / "c.graph"),
            "--tree", str(tmp_path / "c.tree"),
            "--budget-nodes", "5",
        ]
        code, out = run_cli(args)
        assert code == 2
        assert out.strip() == "NOT_FOUND note=BudgetExceeded nodes=6"
        code, out = run_cli(args + ["--mode", "strict"])
        assert code == 0 and out.startswith("CONTAINS branch=oracle")


class TestGenerate:
    def test_random_instance(self, tmp_path):
        out_dir = tmp_path / "gen"
        code, out = run_cli(
            [
                "generate", "random",
                "--n", "54", "--min-degree", "48", "--tree-size", "20",
                "--seed", "5", "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        g = read_graph(out_dir / "instance.graph")
        t = read_tree(out_dir / "instance.tree")
        assert g.n == 54 and g.min_degree() >= 48 and t.n == 20

    def test_seed_variable_stands_in_for_the_flag(self, tmp_path, monkeypatch):
        def generate(name, *seed):
            args = ["generate", "random", "--n", "12", "--min-degree", "3", "--tree-size", "6"]
            code, _ = run_cli(args + [*seed, "--out-dir", str(tmp_path / name)])
            assert code == 0
            return [(tmp_path / name / f).read_bytes() for f in ("instance.graph", "instance.tree")]

        flag3, flag4 = generate("flag3", "--seed", "3"), generate("flag4", "--seed", "4")
        assert flag3 != flag4
        monkeypatch.setenv("TREEFIT_SEED", "3")
        assert generate("env3") == flag3
        assert generate("env3_flag4", "--seed", "4") == flag4

    def test_non_integer_seed_variable_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # an uncaught ValueError would exit 1, which reads as NOT_CONTAINED;
        # the variable is rejected before any file is written
        monkeypatch.setenv("TREEFIT_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                [
                    "generate", "random",
                    "--n", "12", "--min-degree", "3", "--tree-size", "6",
                    "--out-dir", str(tmp_path / "x"),
                ]
            )
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "TREEFIT_SEED must be an integer, got 'abc'" in captured.err
        assert not (tmp_path / "x").exists()

    def test_hardness_instance(self, tmp_path):
        numbers = tmp_path / "numbers.txt"
        numbers.write_text("9\n3 3 3\n")
        out_dir = tmp_path / "hard"
        code, out = run_cli(
            [
                "generate", "hardness",
                "--numbers", str(numbers), "--epsilon", "1.0",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        g = read_graph(out_dir / "instance.graph")
        t = read_tree(out_dir / "instance.tree")
        assert g.n == 5803 and t.n == 43
        assert (out_dir / "landmarks.jsonl").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"9\n3 3 x\n", "line 2: non-integer number 'x'"),
            # a FF ends no line: the bad token is on LF line 2
            (b"9\x0c\n3 3 x\n", "line 2: non-integer number 'x'"),
            (b"9\n3 3 1_0\n", "line 2: non-integer number '1_0'"),
            (b"9\n3 3 \xc3\xa9\n", "line 2: non-ASCII byte 0xc3"),
            (b"", "line 1: empty numbers file"),
        ],
    )
    def test_bad_numbers_file_is_a_parse_error(self, tmp_path, capsys, content, message):
        numbers = tmp_path / "numbers.txt"
        numbers.write_bytes(content)
        code, _ = run_cli(
            [
                "generate", "hardness",
                "--numbers", str(numbers), "--epsilon", "1.0",
                "--out-dir", str(tmp_path / "hard"),
            ]
        )
        assert code == 3
        assert message in capsys.readouterr().err

    def test_infeasible_parameters(self, tmp_path, capsys):
        code, out = run_cli(
            [
                "generate", "random",
                "--n", "5", "--min-degree", "10", "--tree-size", "3",
                "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 3 and out == ""
        assert "cannot reach min degree 10 on 5 vertices" in capsys.readouterr().err
        # the instance is checked before the output directory is made
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--epsilon", "1.0", "--seed", "3"], "unrecognized arguments: --seed 3"),
            ([], "the following arguments are required: --epsilon"),
        ],
    )
    def test_usage_error_exits_3(self, tmp_path, capsys, extra, message):
        # argparse's own code is 2, which means NOT_FOUND here
        numbers = tmp_path / "numbers.txt"
        numbers.write_text("9\n3 3 3\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["generate", "hardness", "--numbers", str(numbers), "--out-dir", str(tmp_path / "x")]
                + extra
            )
        assert exc.value.code == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "epsilon, message",
        [
            # NaN passed an `epsilon <= 0` check and failed later as a ValueError, exit 1
            ("nan", "epsilon must be positive"),
            # min degree ceil(12 / epsilon) is an int too large for any host
            ("1e-300", "epsilon 1e-300: min degree 1.2e+301, inf host edges, more than 10,000,000"),
            # min degree 120,000: host blocks of 120,001 vertices each
            ("1e-4", "epsilon 0.0001: min degree 1.2e+05, 7.78e+15 host edges, more than 10,000,000"),
        ],
        ids=["nan", "1e-300", "1e-4"],
    )
    def test_nan_epsilon_exits_3(self, tmp_path, capsys, epsilon, message):
        numbers = tmp_path / "numbers.txt"
        numbers.write_text("9\n3 3 3\n")
        code, out = run_cli(
            [
                "generate", "hardness",
                "--numbers", str(numbers), "--epsilon", epsilon,
                "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 3 and out == ""
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # checked before the directory is made

    def test_huge_sizes_exit_3(self, tmp_path, capsys):
        # sizes beyond a float's range were an OverflowError traceback
        x = 10**310
        numbers = tmp_path / "numbers.txt"
        numbers.write_text(f"{3 * x}\n{x} {x} {x}\n")
        code, out = run_cli(
            [
                "generate", "hardness",
                "--numbers", str(numbers), "--epsilon", "1.0",
                "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 3 and out == ""
        assert "sizes too large" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestBench:
    def test_rows_per_instance(self, instance_dir):
        code, out = run_cli(["bench", "--dir", str(instance_dir)])
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert lines[0] == "instance,outcome,branch,ms,read_ms,note,error"
        assert len(lines) == 3
        assert any("contains" in l for l in lines[1:])
        assert any("not_contained" in l for l in lines[1:])

    def test_budget_note_column(self, instance_dir):
        # a 10-vertex spider needs a vertex of degree 3: on a 16-cycle with
        # the chord 0-2 only 0 and 2 have it, and either leaves 1 no free
        # neighbour for its leg; the search takes 42 nodes to show this, so a
        # 10-node budget runs out before any DP trial
        write_graph(instance_dir / "c.graph", chorded_cycle())
        write_tree(instance_dir / "c.tree", spider(3, 3))
        code, out = run_cli(["bench", "--dir", str(instance_dir), "--budget-nodes", "10"])
        assert code == 0
        rows = {row["instance"]: row for row in csv.DictReader(io.StringIO(out))}
        assert rows["c"]["outcome"] == "not_found"
        assert rows["c"]["note"] == "BudgetExceeded"
        assert rows["a"]["note"] == "" and rows["a"]["outcome"] == "contains"

    def test_read_ms_column(self, instance_dir):
        code, out = run_cli(["bench", "--dir", str(instance_dir)])
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header.index("read_ms") == header.index("ms") + 1
        for row in csv.DictReader(io.StringIO(out)):
            assert float(row["read_ms"]) >= 0 and float(row["ms"]) >= 0

    def test_non_ascii_file_fills_error_column(self, instance_dir):
        (instance_dir / "c.graph").write_bytes(b"3 2\n0 1\n1 \xc3\xa92\n")
        write_tree(instance_dir / "c.tree", path_tree(2))
        code, out = run_cli(["bench", "--dir", str(instance_dir)])
        assert code == 0
        rows = {row["instance"]: row for row in csv.DictReader(io.StringIO(out))}
        assert rows["c"]["error"] == "line 3: non-ASCII byte 0xc3"
        assert rows["c"]["outcome"] == "" and rows["c"]["read_ms"] == ""
        assert rows["a"]["outcome"] == "contains" and rows["b"]["outcome"] == "not_contained"

    def test_unreadable_file_fills_error_column(self, instance_dir):
        # a directory named z.graph: one row's IsADirectoryError, not an
        # aborted run with exit 1
        (instance_dir / "z.graph").mkdir()
        write_tree(instance_dir / "z.tree", path_tree(2))
        code, out = run_cli(["bench", "--dir", str(instance_dir)])
        assert code == 0
        rows = {row["instance"]: row for row in csv.DictReader(io.StringIO(out))}
        assert "Is a directory" in rows["z"]["error"] and str(instance_dir / "z.graph") in rows["z"]["error"]
        assert rows["z"]["outcome"] == "" and rows["z"]["read_ms"] == ""
        assert rows["a"]["outcome"] == "contains" and rows["b"]["outcome"] == "not_contained"

    def test_empty_dir(self, tmp_path):
        code, out = run_cli(["bench", "--dir", str(tmp_path)])
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_bad_dir_is_a_file_error(self, tmp_path, capsys, kind):
        # not an empty CSV and exit 0, as a glob that finds nothing gave
        path = tmp_path / "d"
        if kind == "file":
            path.write_text("3 0\n", encoding="ascii")
        code, out = run_cli(["bench", "--dir", str(path)])
        assert code == 3 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and str(path) in err

    def test_seed_variable_is_ignored(self, instance_dir, monkeypatch):
        # bench draws no random numbers, so it never reads TREEFIT_SEED
        code, out = run_cli(["bench", "--dir", str(instance_dir)])
        monkeypatch.setenv("TREEFIT_SEED", "1.5")
        code_env, out_env = run_cli(["bench", "--dir", str(instance_dir)])
        assert code == code_env == 0

        def verdicts(text):
            return [(row["instance"], row["outcome"], row["branch"]) for row in csv.DictReader(io.StringIO(text))]

        assert verdicts(out_env) == verdicts(out) and len(verdicts(out)) == 2


class TestModuleEntry:
    """`python -m treefit` runs the CLI from a checkout with only `src` on
    PYTHONPATH, and exits with main()'s return code."""

    @staticmethod
    def run_module(args, cwd) -> subprocess.CompletedProcess:
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-m", "treefit", *args], cwd=cwd, env=env, capture_output=True, text=True
        )

    def test_help(self, tmp_path):
        proc = self.run_module(["--help"], tmp_path)
        assert proc.returncode == 0 and "solve" in proc.stdout

    def test_usage_error(self, tmp_path):
        proc = self.run_module(["solve", "--graph", "a.graph"], tmp_path)
        assert proc.returncode == 3 and "--tree" in proc.stderr

    def test_solve(self, instance_dir):
        proc = self.run_module(["solve", "--graph", "a.graph", "--tree", "a.tree"], instance_dir)
        assert proc.returncode == 0 and proc.stdout.startswith("CONTAINS")
