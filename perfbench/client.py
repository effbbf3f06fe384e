"""Closed-loop client: one caller, one thread, instances sent back to back.

``run.py`` starts this in a fresh process per run, so the peak memory it
reports belongs to one workload.  It loads the workload's files with
treefit's own readers several times (the timed set-up), then calls
``treefit.solve`` on every instance, pass after pass, until ``--seconds``
have passed and at least ``--min-passes`` passes are done, and writes every
verdict with its wall and calibrated time to ``result.json``.  Peak memory
is read after the first load and the first pass, so further loads and the
verdicts that later passes keep for the checks do not count.  With
``--trace 1`` it spends half the time on untraced passes, then installs the
tracer, loads the files once more and spends the other half on traced passes.

    python3 perfbench/client.py --dir WORKDIR --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

# timed loads of the workload's files: at least SETUPS, and more until they
# took SETUP_MIN_S in all, so that small workloads are not timed on one
# short burst; setup_s is their median
SETUPS = 3
SETUP_MIN_S = 2.0


class Calibration:
    """Tracks the machine's current speed with a fixed pure-Python loop.

    Shared hosts swing in throughput by well over a third within seconds.  A
    reference slice runs between timed calls (at most every ``INTERVAL_S``,
    and after any longer call); a call's calibrated time is its wall time
    times (the slice's nominal time over the median of the recent slices) to
    the power ``EXPONENT``, i.e. its wall time on a machine at nominal speed.

    The slice's time does not move in step with treefit's.  On a 2-vCPU
    shared host, the exponent that would have cancelled a swing in speed
    was 0.55 in one episode (over 5-second blocks the slice moved
    1.6-3.4 ms while a DP pass moved 91-159 ms), 0.74 in another (dense
    exact search on ``large``) and 1.1 in a third (DP on ``hub``);
    ``EXPONENT`` takes the middle one.
    """

    NOMINAL_S = 0.0015  # the slice's time at nominal speed; only sets the scale
    EXPONENT = 0.75
    ITERS = 10_000
    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.recent: list[float] = []
        self.last = 0.0
        self._table = {i: i * 7 % 101 for i in range(101)}
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self.last < self.INTERVAL_S:
            return
        table, acc, seen = self._table, 0, set()
        start = time.perf_counter()
        for i in range(self.ITERS):
            key = table[i % 101]
            if key not in seen:
                seen.add(key)
            acc += key * i
            seen = seen if len(seen) < 50 else set()
        self.last = time.perf_counter()
        self.recent = (self.recent + [self.last - start])[-5:]

    def scale(self) -> float:
        return (self.NOMINAL_S / sorted(self.recent)[len(self.recent) // 2]) ** self.EXPONENT

    def call(self, fn, *args):
        """(result, wall s, calibrated s) of fn(*args)."""
        self.tick()
        before = self.scale()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self.tick(force=wall > self.INTERVAL_S)
        return result, wall, wall * (before + self.scale()) / 2


def load(workdir: Path, manifest: dict, cal: Calibration):
    """Hosts, guests and the calibrated seconds the readers took."""
    # module attributes are looked up per call so installed spans see them
    from treefit import graph, trees

    hosts, guests, spent = {}, [], 0.0
    for key, name in manifest["hosts"].items():
        hosts[key], _, cal_s = cal.call(graph.read_graph, workdir / name)
        spent += cal_s
    for inst in manifest["instances"]:
        t, _, cal_s = cal.call(trees.read_tree, workdir / inst["guest"])
        guests.append(t)
        spent += cal_s
    return hosts, guests, spent


def _solve(g, t, config):
    from treefit import pipeline

    try:
        return pipeline.solve(g, t, config), None
    except Exception as exc:  # a crash is a wrong verdict, not the end of the run
        return None, f"{type(exc).__name__}: {exc}"


def solve_pass(manifest: dict, hosts, guests, cal: Calibration, tracer=None) -> list[list]:
    """[kind, branch, rounds, wall ms, certificate pairs or error text,
    calibrated ms] per instance."""
    from treefit import pipeline

    verdicts = []
    for inst, t in zip(manifest["instances"], guests):
        config = pipeline.SolveConfig(seed=inst["solver_seed"])
        if tracer is not None:
            tracer.instance = inst["name"]
        (out, payload), wall, cal_s = cal.call(_solve, hosts[inst["host"]], t, config)
        ms, cal_ms = wall * 1000, cal_s * 1000
        kind = type(out).__name__ if out is not None else "error"
        if kind == "Contains":
            verdicts.append([kind, out.branch, 0, ms, sorted(out.embedding.mapping.items()), cal_ms])
        else:
            verdicts.append([kind, "", getattr(out, "rounds", 0), ms, payload, cal_ms])
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--min-passes", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import treefit

    if not Path(treefit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"treefit imported from {treefit.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workdir = args.dir
    manifest = json.loads((workdir / "manifest.json").read_text())

    cal = Calibration()
    hosts, guests, spent = load(workdir, manifest, cal)
    setup_s = [spent]
    start = time.perf_counter()
    passes = [solve_pass(manifest, hosts, guests, cal)]
    first_pass_s = time.perf_counter() - start
    # one load and one pass; the set-ups and passes below would add only the
    # benchmark's own leftovers, more of them on a faster machine
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_s) < SETUPS or sum(setup_s) < SETUP_MIN_S:
        hosts = guests = None
        hosts, guests, spent = load(workdir, manifest, cal)
        setup_s.append(spent)

    budget = args.seconds / 2 if args.trace else args.seconds
    deadline = time.perf_counter() + budget - first_pass_s
    while len(passes) < args.min_passes or time.perf_counter() < deadline:
        passes.append(solve_pass(manifest, hosts, guests, cal))

    result = {"setup_s": setup_s, "passes": passes, "traced_passes": [], "peak_rss_mb": peak_rss_mb}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
        hosts = guests = None
        hosts, guests, _ = load(workdir, manifest, cal)
        deadline = time.perf_counter() + budget
        while not result["traced_passes"] or time.perf_counter() < deadline:
            tracer.phase = f"pass{len(result['traced_passes'])}"
            result["traced_passes"].append(solve_pass(manifest, hosts, guests, cal, tracer))
        host_bytes = sum((workdir / name).stat().st_size for name in manifest["hosts"].values())
        result["layers"] = tracer.layer_table(host_bytes)
        result["bindings"] = tracer.bindings
        result["missing"] = tracer.missing
        tracer.write_spans(workdir / "spans.jsonl")
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
