"""Verdict benchmark for treefit: correct, decisive answers, and how fast.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1

One run generates the workload from ``--seed`` (families.py), labels every
instance without calling ``solve``, writes the instance files under
``.perfbench_work/`` in the checkout, and starts ``client.py`` in a fresh
process: a closed loop with one caller on one thread that reads the files
with treefit's own readers and then solves every instance, pass after pass,
for ``--seconds``.  Every verdict is then checked against the labels and an
independent certificate check.  The run prints a table and, as its last
line, one JSON object: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.

A verdict is *decided* when it is a CONTAINS whose certificate passes the
check, or a NOT_CONTAINED on an instance labelled NO, and it arrived within
the workload's ``limit_ms`` (pins.json).  NOT_FOUND, a NOT_CONTAINED on an
unlabelled instance, and a late verdict are *undecided*.  An invalid
certificate, a NOT_CONTAINED on a YES instance or an exception is *wrong*:
it is a failed operation and fails the run, as does a verdict (outcome,
branch, rounds) that differs between two passes, or an instance set whose
digest for the default seed differs from the one pinned in pins.json.

Times are calibrated (``cal_ms``, see ``client.Calibration``): wall time
scaled to a machine running at nominal speed, because shared hosts drift in
speed by more than the bounds.  The verdict-time percentiles charge an
undecided instance ``limit_ms`` plus its own time, so deciding more
instances can never read as a slowdown; where more than half (sweep, large)
or a tenth of the instances are undecided, they sit at ``limit_ms``.
``decided_ms_p50`` is the median over decided verdicts alone, so it follows
solve time on every workload: exact search on sweep and tight, the
colorful DP on hub, the component split and dense exact search on large.
The sweep's own DP time cannot be bounded: two dozen DP instances of
10 ms to 3 s carry a pass, so its total moved by 0.12-0.24 of the median
between seeds; hub measures the DP over hundreds of like instances instead.
``decided_per_s`` (decided verdicts per second of solve time, median over
passes) is printed and kept as the per-layer figure
``pipeline.decided_per_s``, not bounded, for the same reason.

``--trace 1`` runs untraced passes, then wraps treefit's entry points
(tracing.py) and runs traced ones.  It writes the spans to
``.perfbench_work/spans-<workload>-s<seed>.jsonl`` and the whole layer table
to ``layers-<workload>-s<seed>.json`` there; baseline.json holds that table
for the commit the benchmark was written against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from families import FAMILIES, ORACLE_NODE_CAP, certificate_ok  # noqa: E402

WORK = ROOT / ".perfbench_work"
# the client's limit: both halves of a traced run, plus the set-ups and a margin
CLIENT_MARGIN_S = 100
MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90


def layer_unit(name: str) -> str:
    """Unit of a layer figure that BENCHMARK.json does not list."""
    if name.endswith("_ms"):
        return "ms"
    return "share" if name.endswith(("_frac", "_ratio")) else "count"


def solver_seed(seed: int, name: str) -> int:
    """Each instance gets its own solver seed, so colorings are independent
    across instances and one unlucky stream cannot shift a whole pass."""
    return random.Random(f"solve/{seed}/{name}").getrandbits(63)


def prepare(workload: str, seed: int, workdir: Path):
    wl = FAMILIES[workload](seed)
    (workdir / "hosts").mkdir(parents=True)
    (workdir / "guests").mkdir()
    digest = hashlib.sha256()
    manifest = {"hosts": {}, "instances": []}
    for key, host in wl.hosts.items():
        text = host.text()
        name = f"hosts/{key}.graph"
        (workdir / name).write_text(text, encoding="ascii")
        manifest["hosts"][key] = name
        digest.update(f"host {key}\n{text}".encode())
    for inst in wl.instances:
        text = inst.guest.text()
        name = f"guests/{inst.name}.tree"
        (workdir / name).write_text(text, encoding="ascii")
        entry = {"name": inst.name, "host": inst.host, "guest": name,
                 "solver_seed": solver_seed(seed, inst.name)}
        manifest["instances"].append(entry)
        digest.update(f"guest {inst.name} {inst.host} {inst.label} {entry['solver_seed']}\n{text}".encode())
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    return wl, digest.hexdigest()


def classify(verdict: list, inst, host, edges: set, limit_ms: float) -> str:
    kind, _branch, _rounds, _wall_ms, payload, ms = verdict
    if kind == "Contains":
        if not certificate_ok(edges, host.n, inst.guest, dict(payload)) or inst.label == "no":
            return "wrong"
        return "decided" if ms <= limit_ms else "undecided"
    if kind == "NotContained":
        if inst.label == "yes":
            return "wrong"
        return "decided" if inst.label == "no" and ms <= limit_ms else "undecided"
    if kind == "NotFound":
        return "undecided"
    return "wrong"  # an exception or an unknown outcome


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict, pins: dict) -> dict:
    pin = pins["workloads"][workload]
    limit_ms = pin["limit_ms"]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl, digest = prepare(workload, seed, workdir)
        n = len(wl.instances)
        cmd = [sys.executable, str(HERE / "client.py"), "--dir", str(workdir),
               "--seconds", str(seconds),
               "--min-passes", str(1 if trace else max(2, -(-MIN_SAMPLES // n))), "--trace", str(trace)]
        proc = subprocess.Popen(cmd, cwd=ROOT)
        try:
            proc.wait(timeout=2 * seconds + CLIENT_MARGIN_S)
        except BaseException:  # a timeout or an interrupt must not leave the client running
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"client exited with code {proc.returncode}")
        result = json.loads((workdir / "result.json").read_text())
        if trace:
            shutil.copyfile(workdir / "spans.jsonl", WORK / f"spans-{workload}-s{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    if seed == pins["default_seed"] and digest != pin["digest"]:
        problems.append(f"instance digest {digest} differs from the pinned {pin['digest']}")
    edges = {key: set(h.edges) for key, h in wl.hosts.items()}
    all_passes = result["passes"] + result["traced_passes"]
    classes = [[classify(v, inst, wl.hosts[inst.host], edges[inst.host], limit_ms)
                for v, inst in zip(p, wl.instances)] for p in all_passes]
    wrong = sum(c.count("wrong") for c in classes)
    for p, c in zip(all_passes, classes):
        for v, inst, cls in zip(p, wl.instances, c):
            if cls == "wrong" and len(problems) < 20:
                problems.append(f"wrong verdict on {inst.name} (label {inst.label}): {v[0]} {v[4] if v[0] == 'error' else ''}")
    first = [v[:3] for v in all_passes[0]]
    if any([v[:3] for v in p] != first for p in all_passes[1:]):
        problems.append("verdicts differ between passes of one seed")

    untraced = classes[: len(result["passes"])]
    decided = [c.count("decided") for c in untraced]
    pass_s = [sum(v[5] for v in p) / 1000 for p in result["passes"]]
    samples = [v[5] if cls == "decided" else limit_ms + v[5]
               for p, c in zip(result["passes"], untraced) for v, cls in zip(p, c)]
    deciles = statistics.quantiles(samples, n=10)
    decided_ms = [v[5] for p, c in zip(result["passes"], untraced) for v, cls in zip(p, c) if cls == "decided"]
    raw = sorted(v[3] for p in result["passes"] for v in p)
    raw_pass_s = [sum(v[3] for v in p) / 1000 for p in result["passes"]]
    slowest = max((v[5] for p, c in zip(result["passes"], untraced)
                   for v, cls in zip(p, c) if cls == "decided"), default=0.0)
    labels = [inst.label for inst in wl.instances]
    sources = Counter(inst.source for inst in wl.instances if inst.label is not None)
    e2e = {
        "decided_frac": (statistics.median(d / n for d in decided),
                         f"{statistics.median(decided):g} of {n} instances per pass"),
        "decided_per_s": (statistics.median(d / s for d, s in zip(decided, pass_s)),
                          f"median of {len(decided)} passes"),
        "verdict_ms_p50": (deciles[4], f"n={len(samples)}; undecided charged limit_ms + own time"),
        "verdict_ms_p90": (deciles[8], f"n={len(samples)}, {sum(x > deciles[8] for x in samples)} beyond"),
        "decided_ms_p50": (statistics.median(decided_ms) if decided_ms else limit_ms,
                           f"n={len(decided_ms)} decided verdicts"),
        "setup_s": (statistics.median(result["setup_s"]), f"median of {len(result['setup_s'])} set-ups"),
        "peak_rss_mb": (result["peak_rss_mb"], "fresh client process"),
    }
    lines = [
        f"== {workload}  seed {seed}  {n} instances: {labels.count('yes')} yes, {labels.count('no')} no, "
        f"{labels.count(None)} unlabelled (oracle node cap {ORACLE_NODE_CAP}); labels from "
        + ", ".join(f"{k} {v}" for k, v in sorted(sources.items())) + f"; digest {digest[:16]}",
        f"   closed loop, 1 caller; {len(result['passes'])} untraced passes; limit_ms {limit_ms} cal_ms; "
        f"slowest decided {slowest:.1f} cal_ms",
    ]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["decided_per_s"] = units["pipeline.decided_per_s"]
    for name, (value, note) in e2e.items():
        lines.append(f"   {name:16s} {value:12.4f} {units[name]:7s} ({note})")
    lines += [
        f"   {'wrong_verdicts':16s} {wrong:12d} {'count':7s} (of {sum(len(p) for p in all_passes)} verdicts)",
        f"   raw wall clock: decided_per_s {statistics.median(d / s for d, s in zip(decided, raw_pass_s)):.3f} 1/s, "
        f"solve p50 {raw[len(raw) // 2]:.3f} ms, p90 {raw[len(raw) * 9 // 10]:.3f} ms",
    ]
    metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    if trace:
        traced = result["traced_passes"]
        layers = dict(result["layers"])
        not_found = [[(v, inst) for v, inst in zip(p, wl.instances) if v[0] == "NotFound"] for p in traced]
        layers["pipeline.not_found"] = statistics.median(len(x) for x in not_found)
        layers["pipeline.not_found_on_yes"] = statistics.median(
            sum(inst.label == "yes" for _, inst in x) for x in not_found)
        layers["pipeline.decided_per_s"] = e2e["decided_per_s"][0]
        layers["pipeline.not_found_rounds"] = statistics.median(sum(v[2] for v, _ in x) for x in not_found)
        traced_s = statistics.median(sum(v[5] for v in p) / 1000 for p in traced)
        layers["trace.overhead_frac"] = traced_s / statistics.median(pass_s) - 1
        (WORK / f"layers-{workload}-s{seed}.json").write_text(json.dumps(layers, indent=1))
        lines.append(f"   traced: {len(traced)} passes; bindings replaced per layer: "
                     + ", ".join(f"{k}={v}" for k, v in result["bindings"].items()))
        if result["missing"]:
            lines.append("   not found, so not traced: " + ", ".join(result["missing"]))
        lines += [f"   {k:36s} {v:12.4f} {units.get(k) or layer_unit(k)}" for k, v in layers.items()]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    return {"lines": lines + [f"   PROBLEM: {p}" for p in problems], "ok": not problems,
            "attempted": sum(len(p) for p in all_passes), "failed": wrong, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treefit" / "__init__.py").is_file():
        print(f"no treefit sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    seed = pins["default_seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"unknown workload {args.workload!r}; choose from {names + ['all']}", file=sys.stderr)
        return 2

    outcomes = {}
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            outcomes[workload] = run_workload(workload, seed, seconds, args.trace, spec, pins)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        print("\n".join(outcomes[workload]["lines"]), flush=True)
    if len(outcomes) == 1:
        metrics = outcomes[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, o in outcomes.items() for k, v in o["metrics"].items()}
    ok = all(o["ok"] for o in outcomes.values())
    print(json.dumps({"correct": ok, "attempted": sum(o["attempted"] for o in outcomes.values()),
                      "failed": sum(o["failed"] for o in outcomes.values()), "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
