"""Served-path benchmark of ``repro-cut serve``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --report RUNS [--seconds S]

The first form makes one run and prints, last, one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Lines before it, starting with ``#``, give the same
figures under their workload-specific names, and ``wire.healthz_s``.
The second form runs one workload RUNS times on seeds 1..RUNS and
prints each end-to-end metric's median and quartiles beside its bound.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from server import Server  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

#: set-ups per untraced run; setup_s is their median
SETUPS = 3
#: fewest headline samples a run ends with, so a tail exists
MIN_SAMPLES = 40
#: no new round starts this long after the run began
WALL_CAP_S = 130.0
#: wire op -> the CutService methods its requests run (a workload
#: never mixes /batch with single requests of the same op)
WIRE_SERVICE = {
    "graphs": ("register",),
    "mincut": ("mincut",),
    "stcut": ("stcut",),
    "gomoryhu": ("gomoryhu",),
    "mutate": ("mutate",),
    "batch": ("mincut", "stcut", "gomoryhu"),
}
#: /stats counters reported per operation, by metric name
STATS_COUNTERS = {
    "executor.trials_run": ("executor", "trials_run"),
    "results.hits": ("results", "hits"),
    "results.misses": ("results", "misses"),
}
ORACLE_COUNTERS = ("builds", "repairs", "repaired_edges", "repair_fallbacks",
                   "mask_hits", "pair_hits")


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < MIN_SAMPLES:
        raise RuntimeError(f"{len(samples)} samples: too few for a tail")
    return sorted(samples)[len(samples) - 11]


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def counters(stats: dict) -> dict:
    out = {name: stats[section][key]
           for name, (section, key) in STATS_COUNTERS.items()}
    for key in ORACLE_COUNTERS:
        out[f"oracle.{key}"] = sum(o[key] for o in stats["oracles"].values())
    return out


def timed_phase(wl, server, seconds: float, started: float, *, traced: bool):
    """Whole rounds until ``seconds`` of counted request time (and at
    least MIN_SAMPLES headline samples) are in."""
    rec = Recorder()
    if traced:
        layers0, counts0 = server.layer_snapshot(), counters(server.stats())
    r = 0
    while rec.busy_s < seconds or len(rec.headline) < MIN_SAMPLES:
        if time.monotonic() - started > WALL_CAP_S:
            break
        if r % wl.PROBE_EVERY == 0:
            rec.probe(server)
        wl.round(server, rec, r)
        r += 1
    rec.rounds = r
    if traced:
        layers1, counts1 = server.layer_snapshot(), counters(server.stats())
        rec.layers = {name: [a - b for a, b in zip(now, layers0[name])]
                      for name, now in layers1.items()}
        rec.counters = {k: counts1[k] - counts0[k] for k in counts1}
    return rec


def set_up(wl, *, traced: bool):
    """Start a server and run the workload's set-up; the time runs from
    process start to the last warm-up reply."""
    t0 = time.perf_counter()
    server = Server(ROOT, traced=traced)
    try:
        replies = wl.setup(server)
        setup_s = time.perf_counter() - t0
        problems = wl.check_setup(replies)
    except BaseException:
        server.close()
        raise
    return server, setup_s, problems


def end_to_end(wl, seconds: float, started: float) -> tuple:
    setups, problems = [], []
    for i in range(SETUPS):
        server, setup_s, bad = set_up(wl, traced=False)
        setups.append(setup_s)
        problems += bad
        if i < SETUPS - 1:
            server.close()
    try:
        rec = timed_phase(wl, server, seconds, started, traced=False)
    finally:
        server.close()
    # the largest VmHWM among the exited servers (KiB on Linux): the
    # one that served the timed phase after the same set-up as the rest
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    headline = rec.headline
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "ops_per_s": rec.ops / rec.busy_s,
        "latency_p50_s": statistics.median(headline),
        "latency_tail_s": tail(headline),
        "cut_ratio_max": rec.ratio_max,
    }
    notes = {
        f"{wl.headline_name}_p50_s": (values["latency_p50_s"], "s"),
        f"{wl.headline_name}_tail_s": (values["latency_tail_s"], "s"),
        "samples": (len(headline), "count"),
        "wire.healthz_s": (statistics.median(rec.healthz), "s"),
        "busy_s": (rec.busy_s, "s"),
    }
    if rec.gomoryhu:
        notes["gomoryhu_p50_s"] = (statistics.median(rec.gomoryhu), "s")
    return rec, problems, values, notes


def exact_reference_s(wl, rounds: int) -> float:
    """Median time of the program's exact Stoer-Wagner on the graphs a
    run of ``rounds`` rounds served, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.baselines.stoer_wagner import stoer_wagner_min_cut
    from repro.graph import Graph

    times = []
    for edges in wl.reference_graphs(rounds):
        graph = Graph(edges=[(u, v, float(w)) for (u, v), w in edges.items()])
        t0 = time.perf_counter()
        stoer_wagner_min_cut(graph)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(wl, seconds: float, started: float) -> tuple:
    """An untraced leg of half the length (for the overhead), then the
    traced run whose layer timings are reported."""
    server, _, problems = set_up(wl, traced=False)
    try:
        plain = timed_phase(wl, server, seconds / 2, started, traced=False)
    finally:
        server.close()
    server, _, bad = set_up(wl, traced=True)
    problems += bad
    try:
        rec = timed_phase(wl, server, seconds, started, traced=True)
    finally:
        server.close()
    ops = max(rec.ops, 1)
    values = {}
    for name, (calls, self_s, _) in rec.layers.items():
        values[f"{name}.time_s"] = self_s / ops
        values[f"{name}.calls"] = calls / ops
    for name, count in rec.counters.items():
        values[name] = count / ops
    for op, methods in WIRE_SERVICE.items():
        requests, client_s, nbytes = rec.wire.get(op, (0, 0.0, 0))
        inside = sum(rec.layers[f"service.service.{m}"][2] for m in methods)
        values[f"wire.{op}.time_s"] = (client_s - inside) / requests if requests else 0.0
        values[f"wire.{op}.response_bytes"] = nbytes / requests if requests else 0.0
    values["wire.healthz_s"] = statistics.median(rec.healthz)
    values["baselines.exact_reference_s"] = exact_reference_s(wl, rec.rounds)
    untraced = statistics.median(plain.headline)
    values["trace.overhead_s"] = statistics.median(rec.headline) - untraced
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.unexpected += plain.unexpected
    return rec, problems, values, {}


def one_run(args) -> int:
    spec = declared()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    wl = WORKLOADS[args.workload](args.seed)
    measure = per_layer if args.trace else end_to_end
    rec, problems, values, notes = measure(wl, args.seconds, started)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, (value, unit) in notes.items():
        print(f"# {name} {value!r} {unit}")
    for problem in problems + rec.unexpected:
        print(f"# FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and not rec.unexpected,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


def report(args) -> int:
    """Run one workload on seeds 1..N and print each metric's spread."""
    spec = declared()
    runs = []
    for seed in range(1, args.report + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        result = json.loads(out[-1])
        healthz = next(float(line.split()[2]) for line in out
                       if line.startswith("# wire.healthz_s "))
        runs.append((result, healthz))
        figures = " ".join(f"{k}={v['value']:.4g}"
                           for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {figures} "
              f"wire.healthz_s={healthz:.4g}", flush=True)
    rows = [(m["name"], m["unit"], m["bound"],
             [r["metrics"][m["name"]]["value"] for r, _ in runs])
            for m in spec["end_to_end"]]
    rows.append(("wire.healthz_s", "s", None, [h for _, h in runs]))
    print(f"{'metric':<16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for name, unit, bound, values in rows:
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<16} {med:>11.6g} {q1:>11.6g} {q3:>11.6g} "
              f"{spread:>7.3f} {'' if bound is None else bound:>6} {unit}")
    shares = {r["failed"] / r["attempted"] for r, _ in runs}
    print(f"failed share per run: {sorted(shares)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed request seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", type=int, metavar="RUNS", default=0,
                   help="run RUNS seeds and print each metric's spread")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = declared()["run_seconds"]
    return report(args) if args.report else one_run(args)


if __name__ == "__main__":
    sys.exit(main())
