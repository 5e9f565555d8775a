"""Launch ``repro-cut serve`` with timing wrappers on each layer.

Run as ``PYTHONPATH=src python perfbench/traced_server.py [serve args]``.
It imports the program, replaces each function in ``LAYERS`` with a
timing wrapper under *every* name the program reaches it by (a
``from x import f`` copy in a caller's module is wrapped too), then
calls ``repro.cli.main(["serve", ...])``, so the server is built exactly
as ``repro-cut serve`` builds it.

Each wrapper counts calls and keeps inclusive and self time (inclusive
minus the time of wrapped calls nested inside it, per thread).  A line
``snap`` on stdin makes the launcher print ``SNAP {name: [calls,
self_s, inclusive_s]}`` on stdout; the benchmark takes one snapshot at
each end of its timed phase and reports the difference.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: metric name -> (module, attribute); ``Class.method`` patches the class
LAYERS = {
    "core.mincut.ampc_min_cut": ("repro.core.mincut", "ampc_min_cut"),
    "core.singleton.smallest_singleton_cut": (
        "repro.core.singleton", "smallest_singleton_cut"),
    "core.intervals.edge_intervals": ("repro.core.intervals", "edge_intervals"),
    "core.sweep.min_interval_overlap": (
        "repro.core.sweep", "min_interval_overlap"),
    "core.ldr.build_level_structure": (
        "repro.core.ldr", "build_level_structure"),
    "core.keys.draw_contraction_keys": (
        "repro.core.keys", "draw_contraction_keys"),
    "core.contraction.mst_of_keys": ("repro.core.contraction", "mst_of_keys"),
    "core.contraction.contract_to_size": (
        "repro.core.contraction", "contract_to_size"),
    "core.contraction.bag_at": ("repro.core.contraction", "bag_at"),
    "trees.rooted.root_tree": ("repro.trees.rooted", "root_tree"),
    "trees.low_depth.low_depth_decomposition": (
        "repro.trees.low_depth", "low_depth_decomposition"),
    "baselines.stoer_wagner.stoer_wagner_min_cut": (
        "repro.baselines.stoer_wagner", "stoer_wagner_min_cut"),
    "service.executor.run_mincut": (
        "repro.service.executor", "TrialExecutor.run_mincut"),
    "flow.dinic.max_flow": ("repro.flow.dinic", "DinicSolver.max_flow"),
    "flow.gomory_hu.gomory_hu_tree": ("repro.flow.gomory_hu", "gomory_hu_tree"),
    "flow.gomory_hu.repair_gomory_hu": (
        "repro.flow.gomory_hu", "repair_gomory_hu"),
    "service.oracle.st_min_cut": ("repro.service.oracle", "CutOracle.st_min_cut"),
    "service.oracle.all_pairs": ("repro.service.oracle", "CutOracle.all_pairs"),
    "service.store.apply_delta": ("repro.service.store", "GraphStore.apply_delta"),
    "service.store.register": ("repro.service.store", "GraphStore.register"),
    "service.service.register": ("repro.service.service", "CutService.register"),
    "service.service.mincut": ("repro.service.service", "CutService.mincut"),
    "service.service.stcut": ("repro.service.service", "CutService.stcut"),
    "service.service.gomoryhu": ("repro.service.service", "CutService.gomoryhu"),
    "service.service.mutate": ("repro.service.service", "CutService.mutate"),
    "service.frontend.handle": ("repro.service.frontend", "Frontend.handle"),
}

_STATS: dict[str, list] = {}
_local = threading.local()


def _timed(name: str, fn):
    record = _STATS.setdefault(name, [0, 0.0, 0.0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            nested = stack.pop()
            record[0] += 1
            record[1] += elapsed - nested
            record[2] += elapsed
            if stack:
                stack[-1] += elapsed

    return wrapper


def install() -> None:
    """Wrap every target under every module-level name bound to it."""
    importlib.import_module("repro.cli")
    for module, _ in LAYERS.values():
        importlib.import_module(module)
    for name, (module, attr) in LAYERS.items():
        owner = sys.modules[module]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, method, _timed(name, cls.__dict__[method]))
            continue
        original = getattr(owner, attr)
        wrapped = _timed(name, original)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{name}: no binding of {module}.{attr}")


def _control() -> None:
    for line in sys.stdin:
        if line.strip() == "snap":
            snapshot = {name: list(rec) for name, rec in _STATS.items()}
            print("SNAP " + json.dumps(snapshot), flush=True)


def main(argv: list[str]) -> int:
    install()
    threading.Thread(target=_control, daemon=True).start()
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
