"""The three workloads: inputs, one round of requests, and the checks.

Each workload is a class with

* ``__init__(seed)``: makes the inputs and every expected answer that
  does not depend on the run (outside all timing);
* ``setup(server)``: uploads and warm-up requests; returns the replies
  to check once the set-up clock has stopped;
* ``round(server, rec, r)``: one round of requests.  Every round sends
  the same operations, so the share of failed operations is the same
  in every run, whatever the seed or the run length.

Checks run after each reply, outside every timed span: a request's
time ends with the last byte of its reply.  Expected values come from
networkx (not program code) or from properties every answer must have.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict

import networkx as nx

import gen

EPS = 0.5  # the server's default /mincut eps: answers lie in [λ, (2+ε)λ]
SCALE = 2.0 ** -48
GOMORYHU_SAMPLES = 32


def nx_graph(edges: dict) -> nx.Graph:
    g = nx.Graph()
    g.add_weighted_edges_from((u, v, w) for (u, v), w in edges.items())
    return g


def wire_edges(edges: dict, scale: float = 1.0) -> list:
    return [[u, v, w * scale] for (u, v), w in edges.items()]


def cut_weight(edges: dict, side: set) -> float:
    return sum(w for (u, v), w in edges.items() if (u in side) != (v in side))


class TreeCuts:
    """Exact min cuts of every pair from networkx's Gomory-Hu tree of a
    graph: a pair's value is the lightest edge on its tree path, and λ
    the lightest tree edge."""

    def __init__(self, graph: nx.Graph):
        tree = nx.gomory_hu_tree(graph, capacity="weight")
        self.n = tree.number_of_nodes()
        self.lam = min(w for _, _, w in tree.edges(data="weight"))
        self.pairs = {}
        for s in tree:
            best = {s: math.inf}
            stack = [s]
            while stack:
                v = stack.pop()
                for u, data in tree[v].items():
                    if u not in best:
                        best[u] = min(best[v], data["weight"])
                        stack.append(u)
            self.pairs[s] = best

    def value(self, s, t) -> float:
        return self.pairs[s][t]


class Recorder:
    """What one timed phase measured."""

    def __init__(self) -> None:
        self.headline: list[float] = []
        self.gomoryhu: list[float] = []
        self.healthz: list[float] = []
        #: seconds spent in requests that count toward the rate
        self.busy_s = 0.0
        #: completed operations that count toward the rate
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.ratio_max = 0.0
        #: op -> [requests, seconds, response bytes], every request
        self.wire = defaultdict(lambda: [0, 0.0, 0])

    def send(self, server, op: str, payload: dict, *, counted: bool = True):
        """POST ``/op``; returns ``(seconds, decoded reply)``; a non-200
        reply comes back as ``None``."""
        elapsed, status, raw = server.post("/" + op, payload)
        stats = self.wire[op]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += len(raw)
        if counted:
            self.busy_s += elapsed
        return elapsed, (json.loads(raw) if status == 200 else None)

    def probe(self, server) -> None:
        """One GET /healthz: the host's trivial round trip, not an op."""
        self.healthz.append(server.get("/healthz")[0])

    def settle(self, problem: str | None, *, counted: bool = True,
               known_fault: bool = False) -> None:
        """Count one attempted operation: completed when its check found
        no ``problem``, else failed."""
        self.attempted += 1
        if problem is None:
            self.ops += counted
            return
        self.failed += 1
        if not known_fault:
            self.unexpected.append(problem)

    def ratio(self, served: float, exact: float) -> None:
        self.ratio_max = max(self.ratio_max, served / exact)


def check_mincut(reply, edges: dict, lam: float, rec: Recorder | None) -> str | None:
    """None when the /mincut reply is right, else what is wrong."""
    if reply is None or "weight" not in reply:
        return f"/mincut error reply {reply!r}"
    w = reply["weight"]
    side = set(reply["side"])
    vertices = {u for edge in edges for u in edge}
    if not (lam <= w <= (2 + EPS) * lam):
        return f"/mincut weight {w} outside [{lam}, {(2 + EPS) * lam}]"
    if not side or not side < vertices:
        return f"/mincut side of {len(side)} is not a proper non-empty subset"
    if cut_weight(edges, side) != w:
        return f"/mincut side weighs {cut_weight(edges, side)}, reply says {w}"
    if rec is not None:
        rec.ratio(w, lam)
    return None


def check_gomoryhu(reply, cuts: TreeCuts, rng: random.Random,
                   rec: Recorder | None) -> str | None:
    """Symmetric matrix with a null diagonal, minimum entry λ, sampled
    entries equal to the path minima of networkx's Gomory-Hu tree."""
    if reply is None or "matrix" not in reply:
        return f"/gomoryhu error reply {reply!r}"
    vertices, matrix = reply["vertices"], reply["matrix"]
    n = len(vertices)
    if n != cuts.n:
        return f"/gomoryhu has {n} vertices, graph has {cuts.n}"
    low = math.inf
    for i in range(n):
        row = matrix[i]
        if row[i] is not None:
            return "/gomoryhu diagonal entry is not null"
        for j in range(i + 1, n):
            if row[j] is None or row[j] != matrix[j][i]:
                return f"/gomoryhu matrix not symmetric at ({i}, {j})"
            low = min(low, row[j])
    if low != cuts.lam:
        return f"/gomoryhu minimum entry {low} != min cut {cuts.lam}"
    for _ in range(GOMORYHU_SAMPLES):
        i, j = rng.sample(range(n), 2)
        expect = cuts.value(vertices[i], vertices[j])
        if matrix[i][j] != expect:
            return f"/gomoryhu entry ({i}, {j}) = {matrix[i][j]} != {expect}"
    if rec is not None:
        rec.ratio(low, cuts.lam)
    return None


# ----------------------------------------------------------------------
class ColdMincut:
    """Upload a fresh graph, ask /mincut once with server defaults."""

    name = "cold-mincut"
    headline_name = "mincut"
    PROBE_EVERY = 1  # rounds between /healthz probes
    N = 48

    def __init__(self, seed: int):
        self.seed = seed

    def graphs(self, r: int):
        """The round's graphs: one of each family, never seen before."""
        for i, family in enumerate(gen.FAMILIES):
            gseed = (self.seed * 1_000_003 + r * 101 + i) & 0xFFFFFFFF
            yield f"c{r}.{i}", gen.make(family, self.N, gseed)

    def reference_graphs(self, rounds: int):
        return [edges for r in range(rounds) for _, edges in self.graphs(r)]

    def setup(self, server) -> list:
        return []

    def check_setup(self, replies) -> list[str]:
        return []

    def round(self, server, rec: Recorder, r: int) -> None:
        for name, edges in self.graphs(r):
            _, up = rec.send(server, "graphs",
                             {"name": name, "edges": wire_edges(edges)})
            if up is None:
                rec.settle(f"upload of {name} refused")
                continue
            elapsed, reply = rec.send(server, "mincut", {"graph": name})
            rec.headline.append(elapsed)
            lam, _ = nx.stoer_wagner(nx_graph(edges))
            rec.settle(check_mincut(reply, edges, lam, rec))


# ----------------------------------------------------------------------
class _Resident:
    def __init__(self, name: str, edges: dict):
        self.name = name
        self.edges = edges
        self.nx = nx_graph(edges)
        self.n = self.nx.number_of_nodes()


class MutateStcut:
    """Mixed-sign /mutate, then /stcut reads that settle and query the
    repaired Gomory-Hu oracle; one /gomoryhu per round."""

    name = "mutate-stcut"
    headline_name = "write_read"
    PROBE_EVERY = 1
    #: twelve graphs, families in turn; a round mutates the next six
    #: (two per family), so a run averages over many graph instances
    RESIDENT = tuple((family, 112) for family in gen.FAMILIES) * 4
    PER_ROUND = 2 * len(gen.FAMILIES)
    READS = 3  # /stcut reads after the one that settles the oracle

    def __init__(self, seed: int):
        self.seed = seed
        self.base = [
            (f"m{i}", gen.make(family, n, seed * 31 + i))
            for i, (family, n) in enumerate(self.RESIDENT)
        ]
        # the 2^-48 copy and its reads do not depend on the seed: they
        # fail on every run, and in the same share of the operations
        self.scaled_edges = gen.make("planted", 32, 0)
        self.scaled_nx = nx_graph(self.scaled_edges)

    def reference_graphs(self, rounds: int):
        return [edges for _, edges in self.base]

    def setup(self, server) -> list:
        # fresh copies: each set-up starts from the unmutated graphs
        self.graphs = [_Resident(name, dict(edges)) for name, edges in self.base]
        self.rng = random.Random(self.seed)
        self.check_rng = random.Random(~self.seed)
        self.scaled_rng = random.Random(0)
        self.fingerprint = {}
        replies = []
        for g in self.graphs:
            if server.post("/graphs", {"name": g.name,
                                       "edges": wire_edges(g.edges)})[1] != 200:
                raise RuntimeError(f"upload of {g.name} refused")
        # the 2^-48 copy is uploaded but never warmed
        if server.post("/graphs", {"name": "scaled", "edges": wire_edges(
                self.scaled_edges, SCALE)})[1] != 200:
            raise RuntimeError("upload of the scaled copy refused")
        for g in self.graphs:
            _, status, raw = server.post(
                "/stcut", {"graph": g.name, "s": 0, "t": g.n - 1})
            replies.append((g, 0, g.n - 1, json.loads(raw) if status == 200 else None))
        return replies

    def check_setup(self, replies) -> list[str]:
        return [p for p in (self._check_stcut(g, s, t, reply, None)
                            for g, s, t, reply in replies) if p]

    def _check_stcut(self, g: _Resident, s, t, reply, rec) -> str | None:
        if reply is None or "weight" not in reply:
            return f"/stcut error reply {reply!r}"
        expect = nx.minimum_cut_value(g.nx, s, t, capacity="weight")
        if reply["weight"] != expect:
            return f"/stcut {g.name} ({s}, {t}) = {reply['weight']} != {expect}"
        if rec is not None:
            rec.ratio(reply["weight"], expect)
        return None

    def _delta(self, g: _Resident) -> list:
        """Two decreases and two increases on four distinct edges."""
        keys = list(g.edges)
        heavy = [k for k in keys if g.edges[k] >= 2]
        down = self.rng.sample(heavy, 2)
        up = []
        while len(up) < 2:
            k = keys[self.rng.randrange(len(keys))]
            if k not in down and k not in up:
                up.append(k)
        changes = [(k, self.rng.randint(1, g.edges[k] - 1)) for k in down]
        changes += [(k, g.edges[k] + self.rng.randint(1, 2)) for k in up]
        return changes

    def round(self, server, rec: Recorder, r: int) -> None:
        first = r * self.PER_ROUND
        for j in range(self.PER_ROUND):
            g = self.graphs[(first + j) % len(self.graphs)]
            changes = self._delta(g)
            t_write, reply = rec.send(server, "mutate", {
                "graph": g.name,
                "reweights": [[u, v, w] for (u, v), w in changes],
            })
            for (u, v), w in changes:
                g.edges[(u, v)] = w
                g.nx[u][v]["weight"] = w
            problem = None
            if reply is None or reply.get("num_edges") != len(g.edges):
                problem = f"/mutate reply {reply!r}"
            elif reply["fingerprint"] == self.fingerprint.get(g.name):
                problem = "/mutate left the fingerprint unchanged"
            else:
                self.fingerprint[g.name] = reply["fingerprint"]
            rec.settle(problem)
            for k in range(1 + self.READS):
                s, t = self.rng.sample(range(g.n), 2)
                elapsed, reply = rec.send(server, "stcut",
                                          {"graph": g.name, "s": s, "t": t})
                if k == 0:
                    rec.headline.append(t_write + elapsed)
                rec.settle(self._check_stcut(g, s, t, reply, rec))
        # one of the graphs just repaired, each family in turn
        g = self.graphs[(first + r % self.PER_ROUND) % len(self.graphs)]
        elapsed, reply = rec.send(server, "gomoryhu", {"graph": g.name})
        rec.gomoryhu.append(elapsed)
        rec.settle(check_gomoryhu(reply, TreeCuts(g.nx), self.check_rng, rec))
        self._scaled_read(server, rec)

    def _scaled_read(self, server, rec: Recorder) -> None:
        """The flow-tolerance fault: every weight scaled by 2^-48 (exact
        in floating point), so the answer must be 2^-48 times the
        unscaled value.  Kept out of every latency and rate metric."""
        s, t = self.scaled_rng.sample(range(self.scaled_nx.number_of_nodes()), 2)
        _, reply = rec.send(server, "stcut", {"graph": "scaled", "s": s, "t": t},
                            counted=False)
        expect = SCALE * nx.minimum_cut_value(self.scaled_nx, s, t,
                                              capacity="weight")
        served = None if reply is None else reply.get("weight")
        problem = None
        if served != expect:
            problem = f"/stcut on the 2^-48 copy: {served} != {expect}"
        rec.settle(problem, counted=False, known_fault=True)


# ----------------------------------------------------------------------
class WarmBatch:
    """/batch of read items on warmed graphs: every item is a cache,
    tree or memo hit."""

    name = "warm-batch"
    headline_name = "batch"
    PROBE_EVERY = 16
    RESIDENT = (("planted", 128), ("expander", 64))
    ITEMS = 2048  # items per batch: 1536 /stcut, 511 /mincut, 1 /gomoryhu

    def __init__(self, seed: int):
        self.seed = seed
        self.graphs = {}
        for i, (family, n) in enumerate(self.RESIDENT):
            g = _Resident(f"w{i}", gen.make(family, n, seed * 31 + i))
            g.lam, _ = nx.stoer_wagner(g.nx)
            g.cuts = TreeCuts(g.nx)
            self.graphs[g.name] = g
        #: (graph, op) -> (reply, served, exact) of a verified cached
        #: answer; an identical later reply is verified by comparison
        self.verified: dict = {}

    def reference_graphs(self, rounds: int):
        return [g.edges for g in self.graphs.values()]

    def setup(self, server) -> list:
        self.rng = random.Random(self.seed)
        self.check_rng = random.Random(~self.seed)
        replies = []
        for g in self.graphs.values():
            if server.post("/graphs", {"name": g.name,
                                       "edges": wire_edges(g.edges)})[1] != 200:
                raise RuntimeError(f"upload of {g.name} refused")
        for g in self.graphs.values():
            for item in self._warm_items(g):
                _, status, raw = server.post("/" + item["op"], item)
                replies.append((item, json.loads(raw) if status == 200 else None))
        return replies

    def _warm_items(self, g: _Resident) -> list:
        return [{"op": "mincut", "graph": g.name},
                {"op": "gomoryhu", "graph": g.name},
                {"op": "stcut", "graph": g.name, "s": 0, "t": g.n - 1}]

    def check_setup(self, replies) -> list[str]:
        return [p for p in (self._check(item, reply, None)
                            for item, reply in replies) if p]

    def _items(self) -> list:
        graphs = list(self.graphs.values())
        items = []
        for k in range(self.ITEMS - 1):
            g = graphs[k % len(graphs)]
            if k % 4 == 3:
                items.append({"op": "mincut", "graph": g.name})
            else:
                s, t = self.rng.sample(range(g.n), 2)
                items.append({"op": "stcut", "graph": g.name, "s": s, "t": t})
        items.append({"op": "gomoryhu", "graph": graphs[0].name})
        return items

    def _check(self, item: dict, reply, rec: Recorder | None) -> str | None:
        if reply is None or "error" in reply:
            return f"{item['op']} error reply {reply!r}"
        g = self.graphs[item["graph"]]
        if item["op"] == "stcut":
            expect = g.cuts.value(item["s"], item["t"])
            if reply.get("weight") != expect:
                return (f"/stcut {g.name} ({item['s']}, {item['t']}) = "
                        f"{reply.get('weight')} != {expect}")
            if rec is not None:
                rec.ratio(reply["weight"], expect)
            return None
        # a cached answer: the same reply every time, minus "cached"
        answer = {k: v for k, v in reply.items() if k != "cached"}
        key = (g.name, item["op"])
        seen = self.verified.get(key)
        if seen is None or seen[0] != answer:
            if item["op"] == "mincut":
                problem = check_mincut(reply, g.edges, g.lam, None)
                served = reply.get("weight")
            else:
                problem = check_gomoryhu(reply, g.cuts, self.check_rng, None)
                served = g.lam
            if problem:
                return problem
            seen = self.verified[key] = (answer, served, g.lam)
        if rec is not None:
            rec.ratio(seen[1], seen[2])
        return None

    def round(self, server, rec: Recorder, r: int) -> None:
        items = self._items()
        elapsed, reply = rec.send(server, "batch", {"requests": items})
        rec.headline.append(elapsed)
        responses = (reply or {}).get("responses") or [None] * len(items)
        if len(responses) != len(items):
            responses = [None] * len(items)
        for item, answer in zip(items, responses):
            rec.settle(self._check(item, answer, rec))


WORKLOADS = {w.name: w for w in (ColdMincut, MutateStcut, WarmBatch)}
