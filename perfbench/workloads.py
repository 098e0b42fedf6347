"""The three benchmark workloads: ``cold``, ``warm`` and ``live``.

Each workload generates its inputs from the seed, sets up, runs a closed
loop for the given number of seconds and returns a ``Run`` with the raw
samples plus the records the output checks compare.  ``spec.json``
records why each workload exists and what it should and should not move.

Set-up time is the input generation (done once) plus the median of
``SETUPS`` start-ups: fresh interpreters importing the program and
priming the solver (``cold``), or server starts with every query primed
(``warm``, ``live``; the last server started is the one measured).
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
EPSILON = 1.0
SETUPS = 3
#: Checkout-relative scratch space (listed in .gitignore).
WORK_ROOT = HERE.parent / ".perfbench"


@dataclass
class Run:
    """What one workload run measured and recorded."""

    setup_s: float
    wall_s: float
    query_ms: List[float]
    update_ms: List[float] = field(default_factory=list)
    failed: int = 0
    rss_mb: float = 0.0
    lp_backend: str = ""
    #: ``(label, released answer, in-process answer)`` — must be identical
    #: (``None``: the workload has no second path to compare against)
    answers: Optional[List[tuple]] = None
    #: ``(label, value, expected value)`` — must be equal
    counts: List[tuple] = field(default_factory=list)
    #: ``(ε the ledger spent, Σ ε granted)``
    ledger: tuple = (0.0, 0.0)
    #: ``(server graph version, update actions applied)``
    versions: Optional[tuple] = None
    spans: Optional[list] = None
    #: ``perf_counter`` at the start of the timed phase (spans before it
    #: belong to set-up; the clock is shared by every process on the host)
    timed_from: float = 0.0
    service: Dict[str, float] = field(default_factory=dict)
    #: times of the host-speed reference chunks run during the timed
    #: phase (``reference_chunk``; excluded from ``wall_s``)
    reference_ms: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.query_ms) + len(self.update_ms)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def workdir_for(workload) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seeds(rng, count):
    return [int(x) for x in rng.integers(0, 2**31, count)]


#: Seconds of the timed phase between two reference chunks.
REFERENCE_EVERY_S = 0.25


def reference_chunk():
    """A fixed piece of interpreter and NumPy work that calls no program
    code: timed between operations, it measures how fast the host runs
    right now.  The host's speed drifts by 20-40 % over minutes (other
    tenants share its cores), and operation times follow that drift."""
    counts = {}
    for i in range(30_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    values = np.arange(60_000, dtype=float)
    for _ in range(4):
        values = np.sort(np.sqrt(values + 1.0))


def _closed_loop(ops, seconds, record):
    """Run ``ops`` (callables) in order until ``seconds`` pass; each op's
    latency (inf when it raised) goes to ``record(op, ms)``.  Between ops,
    every ``REFERENCE_EVERY_S``, one ``reference_chunk`` runs (never while
    an op is in flight).  Returns ``(ops failed, reference chunk ms)``."""
    failed = 0
    reference_ms = []
    deadline = time.perf_counter() + seconds
    next_reference = 0.0
    for op in ops:
        start = time.perf_counter()
        if start >= deadline:
            break
        if start >= next_reference:
            reference_chunk()
            reference_ms.append((time.perf_counter() - start) * 1e3)
            next_reference = start + REFERENCE_EVERY_S
            start = time.perf_counter()
        try:
            op()
        except Exception as error:  # a failed op counts, then the loop goes on
            failed += 1
            print(f"op failed: {error!r}", file=sys.stderr)
            record(op, math.inf)
            continue
        record(op, (time.perf_counter() - start) * 1e3)
    return failed, reference_ms


def _busy_s(start, reference_ms):
    """Seconds since ``start`` less the reference chunks' time."""
    return time.perf_counter() - start - math.fsum(reference_ms) / 1e3


#: Candidate graphs per generated ER graph (see ``typical_er``).
TYPICAL_DRAWS = 6


def typical_er(n, avgdeg, rng):
    """The most typical of ``TYPICAL_DRAWS`` Erdős–Rényi G(n, m = n·avgdeg/2)
    graphs: the one whose triangle count is closest to its expectation.

    Query cost scales with the number of pattern occurrences, which in a
    single ER draw varies by about 1/sqrt(count) from seed to seed; picking
    the typical draw keeps that out of the run-to-run spread while the
    seed still chooses the graph, at a set-up cost that does not depend
    on the seed.
    """
    from repro.graphs import gnm_random_graph
    from repro.subgraphs.counting import count_triangles

    m = round(n * avgdeg / 2)
    pairs = n * (n - 1) / 2
    expected = n * (n - 1) * (n - 2) / 6 * (m / pairs) ** 3
    draws = [gnm_random_graph(n, m, rng=seed) for seed in _seeds(rng, TYPICAL_DRAWS)]
    return min(draws, key=lambda graph: abs(count_triangles(graph) - expected))


# -- cold ----------------------------------------------------------------------

#: One round of the cold mix (graph family, query, privacy): each ER(200)
#: query four times, each 2-star query twice, one WS(600) query.
#: Latencies order ER(200) < 2-star on ER(40) < WS(600), so the median
#: falls inside the ER(200) group (16 of 21) and the p90 tail inside the
#: 2-star group (4 of 21, whose node and edge latencies overlap), away
#: from any boundary and resting on four 2-star samples per round.
_ER200 = tuple(
    ("er200", query, privacy)
    for query, privacy in (
        ("triangle", "node"),
        ("2-triangle", "edge"),
        ("triangle", "edge"),
        ("2-triangle", "node"),
    )
)
COLD_ROUND = (
    *_ER200,
    ("er40", "2-star", "node"),
    ("er40", "2-star", "edge"),
    *_ER200,
    ("ws600", "triangle", "edge"),
    *_ER200,
    ("er40", "2-star", "edge"),
    ("er40", "2-star", "node"),
    *_ER200,
)

#: Average degree of the ER(40) 2-star graphs.  At 10 the 2-star LPs'
#: solve times are bimodal from graph to graph (0.7 s or 2.5 s with the
#: same delta search), so the seed, not the program, set the run's pace;
#: at 6 they stay within about 15 % of each other.
COLD_ER40_AVGDEG = 6

#: Rounds of distinct graphs generated; a longer run cycles through them
#: again, each query still on a fresh session, so still a cache miss.
COLD_GRAPH_ROUNDS = 5

#: A fresh interpreter's start-up: import the program, prime the solver.
_PRIME = """
import sys
sys.path.insert(0, {src!r})
from repro import PrivateSession, random_graph_with_avg_degree
session = PrivateSession(random_graph_with_avg_degree(30, 6, rng={seed}))
session.query("triangle", privacy="edge", epsilon=1.0, rng={seed})
print(session.lp_backend)
"""


def _cold_graph(family, rng, tiny):
    from repro.graphs import watts_strogatz

    if family == "ws600":
        return watts_strogatz(60 if tiny else 600, 10, 0.1, rng=_seeds(rng, 1)[0])
    if tiny:
        return typical_er(20, 6, rng)
    if family == "er40":
        return typical_er(40, COLD_ER40_AVGDEG, rng)
    return typical_er(200, 10, rng)


def _independent_count(graph, query):
    from repro.subgraphs.counting import (
        count_k_stars,
        count_k_triangles,
        count_triangles,
    )

    if query == "triangle":
        return count_triangles(graph)
    if query == "2-star":
        return count_k_stars(graph, 2)
    return count_k_triangles(graph, 2)


def _whole_rounds(ops, round_size, seconds, start):
    """Yield ops until ``seconds`` pass, finishing the round in progress
    so every run measures the same mix."""
    for index, op in enumerate(ops):
        if index % round_size == 0 and time.perf_counter() - start >= seconds:
            return
        yield op


def run_cold(seed, seconds, recorder=None, tiny=False):
    """In-process ``PrivateSession.query``; every query a cache miss."""
    startups = []
    for _ in range(1 if tiny else SETUPS):
        start = time.perf_counter()
        command = [sys.executable, "-c", _PRIME.format(src=SRC, seed=seed)]
        completed = subprocess.run(command, capture_output=True, text=True, check=True)
        startups.append(time.perf_counter() - start)
    start = time.perf_counter()
    from repro import PrivateSession

    rng = np.random.default_rng([seed, 1])
    items = []
    for _ in range(2 if tiny else COLD_GRAPH_ROUNDS):
        for family, query, privacy in COLD_ROUND:
            graph = _cold_graph(family, rng, tiny)
            (query_seed,) = _seeds(rng, 1)
            items.append((family, query, privacy, graph, query_seed))
    # prime this process too, outside the timed phase
    PrivateSession(items[0][3]).query(
        "triangle", privacy="edge", epsilon=EPSILON, rng=seed
    )
    setup_s = statistics.median(startups) + time.perf_counter() - start
    # The pre-generated graphs are the benchmark's, not the program's: keep
    # them out of the collector's scans during the timed phase.
    gc.collect()
    gc.freeze()
    results = []

    def make_op(item):
        family, query, privacy, graph, query_seed = item

        def op():
            session = PrivateSession(graph)
            result = session.query(
                query, privacy=privacy, epsilon=EPSILON, rng=query_seed
            )
            # keep numbers only: holding sessions would inflate peak RSS
            results.append(
                (item, result.true_answer, session.cache_info().misses, session.spent)
            )

        return op

    def cycle():
        while True:
            yield from (make_op(item) for item in items)

    query_ms = []
    start = time.perf_counter()
    failed, reference_ms = _closed_loop(
        _whole_rounds(cycle(), len(COLD_ROUND), seconds, start),
        math.inf,
        lambda op, ms: query_ms.append(ms),
    )
    wall = _busy_s(start, reference_ms)
    gc.unfreeze()
    run = Run(
        setup_s=setup_s,
        wall_s=wall,
        reference_ms=reference_ms,
        timed_from=start,
        query_ms=query_ms,
        failed=failed,
        rss_mb=vm_hwm_mb(),
        lp_backend=completed.stdout.strip(),
    )
    spent = []
    for (family, query, privacy, graph, _), true_answer, misses, charged in results:
        label = f"{family}/{query}/{privacy}"
        run.counts.append((label, true_answer, _independent_count(graph, query)))
        run.counts.append((f"{label} cache misses", misses, 1))
        spent.append(charged)
    run.ledger = (math.fsum(spent), math.fsum(EPSILON for _ in results))
    if recorder is not None:
        run.spans = recorder.spans
    return run


# -- the server workloads ------------------------------------------------------


class Server:
    """``repro serve --datasets`` started through ``launch.py``."""

    def __init__(self, workdir: Path, config: Path, seed: int, traced: bool):
        announce = workdir / "address"
        if announce.exists():
            announce.unlink()
        self.spans_path = workdir / "spans.json" if traced else None
        command = [sys.executable, str(HERE / "launch.py")]
        if traced:
            command += ["--spans", str(self.spans_path)]
        command += ["serve", "--datasets", str(config), "--port", "0"]
        command += ["--announce", str(announce), "--seed", str(seed)]
        command += ["--workers", "1", "--cache-size", "16"]
        self.log_path = workdir / "server.log"
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT, cwd=HERE.parent
        )
        deadline = time.monotonic() + 120
        while not (announce.exists() and announce.read_text().strip()):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(
                    f"server did not start; log:\n{self.log_path.read_text()}"
                )
            time.sleep(0.005)
        self.address = announce.read_text().strip()

    def rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def close(self):
        """Stop the server (SIGINT, then SIGKILL) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()

    def wrappers(self) -> int:
        for line in self.log_path.read_text().splitlines():
            if line.startswith("perfbench-launch wrappers="):
                return int(line.split("=", 1)[1])
        raise RuntimeError("launcher did not report its wrappers")

    def spans(self):
        with open(self.spans_path) as handle:
            return [tuple(record) for record in json.load(handle)]


def _query(client, dataset, query, privacy, query_seed):
    return client.query(
        query, epsilon=EPSILON, privacy=privacy, dataset=dataset, seed=query_seed
    )


def _start_server(workdir, graphs, extras, seed, traced, primes, tiny):
    """Write the generated graphs, then start the server and prime every
    ``(dataset, query, privacy, seed)`` in ``primes``, ``SETUPS`` times.

    Returns ``(setup_s, server, edge-list paths, primed releases)``.
    """
    from repro.graphs import write_edge_list
    from repro.service import ServiceClient

    start = time.perf_counter()
    paths, config = {}, {}
    for name, graph in graphs.items():
        paths[name] = workdir / f"{name}.edges"
        write_edge_list(graph, paths[name])
        config[name] = dict({"graph": {"edge_list": str(paths[name])}}, **extras)
    config_path = workdir / "datasets.json"
    config_path.write_text(json.dumps({"datasets": config}))
    write_s = time.perf_counter() - start
    startups, server = [], None
    for _ in range(1 if tiny else SETUPS):
        if server is not None:
            server.close()
        start = time.perf_counter()
        server = Server(workdir, config_path, seed, traced)
        try:
            primed = []
            with ServiceClient(server.address, user="primer") as client:
                for dataset, query, privacy, query_seed in primes:
                    frame = _query(client, dataset, query, privacy, query_seed)
                    primed.append((dataset, query, privacy, query_seed, frame))
        except BaseException:
            server.close()
            raise
        startups.append(time.perf_counter() - start)
    return write_s + statistics.median(startups), server, paths, primed


def _scrape(client):
    """``{histogram: (count, sum)}`` of the server's query-path histograms,
    summed over datasets."""
    totals = {}
    for row in client.metrics()["metrics"]:
        if row["name"] in ("repro_query_seconds", "repro_admission_wait_seconds"):
            count, total = totals.get(row["name"], (0, 0.0))
            totals[row["name"]] = (count + row["count"], total + row["sum"])
    return totals


def _scraped_mean_ms(before, after, name):
    """Mean of a histogram over the timed phase.  The mean is exact (from
    the histogram's sum and count); its log buckets, four per decade, are
    too coarse for a p50."""
    count, total = after.get(name, (0, 0.0))
    count0, total0 = before.get(name, (0, 0.0))
    return (total - total0) / (count - count0) * 1e3 if count > count0 else 0.0


def _finish_server_run(run, server, client, before):
    """Ledger, backend, memory and (traced) server histograms; then stop."""
    hello = client.hello()
    run.lp_backend = hello["lp_backend"]
    spent = [client.budget(dataset=name)["spent"] for name in hello["datasets"]]
    run.ledger = (math.fsum(spent), run.ledger[1])
    if before is not None:
        after = _scrape(client)
        for key, name in (
            ("server_ms", "repro_query_seconds"),
            ("admission_wait_ms", "repro_admission_wait_seconds"),
        ):
            run.service[key] = _scraped_mean_ms(before, after, name)
    run.rss_mb = server.rss_mb()
    client.close()
    server.close()
    if server.spans_path is not None:
        run.spans = server.spans()
    run.service["wrappers"] = server.wrappers()


def _replay_in_process(path, releases, batches=None):
    """Answer ``releases`` in order from an in-process session over the
    same edge list; returns the in-process answers.

    ``releases`` are ``(query, privacy, seed, version)``; with
    ``batches`` (the update batches, in order) the session is dynamic and
    applies batches until the graph reaches each release's version.
    """
    from repro import PrivateSession, VersionedGraph
    from repro.graphs import read_edge_list

    graph = read_edge_list(path)
    if batches is not None:
        graph = VersionedGraph(graph)
    pending = iter(batches or ())
    answers = []
    with PrivateSession(graph) as session:
        for query, privacy, seed, version in releases:
            while batches is not None and session.graph_version < version:
                session.apply_update(next(pending))
            result = session.query(query, privacy=privacy, epsilon=EPSILON, rng=seed)
            answers.append(float(result.answer))
    return answers


# -- warm ----------------------------------------------------------------------

#: (dataset, privacy) → share of the warm mix.  Measured latencies order
#: small/node < small/edge < large/node < large/edge; these shares put
#: the median inside large/node (30–75 %) and the p95 tail inside
#: large/edge (75–100 %), never on a boundary between two types.
WARM_MIX = (
    (("small", "node"), 0.15),
    (("small", "edge"), 0.15),
    (("large", "node"), 0.45),
    (("large", "edge"), 0.25),
)
#: Releases per (dataset, privacy) replayed in process, in ledger order.
WARM_REPLAYED = 6


def run_warm(seed, seconds, workdir, traced=False, tiny=False):
    """``repro serve`` with two primed datasets; every query a cache hit.

    One connection: a warm query costs a few milliseconds, so a second
    connection (a second client thread, and the server's reader thread
    contending with its worker for the GIL) would put scheduler wake-ups
    into every latency on a 2-core host.
    """
    from repro.service import ServiceClient

    rng = np.random.default_rng([seed, 2])
    sizes = {"small": 30, "large": 60} if tiny else {"small": 200, "large": 2000}
    start = time.perf_counter()
    graphs = {name: typical_er(n, 8, rng) for name, n in sizes.items()}
    generate_s = time.perf_counter() - start
    primes = [
        (dataset, "triangle", privacy, query_seed)
        for ((dataset, privacy), _), query_seed in zip(WARM_MIX, _seeds(rng, 4))
    ]
    setup_s, server, paths, primed = _start_server(
        workdir, graphs, {}, seed, traced, primes, tiny
    )
    kinds = [kind for kind, _ in WARM_MIX]
    picks = rng.choice(len(kinds), size=100_000, p=[share for _, share in WARM_MIX])
    plan = list(zip(picks.tolist(), _seeds(rng, picks.size)))
    frames, query_ms = [], []

    def ops():
        for pick, query_seed in plan:
            dataset, privacy = kinds[pick]

            def op(dataset=dataset, privacy=privacy, query_seed=query_seed):
                frame = _query(analyst, dataset, "triangle", privacy, query_seed)
                frames.append((dataset, "triangle", privacy, query_seed, frame))

            yield op

    try:
        client = ServiceClient(server.address, user="operator")
        before = _scrape(client) if traced else None
        with ServiceClient(server.address, user="analyst") as analyst:
            start = time.perf_counter()
            failed, reference_ms = _closed_loop(
                ops(), seconds, lambda op, ms: query_ms.append(ms)
            )
            wall_s = _busy_s(start, reference_ms)
        run = Run(
            setup_s=generate_s + setup_s,
            wall_s=wall_s,
            reference_ms=reference_ms,
            timed_from=start,
            query_ms=query_ms,
            failed=failed,
        )
        released = primed + frames
        run.ledger = (0.0, math.fsum(frame["epsilon"] for *_, frame in released))
        for dataset, _, privacy, _, frame in released[len(primed) :]:
            label = f"{dataset}/{privacy}#{frame['index']} cache hit"
            run.counts.append((label, frame["cache_hit"], True))
        _finish_server_run(run, server, client, before)
    finally:
        server.close()
    run.answers = []
    # Each (dataset, privacy) pair's first releases, replayed in process in
    # ledger order: the X-step model is persistent, so a prefix in the
    # server's order reproduces the server's solver state exactly.
    for dataset in sizes:
        chosen = []
        for privacy in ("node", "edge"):
            pair = [
                item for item in released if item[0] == dataset and item[2] == privacy
            ]
            pair.sort(key=lambda item: item[4]["index"])
            chosen += pair[:WARM_REPLAYED]
        chosen.sort(key=lambda item: item[4]["index"])
        local = _replay_in_process(
            paths[dataset], [(q, p, s, None) for _, q, p, s, _ in chosen]
        )
        for (_, _, privacy, _, frame), answer in zip(chosen, local):
            run.answers.append(
                (f"{dataset}/{privacy}#{frame['index']}", frame["answer"], answer)
            )
    return run


# -- live ----------------------------------------------------------------------

#: Edge actions per update batch: enough that maintenance, not the round
#: trip, dominates the update latency.
LIVE_BATCH = 40
LIVE_TOKEN = "perfbench-writer"
#: Fresh queries replayed in process (the first few, then evenly spaced).
LIVE_REPLAYED = 12


class _EdgeStream:
    """Seeded update batches that always take effect: each inserts
    ``batch / 2`` new random edges and deletes the edges the previous
    batch inserted (the first batch deletes random ones instead).

    The graph stays within one batch of its generated state, so every
    version costs about the same to query: a random walk of inserts and
    deletes would drift the graph (and the number of LP probes its Δ
    search needs) differently in every run.
    """

    def __init__(self, graph, rng, batch):
        self.nodes = sorted(graph.nodes())
        self.present = {tuple(sorted(edge)) for edge in graph.edges()}
        self.rng = rng
        self.half = batch // 2
        edges = sorted(self.present)
        picks = rng.choice(len(edges), size=self.half, replace=False)
        self.inserted = [edges[i] for i in picks]

    def next_batch(self):
        actions = []
        inserted = []
        while len(inserted) < self.half:
            u, v = self.rng.choice(len(self.nodes), size=2, replace=False)
            edge = tuple(sorted((self.nodes[u], self.nodes[v])))
            if edge not in self.present:
                self.present.add(edge)
                inserted.append(edge)
                actions.append({"action": "add_edge", "u": edge[0], "v": edge[1]})
        for edge in self.inserted:
            self.present.remove(edge)
            actions.append({"action": "remove_edge", "u": edge[0], "v": edge[1]})
        self.inserted = inserted
        return actions


def run_live(seed, seconds, workdir, traced=False, tiny=False):
    """One writer alternating an update batch and a fresh query."""
    from repro.service import ServiceClient

    rng = np.random.default_rng([seed, 3])
    start = time.perf_counter()
    graph = typical_er(60 if tiny else 2000, 8, rng)
    generate_s = time.perf_counter() - start
    primes = [("live", "triangle", "edge", *_seeds(rng, 1))]
    extras = {"updates": True, "writer_token": LIVE_TOKEN}
    setup_s, server, paths, primed = _start_server(
        workdir, {"live": graph}, extras, seed, traced, primes, tiny
    )
    stream = _EdgeStream(graph, rng, LIVE_BATCH // 4 if tiny else LIVE_BATCH)
    batches, updates, queries = [], [], []
    query_ms, update_ms = [], []
    applied = [0]  # update actions the server acknowledged

    def ops():
        while True:
            actions = stream.next_batch()
            (query_seed,) = _seeds(rng, 1)

            def update(actions=actions):
                updates.append(client.update(actions, token=LIVE_TOKEN))
                batches.append(actions)
                applied[0] += len(actions)

            def query(query_seed=query_seed):
                frame = _query(client, "live", "triangle", "edge", query_seed)
                queries.append((query_seed, frame, applied[0]))

            yield update
            yield query

    def record(op, ms):
        (query_ms if op.__name__ == "query" else update_ms).append(ms)

    try:
        client = ServiceClient(server.address, user="analyst", dataset="live")
        before = _scrape(client) if traced else None
        start = time.perf_counter()
        failed, reference_ms = _closed_loop(ops(), seconds, record)
        run = Run(
            setup_s=generate_s + setup_s,
            wall_s=_busy_s(start, reference_ms),
            reference_ms=reference_ms,
            timed_from=start,
            query_ms=query_ms,
            update_ms=update_ms,
            failed=failed,
        )
        released = [(s, frame, 0) for *_, s, frame in primed] + queries
        run.ledger = (0.0, math.fsum(frame["epsilon"] for _, frame, _ in released))
        total = 0
        for actions, frame in zip(batches, updates):
            total += len(actions)
            run.counts.append((f"update to v{total}", frame["version"], total))
        for _, frame, expected in released:
            label = f"query at v{expected}"
            run.counts.append((label, frame["version"], expected))
            run.counts.append((f"{label} cache hit", frame["cache_hit"], False))
        version = client.hello()["datasets"]["live"]["graph_version"]
        run.versions = (version, total)
        _finish_server_run(run, server, client, before)
    finally:
        server.close()
    run.answers = []
    step = max(1, len(released) // LIVE_REPLAYED)
    chosen = released[:3] + released[3::step]
    local = _replay_in_process(
        paths["live"],
        [("triangle", "edge", s, frame["version"]) for s, frame, _ in chosen],
        batches=batches,
    )
    for (_, frame, _), answer in zip(chosen, local):
        run.answers.append((f"live@v{frame['version']}", frame["answer"], answer))
    return run
