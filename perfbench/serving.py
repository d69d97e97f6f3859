"""Serve sessions: launch ``repro serve``, time start-up, drive load, hot swap."""

from __future__ import annotations

import http.client
import json
import random
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from common import SRC, median, percentile, repro_env, sha256_file
import loadgen

#: Request mix: (weight, kind).  Fixed by the benchmark, seeded per run.
MIX = ((50, "asn"), (25, "country"), (20, "cti"), (4, "snapshot"), (1, "metrics"))
#: Open-loop arrival rate: about a third of what two connections complete
#: in the closed loop on a 2-core host (11-13k req/s).  At half that
#: capacity the client and server share the two cores closely enough that
#: the host's speed drift moved the open-loop p50 by half its median.
OPEN_RATE = 4000.0
#: In the hot-swap round the closed loop runs on until this many responses
#: came from the new snapshot, so requests always cross the swap.
SWAP_TAIL = 500
#: The query endpoints.  The open-loop latency percentiles cover these;
#: /metrics is an operator scrape whose own latency is a per-layer row (its
#: stalls still delay the queries queued behind it).
QUERY_ROUTES = ("asn", "country", "cti", "snapshot")
#: A run whose generator sent requests later than this (p99) is invalid:
#: the client, not the server, fell behind.
GEN_LAG_LIMIT_MS = 5.0
_PORT = re.compile(r"http://127\.0\.0\.1:(\d+) ")


@dataclass
class Plan:
    rounds: int            # fresh servers under load, each timed from launch
    open_n: int            # open-loop requests per round at OPEN_RATE
    closed_n: int          # closed-loop requests per round, two connections


@dataclass
class Round:
    """One fresh server: start-up, an open loop, then a closed loop."""

    setup_s: float
    open: loadgen.Outcome
    closed: loadgen.Outcome
    swapped: Optional[bool]
    rss_start_mb: float
    rss_end_mb: float
    rss_peak_mb: float

    def open_latency_ms(self, q: float, routes=QUERY_ROUTES) -> float:
        return 1000 * percentile(
            (s.done - s.due for s in self.open.samples if s.ok and s.route in routes),
            q,
        )


@dataclass
class Session:
    """Rounds run back to back; metrics are medians over rounds, so a
    burst of interference on the host moves one round, not the result."""

    rounds: List[Round] = field(default_factory=list)
    targets: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(r.open.samples) + len(r.closed.samples) + (r.swapped is not None)
                   for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.open.failed + r.closed.failed + (r.swapped is False)
                   for r in self.rounds)

    @property
    def errors(self) -> List[str]:
        errors = []
        for r in self.rounds:
            errors += r.open.errors + r.closed.errors
            if r.swapped is False:
                errors.append("the closed loop's answers did not cross the hot swap")
        return errors

    def setup_s(self) -> float:
        return median(r.setup_s for r in self.rounds)

    def closed_wall_s(self) -> float:
        return median(r.closed.wall_s for r in self.rounds)

    def qps(self) -> float:
        return median(len(r.closed.samples) / r.closed.wall_s for r in self.rounds)

    def open_latency_ms(self, q: float, routes=QUERY_ROUTES) -> float:
        return median(r.open_latency_ms(q, routes) for r in self.rounds)

    def rss_peak_mb(self) -> float:
        return median(r.rss_peak_mb for r in self.rounds)

    def gen_lag_p99_ms(self) -> float:
        return 1000 * percentile(
            (s.lag for r in self.rounds for s in r.open.samples), 0.99)

    @property
    def valid(self) -> bool:
        return self.gen_lag_p99_ms() <= GEN_LAG_LIMIT_MS


def request_mix(export: Path, world_asns: List[int], rng: random.Random,
                n: int) -> List[str]:
    """``n`` request targets: ASNs drawn uniformly from the whole world (so
    the share that hits a state-owned ASN is the dataset's own), countries
    from the export."""
    data = json.loads(Path(export).read_text(encoding="utf-8"))
    ccs = sorted({org["target_cc"] or org["ownership_cc"]
                  for org in data["organizations"]})
    cti = json.loads(Path(f"{export}.cti.json").read_text(encoding="utf-8"))
    cti_ccs = sorted(cti["countries_applied"]) or ccs
    # Every block of 100 requests holds the mix exactly, shuffled: the
    # count and rough position of the expensive /metrics scrapes are then
    # the same for every seed, and only the queried keys vary.
    block = [kind for weight, kind in MIX for _ in range(weight)]
    kinds: List[str] = []
    while len(kinds) < n:
        rng.shuffle(block)
        kinds.extend(block)
    targets = []
    for kind in kinds[:n]:
        if kind == "asn":
            targets.append(f"/asn/{rng.choice(world_asns)}")
        elif kind == "country":
            targets.append(f"/country/{rng.choice(ccs)}")
        elif kind == "cti":
            targets.append(f"/cti/top?n=10&country={rng.choice(cti_ccs)}")
        else:
            targets.append(f"/{kind}")
    return targets


def arrivals(rng: random.Random, n: int, rate: float) -> List[float]:
    """Poisson arrival times (seconds from the start) at ``rate``."""
    due, t = [], 0.05
    for _ in range(n):
        due.append(t)
        t += rng.expovariate(rate)
    return due


def install(src: Path, dest: Path) -> None:
    """Atomically install an export and its CTI sidecar (sidecar first)."""
    for suffix in (".cti.json", ""):
        tmp = dest.with_name(dest.name + suffix + ".tmp")
        shutil.copyfile(f"{src}{suffix}", tmp)
        tmp.replace(f"{dest}{suffix}")


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, dataset: Path) -> None:
        self.dataset = dataset
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 30.0) -> float:
        """Launch and wait for the first 200 from /health; returns seconds."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(self.dataset),
             "--port", "0", "--poll-interval", "0.1"],
            env=repro_env(),
            cwd=str(SRC.parent),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            # Started in the background, this process may have inherited
            # an ignored SIGINT, which the server would keep: restore it,
            # so that stop() shuts the server down instead of timing out.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        deadline = started + timeout_s
        # The announce line is printed (unbuffered) once the socket is bound.
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout_s):
                raise RuntimeError("repro serve did not announce its port")
            line = self.proc.stdout.readline()
        match = _PORT.search(line.decode("utf-8", "replace"))
        if match is None:
            raise RuntimeError(f"unexpected announce line {line!r}")
        self.port = int(match.group(1))
        while time.perf_counter() < deadline:
            if self.get("/health")[0] == 200:
                return time.perf_counter() - started
            time.sleep(0.002)
        raise RuntimeError("repro serve never answered /health")

    def get(self, target: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", target)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def rss_mb(self) -> Dict[str, float]:
        out = {}
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            name, _, value = line.partition(":")
            if name in ("VmRSS", "VmHWM"):
                out[name] = int(value.split()[0]) / 1024.0
        return out

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def run_session(
    primary: Path,
    swap_to: Optional[Path],
    world_asns: List[int],
    plan: Plan,
    rng: random.Random,
    tmp: Path,
) -> Session:
    """Serve ``primary`` for ``plan.rounds`` rounds.  The middle round
    hot-swaps to ``swap_to`` (when given) half-way through its closed loop."""
    served = tmp / "served.json"
    digests = {sha256_file(primary)}
    if swap_to is not None:
        digests.add(sha256_file(swap_to))
    per_round = plan.open_n + plan.closed_n
    session = Session(targets=request_mix(primary, world_asns, rng,
                                          plan.rounds * per_round))
    for number in range(plan.rounds):
        targets = session.targets[number * per_round : (number + 1) * per_round]
        due = arrivals(rng, plan.open_n, OPEN_RATE)
        swap = swap_to if number == plan.rounds // 2 else None
        install(primary, served)
        session.rounds.append(_round(served, targets, due, digests, plan, swap))
    return session


def _round(served: Path, targets: List[str], due: List[float], digests,
           plan: Plan, swap_to: Optional[Path]) -> Round:
    old = sha256_file(served)
    new = sha256_file(swap_to) if swap_to is not None else None
    half = plan.closed_n // 2

    def swap_midway(index: int) -> None:
        if new is not None and index == half:
            install(swap_to, served)

    server = Server(served)
    try:
        setup_s = server.start()
        rss_start = server.rss_mb()["VmRSS"]
        opened = loadgen.open_loop(server.port, targets[: plan.open_n], due, digests)
        closed = loadgen.closed_loop(
            server.port, targets[plan.open_n :], digests, on_sent=swap_midway,
            until_digest=new, tail=SWAP_TAIL,
        )
        rss = server.rss_mb()
    finally:
        server.stop()
    swapped = None
    if new is not None:
        # The swap is tested only when the closed loop's answers came from
        # both snapshots, SWAP_TAIL of them after the swap.
        answered = [s.digest for s in closed.samples]
        swapped = old in answered and answered.count(new) >= SWAP_TAIL
    return Round(setup_s, opened, closed, swapped, rss_start, rss["VmRSS"],
                 rss["VmHWM"])


def layer_metrics(
    session: Session, primary: Path, swap_to: Optional[Path], tmp: Path
) -> Dict[str, float]:
    """The serve layer's rows, measured in this process with the public
    ``build_index`` / ``SnapshotStore`` API plus the client's view."""
    from repro.serve import SnapshotStore, build_index

    builds = []
    for _ in range(3):
        started = time.perf_counter()
        index = build_index(primary, Path(f"{primary}.cti.json"))
        builds.append(time.perf_counter() - started)
    out: Dict[str, float] = {"serve.index_build_s": sorted(builds)[1]}

    out["serve.swap_s"] = 0.0
    if swap_to is not None:
        path = tmp / "swap.json"
        install(primary, path)
        store = SnapshotStore(path)
        store.load_initial()
        install(swap_to, path)
        started = time.perf_counter()
        swapped = store.poll()
        out["serve.swap_s"] = time.perf_counter() - started if swapped else 0.0

    per_route: Dict[str, List[float]] = {}
    for target in session.targets[:4000]:
        route = loadgen.route_of(target)
        if route == "metrics":
            continue
        started = time.perf_counter()
        json.dumps(_answer(index, target))
        per_route.setdefault(route, []).append(time.perf_counter() - started)
    for route in QUERY_ROUTES:
        values = per_route.get(route, [])
        out[f"serve.handler_us.{route}"] = (
            1e6 * sum(values) / len(values) if values else 0.0
        )
    out["serve.p95_ms"] = session.open_latency_ms(0.95)
    out["serve.p99_ms"] = session.open_latency_ms(0.99)
    for route in QUERY_ROUTES + ("metrics",):
        out[f"serve.client_p99_ms.{route}"] = session.open_latency_ms(0.99, (route,))

    growth = []
    for r in session.rounds:
        scrapes = [s.done - s.sent for s in r.open.samples + r.closed.samples
                   if s.route == "metrics" and s.ok]
        decile = len(scrapes) // 10
        if decile:
            growth.append(sum(scrapes[-decile:]) / sum(scrapes[:decile]))
    out["serve.metrics_scrape_growth"] = median(growth)
    out["serve.rss_growth_mb"] = median(
        r.rss_end_mb - r.rss_start_mb for r in session.rounds)
    out["serve.gen_lag_p99_ms"] = session.gen_lag_p99_ms()
    return out


def _answer(index, target: str):
    path, _, query = target.partition("?")
    parts = [p for p in path.split("/") if p]
    if parts[0] == "asn":
        return index.owner_chain(int(parts[1]))
    if parts[0] == "country":
        return index.country_footprint(parts[1])
    if parts[0] == "cti":
        cc = query.rpartition("country=")[2] or None
        return index.top_cti(10, cc=cc)
    return index.metadata()
