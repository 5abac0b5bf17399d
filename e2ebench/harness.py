"""E23: one closed-loop drive of the full serving path, single process.

Path per server frame::

    clients ─ GatewayCore.on_bytes ─ ClusterCoordinator.tick (2 shards:
    batch movement kernel, NPC ScriptSystem, handoffs, 2PC) ─ DurableGroup
    unit of work (one semi-sync standby) ─ OutboxDispatcher.drain ─
    GatewayCore.tick (interest, deltas, encode, flush) ─ client decode

Every client input is a gold trade with a partner avatar.  The harness,
acting as the server host, submits it as ``transfer_spec`` to the
cluster; once ``txn_outcome`` decides, a durable unit of work records
the trade (or the refusal) and emits the outbox event that answers the
client.  The workload seed generates every input; the program only
ever sees the resulting bytes.

A run is a fixed number of measured frames (set from ``--seconds``) so
that counts repeat exactly for a seed and a faster program does not get
a longer, costlier history.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Any

from repro.cluster import ClusterCoordinator, StaticGridPlacement
from repro.consistency import StaticGridPartitioner
from repro.core.component import schema
from repro.durable import DurableGroup, OutboxDispatcher
from repro.errors import ClusterError
from repro.gateway import (
    ClusterView,
    Delta,
    EventMsg,
    FrameDecoder,
    GatewayConfig,
    GatewayCore,
    Goodbye,
    Hello,
    Reject,
    Welcome,
    frame,
)
from repro.net.protocol import InputCommand
from repro.obs import NOOP_SPAN, MemorySink, Tracer
from repro.scripting.script_system import ScriptSystem
from repro.spatial import AABB
from repro.workloads.hotspot import transfer_spec
from repro.workloads.players import zipf_choice

from checks import Checker
from ledger import FRAME, fold, per_frame_series

GOLD = 100
#: Frames between the cluster's repartition passes (handoffs run then).
REPARTITION_INTERVAL = 10
#: Zipf exponent of the hotspot populations, and the spread (map
#: units) of the clients around their hotspot's centre.
HOTSPOT_THETA = 0.8
HOTSPOT_SIGMA = 12.0
#: Warm-up frames run as part of set-up, and the most frames run after
#: the measured ones (without new inputs) to let answers land.
WARMUP_FRAMES = 4
TAIL_FRAMES = 16

#: The NPC behaviour script; it runs on every shard each frame.
NPC_SCRIPT = """
for e in entities("Mind"):
    e.hunger = clamp(e.hunger + e.appetite * dt, 0, 100)
    e.mood = clamp(e.mood + (50 - e.hunger) * 0.02 * dt, 0, 100)
end
"""

MOVE_READS = (
    "Position.x", "Position.y", "Velocity.vx", "Velocity.vy",
    "Home.hx", "Home.hy", "Home.leash", "Home.tc", "Home.ts",
)
MOVE_WRITES = ("Position.x", "Position.y", "Velocity.vx", "Velocity.vy")


def schemas() -> list:
    """Components on every shard."""
    return [
        schema("Position", x="float", y="float"),
        schema("Velocity", vx=("float", 0.0), vy=("float", 0.0)),
        schema("Home", hx="float", hy="float", leash="float", tc="float",
               ts="float"),
        schema("Wealth", gold=("int", GOLD)),
        schema("Mind", hunger="float", mood="float", appetite="float"),
    ]


def move_kernel(world: Any, ids: Any, cols: Any, dt: float) -> dict:
    """Batch movement: turn a little, head home when past the leash."""
    xs: list[float] = []
    ys: list[float] = []
    vxs: list[float] = []
    vys: list[float] = []
    for x, y, vx, vy, hx, hy, leash, c, s in zip(
        *(cols[ref] for ref in MOVE_READS)
    ):
        vx, vy = vx * c - vy * s, vx * s + vy * c
        dx, dy = hx - x, hy - y
        if dx * dx + dy * dy > leash * leash and dx * vx + dy * vy < 0:
            vx, vy = -vx, -vy
        xs.append(x + vx * dt)
        ys.append(y + vy * dt)
        vxs.append(vx)
        vys.append(vy)
    return {"Position.x": xs, "Position.y": ys,
            "Velocity.vx": vxs, "Velocity.vy": vys}


@dataclass(frozen=True)
class Workload:
    """One traffic mix; the seed draws inputs within this shape."""

    name: str
    clients: int
    npcs: int
    map_size: float
    #: Fixed hotspot centres (Zipf-weighted, first is hottest); empty
    #: spreads clients uniformly.  Fixed so the share of cross-shard
    #: trades does not depend on the seed.
    hotspots: tuple[tuple[float, float], ...]
    aoi_radius: float
    trade_rate: float
    churn_rate: float
    partner_theta: float
    speed: float
    #: How far an avatar or NPC strays from its home before turning back.
    leash: float


WORKLOADS = {
    "crowd": Workload(
        name="crowd", clients=300, npcs=0, map_size=400.0,
        hotspots=((100.0, 100.0), (300.0, 300.0), (300.0, 100.0),
                  (100.0, 300.0)),
        aoi_radius=12.0, trade_rate=0.007, churn_rate=0.01,
        partner_theta=0.8, speed=6.0, leash=36.0,
    ),
    "sim": Workload(
        name="sim", clients=48, npcs=3000, map_size=2000.0, hotspots=(),
        aoi_radius=40.0, trade_rate=0.03125, churn_rate=0.0,
        partner_theta=0.3, speed=30.0, leash=150.0,
    ),
    "trade": Workload(
        name="trade", clients=200, npcs=0, map_size=2000.0, hotspots=(),
        aoi_radius=8.0, trade_rate=0.02, churn_rate=0.0,
        partner_theta=1.2, speed=6.0, leash=36.0,
    ),
}


def tiny(workload: Workload) -> Workload:
    """A small configuration of a workload, for the self-tests."""
    return replace(
        workload,
        clients=min(workload.clients, 24),
        npcs=min(workload.npcs, 200),
        trade_rate=max(workload.trade_rate, 0.2),
        churn_rate=max(workload.churn_rate, 0.05) if workload.churn_rate else 0.0,
    )


class TimedTransport:
    """Memory transport that timestamps every send for input latency."""

    __slots__ = ("chunks", "pending", "closed")

    def __init__(self) -> None:
        self.chunks: list[tuple[float, bytes]] = []
        self.pending = 0
        self.closed = False

    def send(self, data: bytes) -> None:
        if self.closed:
            return
        self.chunks.append((time.perf_counter(), data))
        self.pending += len(data)

    def buffered_bytes(self) -> int:
        return self.pending

    def take(self) -> list[tuple[float, bytes]]:
        """Everything sent since the last take (the client's read)."""
        chunks, self.chunks, self.pending = self.chunks, [], 0
        return chunks

    def close(self) -> None:
        self.closed = True


class Client:
    """One player: avatar, connection, decoder, and its own requests."""

    __slots__ = ("name", "avatar", "transport", "cid", "decoder", "session",
                 "resume", "connected", "seq", "open")

    def __init__(self, name: str, avatar: int):
        self.name = name
        self.avatar = avatar
        self.transport: TimedTransport | None = None
        self.cid = -1
        self.decoder = FrameDecoder()
        self.session = ""
        self.resume = ""
        self.connected = False
        self.seq = 0
        self.open: dict[str, Request] = {}


class Request:
    """One trade input, as the client and the checker see it."""

    __slots__ = ("key", "client", "t_sent", "measured", "decided",
                 "committed", "answers", "ok", "detached", "latency_ms",
                 "status", "flow")

    def __init__(self, key: str, client: Client, measured: bool):
        self.key = key
        self.client = client
        self.t_sent = 0.0
        self.measured = measured
        self.decided = False
        self.committed = False
        self.answers = 0
        self.ok = False
        self.detached = False
        self.latency_ms = 0.0
        self.status = "open"
        self.flow = ""


class _Pending:
    """Server-host side of a trade between submit and its durable record."""

    __slots__ = ("key", "src", "dst", "amount", "txn")

    def __init__(self, key: str, src: int, dst: int, amount: int, txn: int):
        self.key = key
        self.src = src
        self.dst = dst
        self.amount = amount
        self.txn = txn


def hotspot_quota(clients: int, hotspots: int) -> list[int]:
    """Hotspot index per client: Zipf shares, rounded to exact quotas.

    Exact quotas keep each hotspot's crowd (and so its AOI density) the
    same for every seed; the seed only decides who stands where.
    """
    if not hotspots:
        return [0] * clients
    weights = [1.0 / (k + 1) ** HOTSPOT_THETA for k in range(hotspots)]
    total = sum(weights)
    exact = [clients * w / total for w in weights]
    counts = [int(e) for e in exact]
    by_remainder = sorted(range(hotspots), key=lambda k: counts[k] - exact[k])
    for k in by_remainder[: clients - sum(counts)]:
        counts[k] += 1
    return [k for k in range(hotspots) for _ in range(counts[k])]


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One built serving stack plus the closed loop that drives it."""

    def __init__(self, workload: Workload, seed: int, traced: bool):
        self.wl = workload
        self.seed = seed
        # The benchmark's own tracer (never handed to the program): the
        # server lane holds each frame's layer spans, the client lane
        # the clients' send and decode work.
        self.tracer: Tracer | None = None
        self.client_tracer: Tracer | None = None
        if traced:
            root = Tracer(MemorySink(), wall_clock=time.perf_counter)
            self.tracer = root.fork("server")
            self.client_tracer = root.fork("clients")
        self.checker = Checker()
        self.requests: dict[str, Request] = {}
        self.waiting: list[_Pending] = []
        self.frame_ms: list[float] = []
        self.client_frames: list[int] = []
        self.bytes_received = 0
        self.wire_frames = 0
        self.updates_seen = 0
        self.txn_submitted = 0
        self.lag: list[int] = []
        self._input_credit = 0.0
        self._build()

    # -- set-up ------------------------------------------------------------------

    def _wrap(self, name: str, fn: Any) -> Any:
        """``fn`` with every call recorded as a ``name`` span when traced."""
        if self.tracer is None:
            return fn
        span, cat = self.tracer.span, name.split(".")[0]

        def timed(*args: Any, **kwargs: Any) -> Any:
            with span(name, cat):
                return fn(*args, **kwargs)

        return timed

    def _build(self) -> None:
        wl, seed = self.wl, self.seed
        size = wl.map_size
        placement = StaticGridPlacement(
            StaticGridPartitioner(AABB(0.0, 0.0, size, size), 2, 1, 2)
        )
        cluster = ClusterCoordinator(
            2, placement, schemas(), seed=seed,
            repartition_interval=REPARTITION_INTERVAL,
        )
        self.cluster = cluster
        rng = random.Random(seed * 7919 + 1)
        self.clients: list[Client] = []
        turn = 0.03
        halves: tuple[list[int], list[int]] = ([], [])
        homes = hotspot_quota(wl.clients, len(wl.hotspots))
        rng.shuffle(homes)
        for i in range(wl.clients):
            if wl.hotspots:
                cx, cy = wl.hotspots[homes[i]]
                x = cx + rng.gauss(0.0, HOTSPOT_SIGMA)
                y = cy + rng.gauss(0.0, HOTSPOT_SIGMA)
                hx, hy = cx, cy
            else:
                # Alternate halves, so each shard starts with half the
                # clients whatever the seed.
                x = hx = rng.uniform(0.0, size / 2) + (size / 2) * (i % 2)
                y = hy = rng.uniform(0.0, size)
            x = min(max(x, 0.0), size)
            y = min(max(y, 0.0), size)
            avatar = cluster.spawn(self._mover(rng, x, y, hx, hy, wl.leash,
                                               turn, gold=True))
            self.clients.append(Client(f"c{i:04d}", avatar))
            halves[x >= size / 2].append(i)
        self.gold_total = GOLD * wl.clients
        for _ in range(wl.npcs):
            x = rng.uniform(0.0, size)
            y = rng.uniform(0.0, size)
            comps = self._mover(rng, x, y, x, y, wl.leash, turn, gold=False)
            comps["Mind"] = {"hunger": rng.uniform(0.0, 100.0),
                             "mood": 50.0,
                             "appetite": rng.uniform(0.5, 3.0)}
            cluster.spawn(comps)
        cluster.add_batch_system(
            "move", MOVE_READS, self._wrap("core.kernel", move_kernel),
            writes=MOVE_WRITES, elementwise=True,
        )
        cluster.add_system(self._script_factory)
        self.avatars = {c.avatar for c in self.clients}
        # Zipf rank -> partner: the seed picks the hot accounts, while
        # ranks alternate between the two halves of the map so the share
        # of cross-shard trades does not depend on the seed.
        for half in halves:
            rng.shuffle(half)
        self.partner_rank = [
            i for pair in zip_longest(*halves) for i in pair if i is not None
        ]
        self.rng = random.Random(seed * 7919 + 2)

        self.group = DurableGroup(standbys=1)
        view = ClusterView(cluster)
        view.collect = self._wrap("gateway.collect", view.collect)
        view.fields_of = self._wrap("gateway.fields_of", view.fields_of)
        radius = wl.aoi_radius
        self.core = GatewayCore(
            view,
            GatewayConfig(default_radius=radius, max_radius=max(128.0, radius),
                          seed=seed),
            on_input=self._on_input,
        )
        core = self.core
        core.stream.begin_tick = self._wrap("gateway.interest",
                                            core.stream.begin_tick)
        core.stream.delta_for = self._wrap("gateway.delta",
                                           core.stream.delta_for)
        self.interest = core.stream.manager_for(radius)
        self.dispatcher = OutboxDispatcher(self.group.primary, self._sink,
                                           batch=256)
        self._cluster_tick = self._wrap("cluster.tick", cluster.tick)
        self._outbox_drain = self._wrap("outbox.drain", self.dispatcher.drain)
        self._gateway_tick = self._wrap("gateway.tick", core.tick)
        for client in self.clients:
            core.bind_avatar(client.name, client.avatar)
            self._connect(client)
        self._drain_clients(measured=False)
        for f in range(-WARMUP_FRAMES, 0):
            self.frame(f, measured=False)
        if self.tracer is not None:
            self.tracer.sink.clear()

    def _mover(self, rng: random.Random, x: float, y: float, hx: float,
               hy: float, leash: float, turn: float, gold: bool) -> dict:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        omega = rng.uniform(-turn, turn)
        speed = self.wl.speed
        comps = {
            "Position": {"x": x, "y": y},
            "Velocity": {"vx": speed * math.cos(angle),
                         "vy": speed * math.sin(angle)},
            "Home": {"hx": hx, "hy": hy, "leash": leash,
                     "tc": math.cos(omega), "ts": math.sin(omega)},
        }
        if gold:
            comps["Wealth"] = {"gold": GOLD}
        return comps

    def _script_factory(self) -> ScriptSystem:
        system = ScriptSystem("npc", NPC_SCRIPT)
        system.run = self._wrap("script.run", system.run)
        return system

    # -- the server host's hooks --------------------------------------------------

    def _on_input(self, session: Any, cmd: InputCommand) -> None:
        """Gateway input hook: submit the trade to the cluster."""
        key = f"{session.client}/{cmd.seq}"
        with self._span("harness.on_input", key):
            dst, amount = cmd.args["to"], cmd.args["amount"]
            src = session.avatar
            if dst not in self.avatars or dst == src:
                raise ValueError(f"bad trade partner in {cmd!r}")
            txn = self.cluster.submit(transfer_spec(src, dst, amount))
            self.waiting.append(_Pending(key, src, dst, amount, txn))
            self.txn_submitted += 1

    def _span(self, name: str, req: str | None = None,
              client: bool = False) -> Any:
        """A span on the server (or client) lane; ``req`` tags its request."""
        tracer = self.client_tracer if client else self.tracer
        if tracer is None:
            return NOOP_SPAN
        cat = name.split(".")[0]
        return tracer.span(name, cat) if req is None else (
            tracer.span(name, cat, req=req)
        )

    def _sink(self, ev: Any) -> int:
        """Outbox sink: hand one event to the gateway."""
        with self._span("gateway.publish", ev.key):
            return self.core.publish_event(
                entity=ev.entity, event=ev.event, key=ev.key,
                payload=ev.payload,
            )

    def _commit_decided(self) -> None:
        """Record every decided trade (or refusal) in a durable unit."""
        still: list[_Pending] = []
        tick = self.cluster.tick_count
        for p in self.waiting:
            outcome = self.cluster.txn_outcome(p.txn)
            if outcome is None:
                still.append(p)
                continue
            req = self.requests.get(p.key)
            if req is not None:
                req.decided = True
                req.committed = outcome

            def unit(uow: Any, p: _Pending = p, ok: bool = outcome) -> None:
                if ok:
                    a = uow.get(p.src) or {"gold": GOLD}
                    b = uow.get(p.dst) or {"gold": GOLD}
                    uow.put(p.src, {"gold": a["gold"] - p.amount})
                    uow.put(p.dst, {"gold": b["gold"] + p.amount})
                uow.emit("trade", entity=p.src, key=p.key, ok=int(ok),
                         txn=p.txn)

            with self._span("durable.commit", p.key):
                self.group.run(unit, tick=tick)
        self.waiting = still

    # -- the client side ---------------------------------------------------------

    def _connect(self, client: Client) -> None:
        transport = TimedTransport()
        client.transport = transport
        client.decoder = FrameDecoder()
        client.cid = self.core.connect(transport)
        hello = Hello(client=client.name, aoi_radius=self.wl.aoi_radius,
                      resume=client.resume)
        self.core.on_bytes(client.cid, frame(hello))
        client.connected = True

    def _disconnect(self, client: Client) -> None:
        self.core.disconnect(client.cid)
        self._detached(client)

    def _detached(self, client: Client) -> None:
        client.connected = False
        for req in client.open.values():
            req.detached = True

    def _plan_inputs(self, f: int, measured: bool,
                     leaving: list[Client]) -> list[tuple]:
        """Pick this frame's traders and encode their inputs (client side)."""
        wl, rng = self.wl, self.rng
        gone = set(map(id, leaving))
        connected = [c for c in self.clients
                     if c.connected and id(c) not in gone]
        # A fixed count per frame (rate x population, carried over), so
        # the number of commits does not vary with the seed.
        self._input_credit += wl.clients * wl.trade_rate
        n = int(self._input_credit)
        self._input_credit -= n
        plan = []
        for client in rng.sample(connected, min(n, len(connected))):
            rank = zipf_choice(rng, wl.clients, wl.partner_theta)
            partner = self.clients[self.partner_rank[rank]]
            if partner is client:
                partner = self.clients[
                    self.partner_rank[(rank + 1) % wl.clients]
                ]
            client.seq += 1
            cmd = InputCommand(client=client.name, seq=client.seq,
                               action="trade",
                               args={"to": partner.avatar, "amount": 1},
                               tick=f)
            req = Request(f"{client.name}/{client.seq}", client, measured)
            self.requests[req.key] = req
            client.open[req.key] = req
            plan.append((client, frame(cmd), req))
        return plan

    def _drain_clients(self, measured: bool) -> None:
        clock = time.perf_counter
        for client in self.clients:
            transport = client.transport
            if transport is None or not transport.chunks:
                continue
            with self._span("client.decode", client=True) as span:
                for t_sent, data in transport.take():
                    t0 = clock()
                    messages = client.decoder.feed(data)
                    ready = t_sent + (clock() - t0)
                    if measured:
                        self.bytes_received += len(data)
                        self.wire_frames += len(messages)
                    for msg in messages:
                        self._absorb(client, msg, ready, span)

    def _absorb(self, client: Client, msg: Any, ready: float,
                span: Any) -> None:
        if isinstance(msg, Delta):
            self.checker.on_delta(client.name, client.session, msg.seq)
            self.updates_seen += len(msg.updates)
        elif isinstance(msg, EventMsg):
            self.checker.on_event(client.name, msg.dedup)
            req = self.requests.get(msg.key)
            if req is None or req.client is not client:
                self.checker.fail(f"{client.name} got a stray event {msg.key}")
                return
            req.answers += 1
            req.ok = bool(msg.payload.get("ok"))
            req.latency_ms = (ready - req.t_sent) * 1e3
            client.open.pop(req.key, None)
            span.set(req=req.key)
            if self.client_tracer is not None:
                self.client_tracer.flow_finish(req.flow, "request", "request")
        elif isinstance(msg, Welcome):
            client.session = msg.session
            client.resume = msg.resume_token
        elif isinstance(msg, (Goodbye, Reject)):
            # The session is gone (eviction, refusal): reconnect fresh.
            client.resume = ""
            self._detached(client)

    # -- one frame -----------------------------------------------------------------

    def frame(self, f: int, measured: bool, inputs: bool = True) -> None:
        """One closed-loop server frame plus the clients' reads."""
        clock = time.perf_counter
        if self.tracer is not None:
            self.tracer.begin_tick(f)
            self.client_tracer.begin_tick(f)
        with self._span("client.send", client=True):
            reconnect = [c for c in self.clients if not c.connected]
            churn: list[Client] = []
            if inputs and self.wl.churn_rate:
                candidates = [c for c in self.clients if c.connected]
                churn = self.rng.sample(
                    candidates, round(len(candidates) * self.wl.churn_rate)
                )
            plan = self._plan_inputs(f, measured, churn) if inputs else []
        with self._span(FRAME):
            t_start = clock()
            for client in reconnect:
                self._ingress(self._connect, client)
            for client in churn:
                self._ingress(self._disconnect, client)
            for client, data, req in plan:
                req.t_sent = clock()
                self._ingress(self.core.on_bytes, client.cid, data, req=req)
            self._cluster_tick()
            self._commit_decided()
            self._outbox_drain()
            self._gateway_tick()
            t_end = clock()
        if measured:
            self.frame_ms.append((t_end - t_start) * 1e3)
            self.client_frames.append(
                sum(1 for c in self.clients if c.connected)
            )
            self.lag.append(self._outbox_lag())
        self._drain_clients(measured)

    def _outbox_lag(self) -> int:
        """Undispatched events: every unit of work emits exactly one."""
        return self.group.primary.outbox_seq - self.dispatcher.dispatched

    def _ingress(self, action: Any, *args: Any,
                 req: Request | None = None) -> None:
        """One client-to-gateway action (connect, disconnect, input bytes).

        An input's span starts the request's flow arrow; the client's
        decode of the answer finishes it.
        """
        with self._span("gateway.ingress", req and req.key):
            if req is not None and self.tracer is not None:
                req.flow = self.tracer.flow_start("request", "request")
            action(*args)

    # -- the whole run -------------------------------------------------------------

    def measure(self, frames: int) -> None:
        """Run the measured frames, then the drain tail and the checks."""
        self.frames = frames
        before = self._counters()
        for f in range(frames):
            self.frame(f, measured=True)
        after = self._counters()
        self.deltas = {k: after[k] - before[k] for k in after}
        for f in range(frames, frames + TAIL_FRAMES):
            self.frame(f, measured=False, inputs=False)
            if not self.waiting and self._outbox_lag() == 0:
                break  # every decided trade's answer has been delivered
        self.cluster.quiesce()
        self._commit_decided()
        self.dispatcher.drain_all()
        self.core.tick()
        self._drain_clients(measured=False)
        self._verify()

    def _verify(self) -> None:
        checker = self.checker
        try:
            self.cluster.check_invariants()
        except ClusterError as exc:
            checker.fail(f"cluster invariants: {exc}")
        if self.waiting:
            checker.fail(f"{len(self.waiting)} trades undecided after quiesce")
        cluster_gold = {}
        ledger_gold = {}
        store = self.group.primary
        for client in self.clients:
            eid = client.avatar
            world = self.cluster.shard(self.cluster.owner_of(eid)).world
            cluster_gold[eid] = world.get_field(eid, "Wealth", "gold")
            state, _version = store.read_entity(eid)
            ledger_gold[eid] = GOLD if state is None else state["gold"]
        checker.check_gold(cluster_gold, ledger_gold, self.gold_total)
        for req in self.requests.values():
            if req.answers:
                req.status = "ok" if req.ok else "refused"
            elif req.detached:
                req.status = "detached"
            else:
                req.status = "lost"
            if req.answers and req.ok != req.committed:
                checker.fail(f"request {req.key} answer disagrees with txn")
        checker.check_requests(
            list(self.requests.values()),
            gateway_inputs=self.core.stats()["inputs"],
            submitted=self.txn_submitted,
        )

    # -- results -------------------------------------------------------------------

    def measured_requests(self) -> list[Request]:
        return [r for r in self.requests.values() if r.measured]

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics of this run (setup_s is added by the caller)."""
        reqs = self.measured_requests()
        ok = [r.latency_ms for r in reqs if r.status == "ok"]
        return {
            "tick_ms_p50": percentile(self.frame_ms, 50),
            "tick_ms_p95": percentile(self.frame_ms, 95),
            "input_ms_p50": percentile(ok, 50),
            "input_ms_p95": percentile(ok, 95),
            "bytes_per_client_tick": (
                self.bytes_received / max(1, sum(self.client_frames))
            ),
            "inputs_ok_pct": 100.0 * len(ok) / max(1, len(reqs)),
        }

    def _counters(self) -> dict[str, int]:
        """Layer counters, read from outside; diffed across the measurement."""
        c = self.cluster
        gw = self.core.stats()
        store = self.group.primary
        return {
            "gateway.inputs": gw["inputs"],
            "gateway.protocol_errors": gw["protocol_errors"],
            "gateway.interest_events": self.interest.stats.churn,
            "gateway.updates_suppressed": gw["updates_suppressed"],
            "gateway.deltas_sent": gw["deltas_sent"],
            "gateway.deltas_coalesced": gw["deltas_coalesced"],
            "gateway.evictions": gw["evictions"],
            "gateway.events_dropped": gw["events_dropped"],
            "cluster.handoffs": c.migrations_done,
            "cluster.net_messages": c.net.stats()["totals"]["sent"],
            "cluster.txn_submitted": self.txn_submitted,
            "cluster.txn_committed": c.local_committed + c.cross_committed,
            "cluster.txn_aborted": c.local_aborted + c.cross_aborted,
            "cluster.txn_cross": c.cross_committed + c.cross_aborted,
            "durable.commits": store.commits,
            "durable.retries": store.conflicts,
            "durable.wal_records": store.wal.next_lsn,
            "outbox.events": self.dispatcher.dispatched,
            "client.frames": self.wire_frames,
            "client.bytes": self.bytes_received,
            "client.updates": self.updates_seen,
        }

    def counts(self) -> dict[str, int]:
        """Whole-run counts that must repeat exactly for a seed."""
        c = self.cluster
        gw = self.core.stats()
        return {
            "bytes": self.bytes_received,
            "commits": self.group.primary.commits,
            "txn_committed": c.local_committed + c.cross_committed,
            "txn_aborted": c.local_aborted + c.cross_aborted,
            "handoffs": c.migrations_done,
            "events": gw["events_published"],
            "deltas": gw["deltas_sent"],
        }

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of a traced run: mean ms per measured frame
        (self time), counts over the measured frames, and ratios."""
        frames = range(self.frames)
        spans = self.tracer.sink.spans
        selfs, total = fold(spans, frames)
        out: dict[str, float] = {}
        for span, metric in LAYER_SPANS:
            out[metric] = selfs.get(span, 0.0) * 1e3 / self.frames
        out["cluster.tick_ms"] = (
            out["cluster.self_ms"] + out["core.kernel_ms"] + out["script.run_ms"]
        )
        d = self.deltas
        for key in COUNTERS:
            out[key] = d[key]
        candidates = d["gateway.updates_suppressed"] + d["client.updates"]
        out["gateway.suppressed_ratio"] = (
            d["gateway.updates_suppressed"] / candidates if candidates else 0.0
        )
        decided = d["cluster.txn_committed"] + d["cluster.txn_aborted"]
        out["cluster.txn_commit_ratio"] = (
            d["cluster.txn_committed"] / decided if decided else 0.0
        )
        reqs = self.measured_requests()
        for status in ("refused", "detached", "lost"):
            out[f"inputs.{status}"] = sum(1 for r in reqs if r.status == status)
        out["inputs_failed_pct"] = 100.0 - self.end_to_end()["inputs_ok_pct"]
        out["outbox.lag"] = statistics.fmean(self.lag)
        out["outbox.rows"] = self.group.primary.engine.row_count("outbox")
        for span, metric in (("outbox.drain", "outbox.drain_growth"),
                             ("durable.commit", "durable.commit_growth")):
            series = per_frame_series(spans, span, frames)
            quarter = max(1, len(series) // 4)
            first = statistics.fmean(series[:quarter])
            out[metric] = (
                statistics.fmean(series[-quarter:]) / first if first else 0.0
            )
        out["harness.unattributed_pct"] = (
            100.0 * selfs.get(FRAME, 0.0) / total if total else 0.0
        )
        self.frame_total_ms = total * 1e3 / self.frames
        return out


#: (span name, metric) for every span whose self time is a layer's cost.
LAYER_SPANS = (
    ("client.send", "client.send_ms"),
    ("client.decode", "client.decode_ms"),
    ("gateway.ingress", "gateway.ingress_ms"),
    ("harness.on_input", "harness.on_input_ms"),
    ("cluster.tick", "cluster.self_ms"),
    ("core.kernel", "core.kernel_ms"),
    ("script.run", "script.run_ms"),
    ("durable.commit", "durable.commit_ms"),
    ("outbox.drain", "outbox.drain_ms"),
    ("gateway.publish", "gateway.publish_ms"),
    ("gateway.collect", "gateway.collect_ms"),
    ("gateway.interest", "gateway.interest_ms"),
    ("gateway.delta", "gateway.delta_ms"),
    ("gateway.fields_of", "gateway.fields_of_ms"),
    ("gateway.tick", "gateway.encode_flush_ms"),
)

#: Counters reported as totals over the measured frames.
COUNTERS = (
    "client.frames", "client.bytes",
    "gateway.inputs", "gateway.protocol_errors", "gateway.interest_events",
    "gateway.updates_suppressed", "gateway.deltas_sent",
    "gateway.deltas_coalesced", "gateway.evictions", "gateway.events_dropped",
    "cluster.handoffs", "cluster.net_messages", "cluster.txn_submitted",
    "cluster.txn_committed", "cluster.txn_aborted", "cluster.txn_cross",
    "durable.commits", "durable.retries", "durable.wal_records",
    "outbox.events",
)
