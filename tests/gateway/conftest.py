"""Shared builders for the gateway test suite.

Everything here is deterministic: memory transports, a fake clock, and
a tiny world with the repro Position/Velocity idiom.
"""

from repro.core import GameWorld, schema
from repro.gateway import (
    Delta,
    FrameDecoder,
    GatewayConfig,
    GatewayCore,
    Hello,
    MemoryTransport,
    WorldView,
    frame,
)
from repro.net.protocol import InputAck


class FakeClock:
    """A manually advanced clock for deterministic tick timing."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_world():
    """A world with the gateway's replicated components registered."""
    world = GameWorld(dt=1.0 / 30.0)
    world.catalog.define(schema("Position", x="float", y="float"))
    world.catalog.define(
        schema("Velocity", vx=("float", 0.0), vy=("float", 0.0))
    )
    return world


def make_core(world, config=None, **kwargs):
    """A GatewayCore over a WorldView with a fake clock."""
    clock = kwargs.pop("clock", FakeClock())
    core = GatewayCore(
        WorldView(world),
        config or GatewayConfig(),
        clock=clock,
        **kwargs,
    )
    return core


class TestClient:
    """A minimal memory-transport client against a GatewayCore."""

    __test__ = False  # not a pytest collection target

    def __init__(self, core, name, avatar=None, **hello_kwargs):
        self.core = core
        self.name = name
        if avatar is not None:
            core.bind_avatar(name, avatar)
        self.transport = MemoryTransport()
        self.decoder = FrameDecoder()
        self.cid = core.connect(self.transport)
        self.hello_kwargs = hello_kwargs
        #: entity id -> fields, as this client's deltas have built it
        self.replica = {}
        #: every InputAck this client has decoded via :meth:`sync`
        self.acks = []

    def hello(self, **overrides):
        kwargs = {**self.hello_kwargs, **overrides}
        self.send(Hello(client=self.name, **kwargs))
        return self.drain()

    def send(self, msg):
        self.core.on_bytes(self.cid, frame(msg))

    def drain(self, budget=None):
        """Read the transport like a client; returns decoded messages."""
        return self.decoder.feed(self.transport.drain(budget))

    def sync(self, budget=None):
        """Like :meth:`drain`; folds deltas into ``replica`` and keeps acks."""
        messages = self.drain(budget)
        for msg in messages:
            if isinstance(msg, InputAck):
                self.acks.append(msg)
            elif isinstance(msg, Delta):
                for eid, fields in msg.enters + msg.updates:
                    self.replica.setdefault(eid, {}).update(fields)
                for eid in msg.exits:
                    self.replica.pop(eid, None)
        return messages
