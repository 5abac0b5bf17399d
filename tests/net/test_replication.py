"""Client replication end to end through the gateway: state updates,
interest scoping, and authoritative input acks over memory transports."""

from repro.gateway import GatewayConfig, Reject
from repro.net.protocol import InputAck, InputCommand

from tests.gateway.conftest import TestClient, make_core, make_world


def make_rig(radius=16.0, on_input=None):
    world = make_world()
    core = make_core(
        world, GatewayConfig(default_radius=radius), on_input=on_input
    )
    return world, core


def connect(core, world, name="c1", x=0.0, y=0.0):
    avatar = world.spawn(Position={"x": x, "y": y})
    client = TestClient(core, name, avatar=avatar)
    client.hello()
    return client, avatar


def pump(world, core, clients, ticks=1):
    for _ in range(ticks):
        world.tick()
        core.tick()
        for c in clients:
            c.sync()


class TestStateReplication:
    def test_strong_update_reaches_client(self):
        world, core = make_rig()
        other = world.spawn(Position={"x": 5.0, "y": 5.0})
        client, _ = connect(core, world)
        pump(world, core, [client])
        world.set(other, "Position", x=7.0)
        pump(world, core, [client])
        assert client.replica[other]["x"] == 7.0

    def test_duplicate_client_rejected(self):
        world, core = make_rig()
        _, avatar = connect(core, world)
        twin = TestClient(core, "c1", avatar=avatar)
        (reply,) = twin.hello()
        assert isinstance(reply, Reject)
        assert "already connected" in reply.reason


class TestInterestScoping:
    def test_far_entity_invisible(self):
        world, core = make_rig(radius=20.0)
        near = world.spawn(Position={"x": 5.0, "y": 0.0})
        far = world.spawn(Position={"x": 500.0, "y": 0.0})
        client, _ = connect(core, world)
        pump(world, core, [client], ticks=3)
        assert near in client.replica
        assert far not in client.replica

    def test_enter_exit_lifecycle(self):
        world, core = make_rig(radius=20.0)
        walker = world.spawn(Position={"x": 100.0, "y": 0.0})
        client, _ = connect(core, world)
        pump(world, core, [client], ticks=2)
        assert walker not in client.replica
        world.set(walker, "Position", x=10.0)
        pump(world, core, [client])
        assert client.replica[walker]["x"] == 10.0
        world.set(walker, "Position", x=300.0)
        pump(world, core, [client])
        assert walker not in client.replica

    def test_updates_not_sent_to_uninterested(self):
        world, core = make_rig(radius=20.0)
        mover = world.spawn(Position={"x": 0.0, "y": 0.0})
        near, _ = connect(core, world, "near", x=5.0)
        far, _ = connect(core, world, "far", x=500.0)
        pump(world, core, [near, far])
        far_bytes = far.transport.bytes_sent
        for t in range(1, 11):
            world.set(mover, "Position", x=float(t))
            pump(world, core, [near, far])
        assert near.replica[mover]["x"] == 10.0
        assert mover not in far.replica
        assert far.transport.bytes_sent == far_bytes


class TestPredictionReconciliation:
    """The gateway acks each input with the authoritative result."""

    def _move_rig(self):
        def on_input(session, cmd):
            if cmd.action != "move":
                return InputAck(cmd.seq, False, {}, world.clock.tick)
            pos = world.get(session.avatar, "Position")
            world.set(session.avatar, "Position",
                      x=pos["x"] + cmd.args["dx"], y=pos["y"] + cmd.args["dy"])
            return InputAck(cmd.seq, True, world.get(session.avatar, "Position"),
                            world.clock.tick)

        world, core = make_rig(on_input=on_input)
        client, avatar = connect(core, world)
        return world, core, client, avatar

    def test_ack_converges_to_authoritative(self):
        world, core, client, avatar = self._move_rig()
        client.send(InputCommand("c1", 1, "move", {"dx": 2.0, "dy": 0.0}))
        pump(world, core, [client])
        assert world.get_field(avatar, "Position", "x") == 2.0
        (ack,) = client.acks
        assert ack.accepted and ack.authoritative["x"] == 2.0
        assert client.replica[avatar]["x"] == 2.0

    def test_rejected_input_acked(self):
        world, core, client, avatar = self._move_rig()
        client.send(InputCommand("c1", 7, "fly", {"up": 1.0}))
        pump(world, core, [client])
        (ack,) = client.acks
        assert (ack.seq, ack.accepted) == (7, False)
        assert world.get_field(avatar, "Position", "x") == 0.0
