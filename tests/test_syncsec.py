"""Sync protocol: signing, wire framing, batching, retries, transports."""

import errno
import json
import socket
import struct
import threading
import time
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valencelab import syncsec
from valencelab.agent import (LocalStore, Record, SensingAgent, dedupe_store,
                              ingest_report)
from valencelab.errors import AuthError, ContractViolationError
from valencelab.expanse import (AckLedger, EligibilityRules, MemoryStore,
                                ModelRegistry, SyncServer, aggregate_entity,
                                context_features, eligibility_funnel,
                                predict_request_payload)
from valencelab.learn import ClusterModel, train
from valencelab.simworld import EVENT_KINDS, LABELS, Fault, FaultPlan
from valencelab.syncsec import (MAX_BATCH_RECORDS, MAX_FRAME_BYTES,
                                SYNC_BASE_INTERVAL_MIN, SYNC_FLOOR_MIN,
                                FaultyTransport, LoopbackTransport,
                                SignedEnvelope, SocketServer,
                                SocketTransport, SyncBatch, SyncClient,
                                canonical_json, decode_envelope,
                                derive_keypair, encode_envelope, handle_ack,
                                make_batch, next_sync_interval, public_keys,
                                sign, verify_and_scope)


def _rec(uuid, t=0.0):
    return Record(uuid=uuid, kind="report", t=t, x=0.0, y=0.0,
                  payload="neutral")


def _loaded_store(n=3) -> LocalStore:
    store = LocalStore("e001")
    for i in range(n):
        store.add_pending(_rec(f"r{i}", t=float(i)))
    return store


class EchoServer:
    """Verifies, then acks whatever batch id arrived."""

    def __init__(self, registry):
        self.registry = registry
        self.batches = []

    def receive(self, message: bytes) -> bytes:
        env, header = decode_envelope(message)
        verify_and_scope(env, self.registry)
        self.batches.append(SyncBatch.from_dict(json.loads(env.payload)))
        return canonical_json({"ok": True, "batch_id": header["batch_id"]})


# -- keys and envelopes ----------------------------------------------------------


def test_keypair_is_deterministic_per_entity():
    priv_a, pub_a = derive_keypair(7, "e001")
    _, pub_a2 = derive_keypair(7, "e001")
    _, pub_b = derive_keypair(7, "e002")
    _, pub_c = derive_keypair(8, "e001")
    assert pub_a == pub_a2
    assert len({pub_a, pub_b, pub_c}) == 3
    assert priv_a.public_key().public_bytes_raw() == pub_a


def test_sign_verify_round_trip_and_reproducibility():
    priv, pub = derive_keypair(7, "e001")
    reg = {"e001": pub}
    env = sign(priv, b"hello", "e001")
    assert verify_and_scope(env, reg) == "e001"
    assert verify_and_scope(env, reg, requested_entity="e001") == "e001"
    # default nonce is derived from the payload, so envelopes are stable
    assert sign(priv, b"hello", "e001") == env
    assert sign(priv, b"other", "e001").nonce != env.nonce


def test_tampering_is_rejected():
    priv, pub = derive_keypair(7, "e001")
    reg = public_keys(7, ["e001", "e002"])
    env = sign(priv, b'{"n":1}', "e001")
    flipped = bytes([env.payload[0] ^ 1]) + env.payload[1:]
    for bad in (
        SignedEnvelope(flipped, env.signer, env.signature, env.nonce),
        SignedEnvelope(env.payload, env.signer,
                       env.signature[:-1] + bytes([env.signature[-1] ^ 1]),
                       env.nonce),
        SignedEnvelope(env.payload, env.signer, env.signature,
                       bytes(16)),
    ):
        with pytest.raises(AuthError) as err:
            verify_and_scope(bad, reg)
        assert err.value.kind == "reject"
    # a valid signature from the wrong entity is also a reject
    with pytest.raises(AuthError) as err:
        verify_and_scope(
            SignedEnvelope(env.payload, "e002", env.signature, env.nonce),
            reg)
    assert err.value.kind == "reject"


def test_unknown_signer_and_scope_violation():
    priv, pub = derive_keypair(7, "e001")
    reg = {}
    env = sign(priv, b"x", "e001")
    with pytest.raises(AuthError) as err:
        verify_and_scope(env, reg)
    assert err.value.kind == "reject"
    reg["e001"] = pub
    with pytest.raises(AuthError) as err:
        verify_and_scope(env, reg, requested_entity="e002")
    assert err.value.kind == "scope"


def test_envelope_wire_round_trip():
    priv, _ = derive_keypair(7, "e001")
    env = sign(priv, b"payload bytes", "e001")
    data = encode_envelope(env, batch_id=42)
    back, header = decode_envelope(data)
    assert back == env
    assert header["batch_id"] == 42 and header["version"] == 1


def test_envelope_framing_errors():
    priv, _ = derive_keypair(7, "e001")
    data = encode_envelope(sign(priv, b"p", "e001"), batch_id=1)
    with pytest.raises(ContractViolationError):
        decode_envelope(data[:3])
    with pytest.raises(ContractViolationError):
        decode_envelope(data[:-5])
    with pytest.raises(ContractViolationError):
        decode_envelope(data + b"!")
    bad_version = data.replace(b'"version":1', b'"version":9')
    with pytest.raises(ContractViolationError):
        decode_envelope(bad_version)


def test_batch_payload_round_trip():
    batch = SyncBatch(batch_id=3, entity_id="e001",
                      records=(_rec("a"), _rec("b", t=2.0)), created_at=9.0)
    back = SyncBatch.from_dict(json.loads(batch.to_payload()))
    assert back == batch
    with pytest.raises(ContractViolationError):
        SyncBatch.from_dict({"kind": "predict"})


# -- batching and acks -----------------------------------------------------------


def test_make_batch_oldest_first_without_marking(monkeypatch):
    monkeypatch.setattr(syncsec, "MAX_BATCH_RECORDS", 3)
    store = _loaded_store(5)
    batch = make_batch(store, now=10.0)
    assert [r.uuid for r in batch.records] == ["r0", "r1", "r2"]
    # draining is speculative: pending is untouched until the ack lands
    assert len(store.pending) == 5
    assert store.in_flight == {"r0", "r1", "r2"}
    assert make_batch(LocalStore("e")) is None


def test_handle_ack_moves_exactly_the_batch(monkeypatch):
    monkeypatch.setattr(syncsec, "MAX_BATCH_RECORDS", 3)
    store = _loaded_store(5)
    batch = make_batch(store, now=10.0)
    assert handle_ack(store, batch, now=11.0) == 3
    assert sorted(r.uuid for r in store.pending) == ["r3", "r4"]
    assert store.ever_synced == {"r0", "r1", "r2"}
    assert not store.in_flight
    assert handle_ack(store, batch, now=12.0) == 0  # idempotent


def test_overlapping_retry_batches_cannot_double_mark():
    store = _loaded_store(2)
    first = make_batch(store, now=1.0)
    second = make_batch(store, now=2.0)     # retry reissues the same records
    assert store.in_flight == {"r0", "r1"}
    assert handle_ack(store, second, now=3.0) == 2
    assert not store.in_flight
    # the first batch's records have landed; acking it moves nothing
    assert handle_ack(store, first, now=4.0) == 0
    assert len(store.synced) == 2


def test_sync_interval_schedule():
    got = next_sync_interval(SYNC_BASE_INTERVAL_MIN, "no_connectivity")
    assert got == 7.5
    assert next_sync_interval(got, "no_connectivity") == 3.75
    for _ in range(10):
        got = next_sync_interval(got, "no_connectivity")
    assert got == 1.0                        # clamped at the floor
    assert next_sync_interval(got, "ok") == 15.0
    with pytest.raises(ContractViolationError):
        next_sync_interval(got, "partial")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["ok", "no_connectivity"]), max_size=30))
def test_sync_interval_stays_bounded(outcomes):
    got = SYNC_BASE_INTERVAL_MIN
    for outcome in outcomes:
        got = next_sync_interval(got, outcome)
        assert SYNC_FLOOR_MIN <= got <= SYNC_BASE_INTERVAL_MIN


# -- transports ------------------------------------------------------------------


def _client(server, transport=None) -> SyncClient:
    priv, _ = derive_keypair(7, "e001")
    store = _loaded_store(3)
    return SyncClient(store=store, private_key=priv,
                      transport=transport or LoopbackTransport(server))


class StaleAckServer(EchoServer):
    """Acks ok, but always names batch `answered`."""

    def __init__(self, registry, answered):
        super().__init__(registry)
        self.answered = answered

    def receive(self, message: bytes) -> bytes:
        super().receive(message)
        return canonical_json({"ok": True, "batch_id": self.answered})


@pytest.mark.parametrize("answered", [1, 99], ids=["older", "unknown"])
def test_an_ack_naming_another_batch_acks_nothing(answered):
    """A reply answers the batch just sent. An ok that names another batch,
    an older one or one never made, counts as no connectivity: the
    records stay pending and in flight until their own ack lands."""
    reg = public_keys(7, ["e001"])
    plan = FaultPlan([Fault(0.0, "e001", "drop_delivery")])
    transport = FaultyTransport(
        LoopbackTransport(StaleAckServer(reg, answered)), plan)
    transport.advance_to(1.0, "e001")
    client = _client(None, transport)
    assert client.attempt(now=1.0) == "no_connectivity"     # batch 1 lost
    assert client.attempt(now=2.0) == "no_connectivity"     # batch 2
    assert client.interval_min == 3.75
    assert [r.uuid for r in client.store.pending] == ["r0", "r1", "r2"]
    assert client.store.in_flight == {"r0", "r1", "r2"}
    assert not client.store.ever_synced
    client.transport = LoopbackTransport(EchoServer(reg))
    assert client.attempt(now=3.0) == "ok"
    assert client.store.ever_synced == {"r0", "r1", "r2"}
    assert not client.store.pending and not client.store.in_flight


class _Recording:
    """Keeps every uuid a sync message carries, whatever happens to it."""

    def __init__(self, inner):
        self.inner = inner
        self.sent: set[str] = set()

    def send(self, message: bytes, entity_id: str) -> bytes | None:
        env, _ = decode_envelope(message)
        self.sent.update(r["uuid"] for r in json.loads(env.payload)["records"])
        return self.inner.send(message, entity_id)


# what each fate of a sync attempt puts on the fault plan at its time
_FATES = {"delivered": (), "dropped": ("drop_delivery",),
          "duplicated": ("dup_delivery",), "down": ("net_down", "net_up")}
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("report"), st.integers(0, 40), st.sampled_from(LABELS)),
    st.tuples(st.just("sensor"), st.integers(0, 40), st.integers(0, 2)),
    # a sync comes at least a second after the step before it, so the
    # network a "down" sync took down is up again before the next one
    st.tuples(st.just("sync"), st.integers(1, 40), st.sampled_from(
        sorted(_FATES)))), max_size=60)


@settings(max_examples=150, deadline=None)
@given(_STEPS)
def test_one_agent_syncs_every_record_through_faults(steps):
    """In-order reports (re-clicks inside one debounce window among them),
    sensor records and sync attempts over a faulty transport. After every
    step, what is in flight is pending; once quiesced, nothing is pending
    or in flight, and the server holds exactly the agent's synced uuids,
    every uuid ever sent among them."""
    times = list(accumulate(float(dt) for _, dt, _ in steps))
    plan = FaultPlan([Fault(t + 0.5 * j, "e001", kind)
                      for (step, _, fate), t in zip(steps, times)
                      if step == "sync"
                      for j, kind in enumerate(_FATES[fate])])
    server = SyncServer(MemoryStore(), public_keys(7, ["e001"]))
    server.store.register_entity("e001")
    faulty = FaultyTransport(LoopbackTransport(server), plan)
    transport = _Recording(faulty)
    agent = SensingAgent("e001")
    client = SyncClient(store=agent.store,
                        private_key=derive_keypair(7, "e001")[0],
                        transport=transport)
    for i, ((step, _, arg), t) in enumerate(zip(steps, times)):
        if step == "report":
            ingest_report(agent, arg, t)
        elif step == "sensor":
            dedupe_store(agent.store, Record(f"s{i}", "sensor", t, float(arg),
                                             0.0, "accel"))
        else:
            faulty.advance_to(t, "e001")
            client.attempt(t)
        assert agent.store.in_flight <= {r.uuid for r in agent.store.pending}
    end = times[-1] + 1.0 if times else 0.0
    faulty.advance_to(end, "e001")
    # each leftover one-shot fault costs one more attempt at most
    for _ in range(len(steps) + 1):
        if client.attempt(end) == "idle":
            break
    assert not agent.store.pending and not agent.store.in_flight
    on_server = {r.uuid for r in server.store.events("e001")}
    assert on_server == agent.store.ever_synced
    assert transport.sent <= on_server


def test_loopback_sync_round_trip():
    server = EchoServer(public_keys(7, ["e001"]))
    client = _client(server)
    assert client.attempt(now=5.0) == "ok"
    assert client.attempt(now=6.0) == "idle"
    assert [r.uuid for r in server.batches[0].records] == ["r0", "r1", "r2"]
    assert client.store.ever_synced == {"r0", "r1", "r2"}
    assert client.interval_min == 15.0


def test_faulty_transport_outage_window():
    server = EchoServer(public_keys(7, ["e001"]))
    plan = FaultPlan([Fault(10.0, "e001", "net_down"),
                      Fault(50.0, "e001", "net_up")])
    transport = FaultyTransport(LoopbackTransport(server), plan)
    client = _client(server, transport)
    transport.advance_to(20.0, "e001")
    assert client.attempt(now=20.0) == "no_connectivity"
    assert client.interval_min == 7.5
    transport.advance_to(60.0, "e001")
    assert client.attempt(now=60.0) == "ok"
    assert client.interval_min == 15.0
    assert [o for _, o in transport.outcomes] == ["dropped", "delivered"]


def test_faulty_transport_oneshot_markers():
    server = EchoServer(public_keys(7, ["e001"]))
    plan = FaultPlan([Fault(1.0, "e001", "drop_delivery"),
                      Fault(2.0, "e001", "dup_delivery")])
    transport = FaultyTransport(LoopbackTransport(server), plan)
    client = _client(server, transport)
    transport.advance_to(5.0, "e001")
    assert client.attempt(now=5.0) == "no_connectivity"   # dropped send
    assert client.attempt(now=6.0) == "ok"                # duplicated send
    assert len(server.batches) == 2                        # same bytes twice
    assert server.batches[0] == server.batches[1]
    # duplicate delivery still acks exactly once on the client
    assert client.store.ever_synced == {"r0", "r1", "r2"}
    assert client.attempt(now=7.0) == "idle"
    kinds = [o for _, o in transport.outcomes]
    assert kinds == ["dropped", "duplicated"]


def test_faulty_transport_ignores_other_entities():
    server = EchoServer(public_keys(7, ["e001", "e002"]))
    plan = FaultPlan([Fault(0.0, "e002", "net_down")])
    transport = FaultyTransport(LoopbackTransport(server), plan)
    transport.advance_to(1.0, "e002")
    transport.advance_to(1.0, "e001")
    client = _client(server, transport)
    assert client.attempt(now=1.0) == "ok"


def test_faulty_transport_applies_each_entitys_faults_at_its_own_time():
    """Advancing one entity past another's fault times leaves that other
    entity's faults where they are until it is advanced itself."""

    class Inner:
        def send(self, message, entity_id):
            return b"ack"

    plan = FaultPlan([Fault(100.0, "e002", "net_down"),
                      Fault(750.0, "e002", "net_up"),
                      Fault(760.0, "e002", "drop_delivery")])
    transport = FaultyTransport(Inner(), plan)
    transport.advance_to(800.0, "e001")
    assert transport.send(b"a", "e001") == b"ack"
    transport.advance_to(700.0, "e002")
    assert transport.send(b"b", "e002") is None     # still down
    transport.advance_to(800.0, "e002")
    assert transport.send(b"b", "e002") is None     # its marker
    assert transport.send(b"b", "e002") == b"ack"
    assert transport.outcomes == [("e001", "delivered"), ("e002", "dropped"),
                                  ("e002", "dropped"), ("e002", "delivered")]


def test_socket_transport_matches_loopback_bytes():
    reg = public_keys(7, ["e001"])
    with SocketServer(EchoServer(reg)) as srv:
        transport = SocketTransport(srv.host, srv.port)
        client = _client(srv.handler, transport)
        assert client.attempt(now=1.0) == "ok"
        assert client.store.ever_synced == {"r0", "r1", "r2"}


def test_socket_server_reports_auth_and_internal_errors():
    reg = public_keys(7, ["e001"])

    class Boom:
        def receive(self, message):
            raise ValueError("nope")

    stranger_priv, _ = derive_keypair(99, "intruder")
    env = sign(stranger_priv, b"{}", "intruder")
    with SocketServer(EchoServer(reg)) as srv:
        reply = SocketTransport(srv.host, srv.port).send(
            encode_envelope(env, 1), "intruder")
        got = json.loads(reply)
        assert got == {"ok": False, "error": "auth", "kind": "reject"}
    with SocketServer(Boom()) as srv:
        reply = SocketTransport(srv.host, srv.port).send(
            encode_envelope(env, 1), "intruder")
        assert json.loads(reply) == {"ok": False, "error": "internal"}


def test_socket_server_answers_a_predict_without_a_model_with_bad_request():
    """A keyed, registered entity with no trained model asks for a
    prediction: a request the server cannot answer, not a server fault."""
    reg = public_keys(7, ["e001", "e002"])
    server = _predicting_server(reg)
    server.store.register_entity("e002")
    priv, _ = derive_keypair(7, "e002")
    request = encode_envelope(
        sign(priv, predict_request_payload("e002", 0.0, 0.0, 0.0), "e002"))
    with SocketServer(server) as srv:
        transport = SocketTransport(srv.host, srv.port, timeout_s=2.0)
        reply = transport.send(request, "e002")
        assert json.loads(reply) == {"ok": False, "error": "bad_request"}
        assert _client(srv.handler, transport).attempt(now=1.0) == "ok"


def test_socket_server_refuses_oversized_frame_and_keeps_serving():
    reg = public_keys(7, ["e001"])
    started = time.monotonic()
    with SocketServer(EchoServer(reg)) as srv:
        with socket.create_connection((srv.host, srv.port),
                                      timeout=2.0) as sock:
            sock.sendall(struct.pack(">I", 2 ** 32 - 1))
            # the server hangs up without waiting for a 4 GiB body
            assert sock.recv(1) == b""
        client = _client(srv.handler, SocketTransport(srv.host, srv.port,
                                                      timeout_s=2.0))
        assert client.attempt(now=1.0) == "ok"
    assert time.monotonic() - started < 5.0


def _section(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _header(**fields) -> bytes:
    header = dict({"version": 1, "entity_id": "e001", "batch_id": 1,
                   "nonce": "00"}, **fields)
    return _section(canonical_json(header)) + _section(b"{}") + _section(b"")


def _signed(payload: bytes) -> bytes:
    return encode_envelope(sign(derive_keypair(7, "e001")[0], payload,
                                "e001"), 1)


def _signed_records(records, **fields) -> bytes:
    return _signed(canonical_json(dict(
        {"kind": "sync", "batch_id": 1, "entity_id": "e001",
         "created_at": 0.0, "records": records}, **fields)))


def _signed_predict(x, y, t) -> bytes:
    return _signed(predict_request_payload("e001", x, y, t))


# an integer past the interpreter's int-string limit, written out by hand
# since json.dumps refuses it where that limit exists
_LONG_INT_PREDICT = _signed(
    b'{"entity_id":"e001","kind":"predict","t":' + b"9" * 5000
    + b',"x":0.0,"y":0.0}')


def _predicting_server(reg) -> SyncServer:
    """A cloud server holding a one-cluster model for e001."""
    store = MemoryStore()
    store.register_entity("e001")
    cluster = ClusterModel(min_cluster_size=2, min_samples=1,
                           labels=np.zeros(0, dtype=np.int64),
                           exemplars=np.zeros((1, 2)),
                           exemplar_labels=np.zeros(1, dtype=np.int64),
                           n_clusters=1)
    X = np.array([context_features(0, 1, h * 3600.0) for h in range(6)])
    models = ModelRegistry()
    models.register("e001", train("dummy", X, np.arange(6) % 3), cluster)
    return SyncServer(store, reg, models)


@pytest.mark.parametrize("body", [
    b"\x00\x01\x02garbage\xff" * 8,                       # bad framing
    _section(b"garbage") + _section(b"{}") + _section(b""),  # bad JSON
    _section(b"\x80\x81") + _section(b"{}") + _section(b""),  # not UTF-8
    _section(b'{"version":1}') + _section(b"{}") + _section(b""),  # no keys
    _section(b"[]") + _section(b"{}") + _section(b""),     # header a list
    _header(nonce="zz"),
    _header(nonce=5),
    _header(entity_id=["e001"]),
    _signed_records(5),
    _signed_records([dict(_rec("c").to_dict(), t="x")]),
    _signed_records([dict(_rec("c").to_dict(), uuid=["c"])]),
    _signed_predict(0.0, 0.0, float("inf")),
    _signed_predict(0.0, 0.0, float("nan")),
    _signed_predict(float("nan"), 0.0, 0.0),
    _signed_predict(0.0, 0.0, 10 ** 400),
    _LONG_INT_PREDICT,
    _signed(b"[" * 100_000),
    _signed_records([dict(_rec("c").to_dict(), payload="banana")]),
    _signed_records([dict(_rec("c").to_dict(), kind="weird")]),
    _signed_records([dict(_rec("c").to_dict(), t=10 ** 400)]),
    _signed_records([_rec("c").to_dict()], batch_id=[1]),
    _signed_predict("1.5", 0.0, 0.0),
    _signed_predict(0.0, 0.0, True),
], ids=["framing", "json", "utf8", "keys", "header_list", "nonce_not_hex",
        "nonce_int", "signer_list", "records_int", "record_t_str",
        "record_uuid_list", "predict_t_inf", "predict_t_nan",
        "predict_x_nan", "predict_t_past_float", "predict_t_5000_digits",
        "deep_nesting", "report_not_a_label", "record_kind_unknown",
        "record_t_past_float", "batch_id_list", "predict_x_string",
        "predict_t_bool"])
def test_socket_server_answers_garbage_with_bad_request(body):
    reg = public_keys(7, ["e001"])
    started = time.monotonic()
    with SocketServer(_predicting_server(reg)) as srv:
        transport = SocketTransport(srv.host, srv.port, timeout_s=2.0)
        reply = transport.send(body, "e001")
        assert json.loads(reply) == {"ok": False, "error": "bad_request"}
        assert srv.handler.store.total_records() == 0
        assert _client(srv.handler, transport).attempt(now=1.0) == "ok"
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize("store", [AckLedger, MemoryStore])
def test_socket_server_acks_a_lone_surrogate_uuid_once(store):
    """A JSON "\\ud800" decodes to a lone surrogate; the served ledger and
    the store ack it as any other uuid, not with "internal"."""
    message = _signed_records([dict(_rec("c").to_dict(), uuid="\ud800")])
    assert b'"uuid":"\\ud800"' in message
    with SocketServer(SyncServer(store(), public_keys(7, ["e001"]))) as srv:
        transport = SocketTransport(srv.host, srv.port, timeout_s=2.0)
        for new in (1, 0):
            reply = json.loads(transport.send(message, "e001"))
            assert reply == {"ok": True, "batch_id": 1, "new": new}


# Raw JSON text for one field: any JSON value (non-finite floats and wrong
# types included), a plausible value so that some requests pass, or text
# made to break a parser: integers past float range and past the int-string
# limit, nesting past the recursion limit, an overflowing exponent.
_RAW_JSON = st.one_of(
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=8),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                 max_leaves=6).map(json.dumps),
    st.floats().map(json.dumps),
    st.sampled_from(EVENT_KINDS + LABELS + ("e001", 2)).map(json.dumps),
    st.integers(300, 6000).map(lambda n: "9" * n),
    st.integers(1, 100_000).map(lambda n: "[" * n + "]" * n),
    st.sampled_from(["1e999", "-1e999"]),
)
_REQUESTS = {
    "sync": {"kind": "sync", "batch_id": 1, "entity_id": "e001",
             "created_at": 0.0, "records": [_rec("c").to_dict()]},
    "predict": {"kind": "predict", "entity_id": "e001", "x": 0.0, "y": 0.0,
                "t": 0.0},
}
_PATHS = {
    "sync": [(f,) for f in _REQUESTS["sync"]]
            + [("records", 0, f) for f in _REQUESTS["sync"]["records"][0]],
    "predict": [(f,) for f in _REQUESTS["predict"]],
    "header": [("version",), ("entity_id",), ("batch_id",), ("nonce",)],
}


def _with_raw(doc, raws: dict) -> bytes:
    """doc's canonical JSON with the value at each path of raws replaced by
    that raw JSON text. A path inside a replaced value is moot."""
    doc = json.loads(json.dumps(doc))
    items = sorted(raws.items(), key=lambda item: -len(item[0]))
    for i, ((*parents, last), _) in enumerate(items):
        node = doc
        for key in parents:
            node = node[key]
        node[last] = f"@{i}@"
    data = canonical_json(doc)
    for i, (_, raw) in enumerate(items):
        data = data.replace(f'"@{i}@"'.encode(), raw.encode())
    return data


def _plausible(value):
    """Raw JSON text of another value of value's own type: most requests
    with one such field still verify, parse and get an ok reply."""
    if isinstance(value, int):
        values = st.integers(-2 ** 31, 2 ** 31)
    elif isinstance(value, float):
        values = st.floats(allow_nan=False, allow_infinity=False)
    else:
        values = st.sampled_from(EVENT_KINDS + LABELS + (
            "e001", "e002", "sync", "predict")) | st.text(max_size=8)
    return values.map(json.dumps)


def _field(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _hostile_messages(draw):
    """A signed sync batch or predict with hostile JSON at up to three of
    its payload's or header's fields, or with one payload field changed to
    another value of its type, or an unsigned random frame."""
    branch = draw(st.integers(0, 4))
    if branch == 0:
        sections = st.lists(st.binary(max_size=64), min_size=3, max_size=3)
        return draw(st.binary(max_size=256)
                    | sections.map(lambda ss: b"".join(map(_section, ss))))
    kind = draw(st.sampled_from(sorted(_REQUESTS)))
    if branch <= 2:
        path = draw(st.sampled_from(_PATHS[kind]))
        raws = {("payload",) + path: draw(
            _plausible(_field(_REQUESTS[kind], path)))}
    else:
        paths = draw(st.lists(st.sampled_from(
            [("payload",) + p for p in _PATHS[kind]]
            + [("header",) + p for p in _PATHS["header"]]),
            min_size=1, max_size=3, unique=True))
        raws = {p: draw(_RAW_JSON) for p in paths}
    payload = _with_raw(_REQUESTS[kind], {p[1:]: raw for p, raw in raws.items()
                                          if p[0] == "payload"})
    env = sign(derive_keypair(7, "e001")[0], payload, "e001")
    header = _with_raw({"version": 1, "entity_id": "e001", "batch_id": 1,
                        "nonce": env.nonce.hex()},
                       {p[1:]: raw for p, raw in raws.items()
                        if p[0] == "header"})
    return b"".join(map(_section, (header, payload, env.signature)))


_KEYS = public_keys(7, ["e001"])


@settings(max_examples=400, deadline=2000)
@given(_hostile_messages())
def test_hostile_requests_get_a_reply_auth_or_bad_request(message):
    """What the socket handler would answer with "internal" never happens:
    receive replies, or raises what maps to "auth" or "bad_request"."""
    server = _predicting_server(_KEYS)
    try:
        reply = json.loads(server.receive(message))
    except (AuthError, *syncsec._BAD_REQUEST_ERRORS):
        assert server.store.total_records() == 0
        return
    assert reply["ok"] is True
    # whatever an ok sync stored, the pipeline can read
    aggregate_entity(server.store, "e001")
    eligibility_funnel(server.store, EligibilityRules())


def test_socket_server_answers_truncated_envelope_with_bad_request():
    reg = public_keys(7, ["e001"])
    priv, _ = derive_keypair(7, "e001")
    data = encode_envelope(sign(priv, b"{}", "e001"), batch_id=1)
    started = time.monotonic()
    with SocketServer(EchoServer(reg)) as srv:
        transport = SocketTransport(srv.host, srv.port, timeout_s=2.0)
        for cut in (3, len(data) - 5):
            reply = transport.send(data[:cut], "e001")
            assert json.loads(reply) == {"ok": False, "error": "bad_request"}
        assert _client(srv.handler, transport).attempt(now=1.0) == "ok"
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize("stall", [
    b"",                                        # connects, sends nothing
    struct.pack(">I", 100) + b"x" * 50,         # half a frame
], ids=["idle", "half_frame"])
def test_socket_server_hangs_up_on_a_stalled_client(monkeypatch, stall):
    monkeypatch.setattr(syncsec, "READ_DEADLINE_S", 0.5)
    reg = public_keys(7, ["e001"])
    started = time.monotonic()
    with SocketServer(EchoServer(reg)) as srv:
        with socket.create_connection((srv.host, srv.port),
                                      timeout=3.0) as stalled:
            stalled.sendall(stall)
            time.sleep(0.2)         # the server is now waiting on it
            transport = SocketTransport(srv.host, srv.port, timeout_s=3.0)
            assert _client(srv.handler, transport).attempt(now=1.0) == "ok"
            # the stalled client was hung up on, not answered
            assert stalled.recv(1) == b""
    assert time.monotonic() - started < 3.0


def test_socket_server_survives_a_failed_accept(monkeypatch):
    """An accept() that fails, as it does when the process is out of file
    descriptors, costs that attempt only: the connection is accepted on
    the next try and the server keeps answering."""
    accept = socket.socket.accept
    failures = []

    def accept_failing_once(sock):
        if not failures:
            failures.append(errno.EMFILE)
            raise OSError(errno.EMFILE, "Too many open files")
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept_failing_once)
    started = time.monotonic()
    with SocketServer(EchoServer(public_keys(7, ["e001"]))) as srv:
        transport = SocketTransport(srv.host, srv.port, timeout_s=2.0)
        assert _client(srv.handler, transport).attempt(now=1.0) == "ok"
        assert failures == [errno.EMFILE]
        reply = transport.send(b"garbage", "e001")
        assert json.loads(reply) == {"ok": False, "error": "bad_request"}
    assert time.monotonic() - started < 5.0


def test_socket_server_that_never_started_stops_promptly():
    srv = SocketServer(EchoServer({}))
    stopper = threading.Thread(target=srv.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=2.0)
    assert not stopper.is_alive()


def test_frame_cap_holds_a_full_batch_of_pipeline_records():
    store = LocalStore("e001")
    for i in range(MAX_BATCH_RECORDS + 1):
        store.add_pending(Record(uuid=f"{i:032x}", kind="text",
                                 t=1.0e6 + i, x=-122.123456789,
                                 y=37.123456789, payload="x" * 200))
    priv, _ = derive_keypair(7, "e001")
    batch = make_batch(store, now=1.0e6)
    assert len(batch.records) == MAX_BATCH_RECORDS
    message = encode_envelope(sign(priv, batch.to_payload(), "e001"),
                              batch.batch_id)
    assert len(message) <= MAX_FRAME_BYTES
    assert MAX_FRAME_BYTES < 2 ** 20


def test_client_treats_error_reply_as_no_connectivity():
    class Refuser:
        def receive(self, message):
            return canonical_json({"ok": False, "error": "auth",
                                   "kind": "reject"})

    client = _client(Refuser())
    assert client.attempt(now=1.0) == "no_connectivity"
    assert len(client.store.pending) == 3    # nothing marked, retry later
