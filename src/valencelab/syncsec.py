"""Agent-to-cloud sync protocol and signed, entity-scoped envelopes.

Client half: FIFO batch draining into a set of in-flight uuids without
premature marking, an ack that names the batch just sent, and a retry
interval that halves on missing connectivity. Wire
format: three length-prefixed sections (canonical JSON header, canonical
JSON body, raw signature); the signature covers body bytes plus nonce, so
any payload tamper invalidates it. Ed25519 keys derive deterministically
from (install seed, entity id).

The transport layer is swappable: every transport's send(message,
entity_id) returns the reply bytes, or None when nothing came back. An
in-process loopback and a real TCP socket share the same bytes, and a
fault-injecting wrapper applies scheduled drop/duplicate/outage behavior to
either.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519

from .agent.core import LocalStore, Record
from .digest import sha256
from .errors import AuthError, ContractViolationError, NotFoundError
from .simworld import FaultPlan

log = logging.getLogger(__name__)

WIRE_VERSION = 1
MAX_BATCH_RECORDS = 200         # records one sync batch carries at most
SYNC_BASE_INTERVAL_MIN = 15.0   # sync interval after a success
SYNC_FLOOR_MIN = 1.0            # retry interval never halves below this


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def parse_json(data: bytes):
    """JSON from a client. Bytes that are not UTF-8, bad JSON, an integer
    past the interpreter's digit limit and nesting too deep to parse are
    all a ContractViolationError."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ContractViolationError(f"unreadable JSON: {exc!r}") from exc


# ---------------------------------------------------------------------------
# keys and envelopes

def derive_keypair(install_seed: int, entity_id: str):
    """Deterministic per-entity Ed25519 keypair: (private key, public bytes)."""
    seed = sha256(f"{install_seed}:{entity_id}".encode())
    priv = ed25519.Ed25519PrivateKey.from_private_bytes(seed)
    pub = priv.public_key().public_bytes_raw()
    return priv, pub


def public_keys(install_seed: int, entity_ids) -> dict[str, bytes]:
    """entity_id -> raw public key bytes, as known to the cloud side."""
    return {eid: derive_keypair(install_seed, eid)[1] for eid in entity_ids}


@dataclass(frozen=True)
class SignedEnvelope:
    payload: bytes
    signer: str
    signature: bytes
    nonce: bytes


def sign(secret_key, payload: bytes, signer: str) -> SignedEnvelope:
    """Sign payload||nonce; the nonce is a payload digest so equal payloads
    stay byte-reproducible across runs."""
    nonce = sha256(b"vl-nonce" + payload)[:16]
    signature = secret_key.sign(payload + nonce)
    return SignedEnvelope(payload=bytes(payload), signer=signer,
                          signature=signature, nonce=nonce)


def verify_and_scope(envelope: SignedEnvelope, keys: dict[str, bytes],
                     requested_entity: str | None = None) -> str:
    """Return the verified signer id; any data access must be filtered to it.

    Raises AuthError("reject") for unknown keys or bad signatures and
    AuthError("scope") when the signer asks about someone else.
    """
    pub = keys.get(envelope.signer)
    if pub is None:
        raise AuthError("reject", f"unknown signer {envelope.signer!r}")
    key = ed25519.Ed25519PublicKey.from_public_bytes(pub)
    try:
        key.verify(envelope.signature, envelope.payload + envelope.nonce)
    except InvalidSignature as exc:
        raise AuthError("reject", "signature does not verify") from exc
    if requested_entity is not None and requested_entity != envelope.signer:
        raise AuthError(
            "scope",
            f"{envelope.signer} may not access {requested_entity}")
    return envelope.signer


def encode_envelope(env: SignedEnvelope, batch_id: int = 0) -> bytes:
    header = canonical_json({
        "version": WIRE_VERSION,
        "entity_id": env.signer,
        "batch_id": batch_id,
        "nonce": env.nonce.hex(),
    })
    sections = (header, env.payload, env.signature)
    return b"".join(struct.pack(">I", len(s)) + s for s in sections)


def decode_envelope(data: bytes) -> tuple[SignedEnvelope, dict]:
    sections = []
    off = 0
    for _ in range(3):
        if off + 4 > len(data):
            raise ContractViolationError("truncated envelope")
        (n,) = struct.unpack_from(">I", data, off)
        off += 4
        if off + n > len(data):
            raise ContractViolationError("truncated envelope section")
        sections.append(data[off:off + n])
        off += n
    if off != len(data):
        raise ContractViolationError("trailing bytes after envelope")
    header = parse_json(sections[0])
    if not isinstance(header, dict):
        raise ContractViolationError("envelope header is not a JSON object")
    if header.get("version") != WIRE_VERSION:
        raise ContractViolationError(f"unknown wire version {header.get('version')}")
    signer, nonce = header["entity_id"], header["nonce"]
    if not isinstance(signer, str):
        raise ContractViolationError("envelope signer is not a string")
    try:
        nonce = bytes.fromhex(nonce)
    except (TypeError, ValueError) as exc:
        raise ContractViolationError("envelope nonce is not hex") from exc
    env = SignedEnvelope(payload=bytes(sections[1]), signer=signer,
                         signature=bytes(sections[2]), nonce=nonce)
    return env, header


# ---------------------------------------------------------------------------
# batching and acks

@dataclass(frozen=True)
class SyncBatch:
    batch_id: int
    entity_id: str
    records: tuple
    created_at: float

    def to_payload(self) -> bytes:
        return canonical_json({
            "kind": "sync",
            "batch_id": self.batch_id,
            "entity_id": self.entity_id,
            "created_at": self.created_at,
            "records": [r.to_dict() for r in self.records],
        })

    @classmethod
    def from_dict(cls, d: dict) -> "SyncBatch":
        if d.get("kind") != "sync":
            raise ContractViolationError("payload is not a sync batch")
        try:
            records = tuple(Record.from_dict(r) for r in d["records"])
        except TypeError as exc:    # not a list of JSON objects
            raise ContractViolationError("malformed sync records") from exc
        # a batch that names no entity would skip the scope check
        if not (type(d["batch_id"]) is int and type(d["entity_id"]) is str
                and type(d["created_at"]) in (int, float)):
            raise ContractViolationError("sync batch field of the wrong type")
        return cls(batch_id=d["batch_id"], entity_id=d["entity_id"],
                   records=records, created_at=d["created_at"])


def make_batch(store: LocalStore, now: float = 0.0) -> SyncBatch | None:
    """Drain up to MAX_BATCH_RECORDS oldest pending records into flight;
    nothing is marked until the batch's ack arrives."""
    if not store.pending:
        return None
    oldest = sorted(store.pending,
                    key=lambda r: (r.t, r.uuid))[:MAX_BATCH_RECORDS]
    store.in_flight.update(r.uuid for r in oldest)
    return SyncBatch(batch_id=store.next_batch_id(), entity_id=store.entity_id,
                     records=tuple(oldest), created_at=now)


def handle_ack(store: LocalStore, batch: SyncBatch, now: float = 0.0) -> int:
    """Move exactly the batch's records pending -> synced and out of
    flight; idempotent."""
    uuids = [r.uuid for r in batch.records]
    store.in_flight.difference_update(uuids)
    return sum(1 for u in uuids if store.mark_synced(u, now))


def next_sync_interval(current_min: float, outcome: str) -> float:
    """The interval after `outcome`: ok resets to the base interval;
    no_connectivity halves down to the floor so the next try comes
    sooner."""
    if outcome == "ok":
        return SYNC_BASE_INTERVAL_MIN
    if outcome == "no_connectivity":
        return max(current_min / 2.0, SYNC_FLOOR_MIN)
    raise ContractViolationError(f"unknown sync outcome {outcome!r}")


# ---------------------------------------------------------------------------
# transports

class LoopbackTransport:
    """In-process delivery straight into a server's receive()."""

    def __init__(self, server):
        self.server = server

    def send(self, message: bytes, entity_id: str) -> bytes | None:
        return self.server.receive(message)


class FaultyTransport:
    """Applies a FaultPlan to an inner transport.

    net_down/net_up toggle connectivity per entity; dup_delivery and
    drop_delivery are one-shot markers consumed by that entity's next send.
    Each entity has its own fault queue: call advance_to(t, entity_id)
    before that entity sends at t, so a send sees only its own faults up
    to its own send time.
    """

    def __init__(self, inner, plan: FaultPlan | None = None):
        self.inner = inner
        self._queues: dict[str, deque] = {}
        for f in (plan or FaultPlan()).entries:
            self._queues.setdefault(f.entity_id, deque()).append(f)
        self._down: set[str] = set()
        self._oneshot: dict[str, list[str]] = {}
        self.outcomes: list[tuple[str, str]] = []

    def advance_to(self, t: float, entity_id: str) -> None:
        queue = self._queues.get(entity_id, ())
        while queue and queue[0].t <= t:
            f = queue.popleft()
            if f.kind == "net_down":
                self._down.add(f.entity_id)
            elif f.kind == "net_up":
                self._down.discard(f.entity_id)
            elif f.kind in ("dup_delivery", "drop_delivery"):
                self._oneshot.setdefault(f.entity_id, []).append(f.kind)

    def send(self, message: bytes, entity_id: str) -> bytes | None:
        if entity_id in self._down:
            self.outcomes.append((entity_id, "dropped"))
            return None
        queued = self._oneshot.get(entity_id)
        marker = queued.pop(0) if queued else None
        if marker == "drop_delivery":
            self.outcomes.append((entity_id, "dropped"))
            return None
        if marker == "dup_delivery":
            self.inner.send(message, entity_id)
        reply = self.inner.send(message, entity_id)
        self.outcomes.append(
            (entity_id, "duplicated" if marker else "delivered"))
        return reply


_FRAME = struct.Struct(">I")
# The largest frame worth reading: one full sync batch. A record's canonical
# JSON (uuid, kind, t, x, y, a short payload) runs to a few hundred bytes, so
# 4 KiB a record and 4 KiB for the envelope header, signature and batch
# fields leave an order of magnitude to spare.
MAX_FRAME_BYTES = 4096 + MAX_BATCH_RECORDS * 4096


# The socket server serves one connection at a time; a client that has not
# sent its whole frame this long after it was accepted is hung up on, so an
# idle or stalled client holds every other client back at most this long.
READ_DEADLINE_S = 2.0


def _send_framed(sock: socket.socket, data: bytes) -> None:
    sock.sendall(_FRAME.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int,
                deadline: float | None = None) -> bytes | None:
    """n bytes, or None when the peer closes first. With a deadline (a
    time.monotonic() value), a read still waiting then raises
    TimeoutError."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        if deadline is not None:
            sock.settimeout(max(deadline - time.monotonic(), 1e-3))
        k = sock.recv_into(view[got:])
        if k == 0:
            return None
        got += k
    return bytes(buf)


def _recv_framed(sock: socket.socket,
                 deadline: float | None = None) -> bytes | None:
    """One length-prefixed message, or None when the peer closes first or
    announces more than MAX_FRAME_BYTES."""
    head = _recv_exact(sock, _FRAME.size, deadline)
    if head is None:
        return None
    (n,) = _FRAME.unpack(head)
    if n > MAX_FRAME_BYTES:
        log.warning("refused a %d-byte frame", n)
        return None
    return _recv_exact(sock, n, deadline)


class SocketTransport:
    """One TCP round-trip per send; same bytes as the loopback."""

    def __init__(self, host: str, port: int, timeout_s: float = 5.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    def send(self, message: bytes, entity_id: str) -> bytes | None:
        with socket.create_connection((self.host, self.port),
                                      timeout=self.timeout_s) as sock:
            _send_framed(sock, message)
            return _recv_framed(sock)


# What a request the server cannot answer raises: bad framing, unreadable
# JSON or another broken contract, a missing key, an entity with no data or
# no trained model. A handler's own ValueError stays an "internal" error.
_BAD_REQUEST_ERRORS = (ContractViolationError, KeyError, NotFoundError)


class _FrameHandler(socketserver.BaseRequestHandler):
    """One framed request and one framed reply on an accepted connection."""

    def handle(self) -> None:
        conn, server = self.request, self.server
        # None: the client hung up, or announced an oversized frame, which
        # closes the connection unread
        try:
            msg = _recv_framed(conn, time.monotonic() + READ_DEADLINE_S)
        except OSError as exc:      # the deadline passed, or a reset
            log.info("dropped a client: %r", exc)
            return
        if msg is None:
            return
        try:
            reply = server.handler.receive(msg)
        except AuthError as exc:
            reply = canonical_json(
                {"ok": False, "error": "auth", "kind": exc.kind})
        except _BAD_REQUEST_ERRORS as exc:
            log.info("bad request: %r", exc)
            reply = canonical_json({"ok": False, "error": "bad_request"})
        except Exception as exc:  # surface, never kill the server
            log.warning("server handler failed: %s", exc)
            reply = canonical_json({"ok": False, "error": "internal"})
        try:
            conn.settimeout(READ_DEADLINE_S)
            _send_framed(conn, reply)
        except OSError as exc:      # the client went away
            log.info("could not reply: %r", exc)


class SocketServer(socketserver.TCPServer):
    """Localhost server feeding framed messages to handler.receive, one
    connection at a time on a background thread.

    A frame announcing more than MAX_FRAME_BYTES is refused: its connection
    closes before any of its body is read. A client whose frame has not
    arrived READ_DEADLINE_S after its connection was accepted, or whose
    connection fails, is treated as one that hung up. A failed accept()
    costs only that try. A malformed request, or a predict for an entity
    without data or a trained model, is answered with error "bad_request",
    a failed signature or scope check with "auth", and any other handler
    failure with "internal".
    """

    allow_reuse_address = True
    request_queue_size = 16

    def __init__(self, handler, host: str = "127.0.0.1", port: int = 0):
        self.handler = handler
        self._started = False
        super().__init__((host, port), _FrameHandler)
        self.host, self.port = self.server_address

    def start(self) -> "SocketServer":
        self._started = True
        threading.Thread(target=self.serve_forever, args=(0.1,),
                         daemon=True).start()
        return self

    def stop(self) -> None:
        # shutdown() waits for serve_forever to return, so it would block
        # forever on a server that never started serving
        if self._started:
            self.shutdown()
        self.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


# ---------------------------------------------------------------------------
# client loop

@dataclass
class SyncClient:
    """One entity's sync driver: drain, sign, send, ack, reschedule. Each
    attempt sends one batch; `interval_min` is the wait before the next."""

    store: LocalStore
    private_key: object
    transport: object
    interval_min: float = SYNC_BASE_INTERVAL_MIN

    def attempt(self, now: float) -> str:
        """Run one sync attempt; returns idle|ok|no_connectivity."""
        batch = make_batch(self.store, now)
        if batch is None:
            return "idle"
        envelope = sign(self.private_key, batch.to_payload(), batch.entity_id)
        reply = self.transport.send(
            encode_envelope(envelope, batch.batch_id), batch.entity_id)
        ack = {} if reply is None else json.loads(reply)
        # every transport answers the message it was sent, so an ack that
        # names another batch acks nothing
        outcome = ("ok" if ack.get("ok")
                   and ack.get("batch_id") == batch.batch_id
                   else "no_connectivity")
        if outcome == "ok":
            handle_ack(self.store, batch, now)
        self.interval_min = next_sync_interval(self.interval_min, outcome)
        return outcome
