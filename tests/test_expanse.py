"""Cloud side: ingestion, aggregation, funnel, features, scoped predictions."""

import functools
import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valencelab import expanse
from valencelab.agent import Record
from valencelab.errors import (AuthError, ContractViolationError,
                               EmptyDatasetError, NotFoundError)
from valencelab.expanse import (AckLedger, AnswerTable, MemoryStore,
                                SyncServer, build_dataset, context_features,
                                eligibility_funnel, feature_names_for,
                                funnel_row, handle_prediction,
                                imbalance_degree, ingest,
                                predict_request_payload)
from valencelab.learn import ClusterModel, predict_proba, train
from valencelab.learn.cluster import nearest_exemplar
from valencelab.simworld import LABELS
from valencelab.syncsec import (SignedEnvelope, SyncBatch, canonical_json,
                                derive_keypair, encode_envelope, public_keys,
                                sign)


def _report(uuid, t=0.0, x=0.0, y=0.0, label="neutral"):
    return Record(uuid=uuid, kind="report", t=t, x=x, y=y, payload=label)


def _sensor(uuid, t=0.0):
    return Record(uuid=uuid, kind="sensor", t=t, x=0.0, y=0.0, payload="still")


def _funnel(class_counts=(10, 10, 10), gender="female",
            birthdate="1990-01-01") -> dict:
    """The funnel row of one entity holding these reports per class."""
    store = MemoryStore()
    store.register_entity("e", gender=gender, birthdate=birthdate)
    for label, n in zip(LABELS, class_counts):
        for i in range(n):
            store.add("e", _report(f"{label}{i}", t=60.0 * i, label=label))
    return funnel_row(store, "e")


def _two_cluster_model() -> ClusterModel:
    return ClusterModel(min_cluster_size=2, min_samples=2,
                        labels=np.array([0, 0, 1], dtype=np.int64),
                        exemplars=np.array([[0.0, 0.0], [10.0, 10.0]]),
                        exemplar_labels=np.array([0, 1], dtype=np.int64),
                        n_clusters=2)


# -- memory store ----------------------------------------------------------------


def test_store_dedupes_by_uuid():
    store = MemoryStore()
    store.register_entity("e1")
    assert store.add("e1", _report("a")) is True
    assert store.add("e1", _report("a", t=99.0)) is False
    assert store.total_records() == 1
    assert len(store.events("e1")) == 1


def test_store_events_sorted_lazily():
    store = MemoryStore()
    store.register_entity("e1")
    store.add("e1", _report("b", t=5.0))
    store.add("e1", _report("a", t=1.0))
    assert [r.uuid for r in store.events("e1")] == ["a", "b"]
    store.add("e1", _report("c", t=0.5))
    assert [r.uuid for r in store.events("e1")] == ["c", "a", "b"]
    with pytest.raises(NotFoundError):
        store.events("ghost")
    with pytest.raises(NotFoundError):
        store.demographics("ghost")


def test_ingest_counts_only_new():
    store = MemoryStore()
    store.register_entity("e1")
    batch = SyncBatch(batch_id=1, entity_id="e1",
                      records=(_report("a"), _report("b")), created_at=0.0)
    assert ingest(store, batch) == 2
    assert ingest(store, batch) == 0
    more = SyncBatch(batch_id=2, entity_id="e1",
                     records=(_report("b"), _report("c")), created_at=1.0)
    assert ingest(store, more) == 1


# Characters a delimited bytes key could confuse: NUL; lone surrogates,
# which a JSON escape decodes to and a strict encode refuses; U+00FF, whose
# code point is the key's end byte; U+FFFF, whose UTF-8 (EF BF BF) is all
# high bytes; and other non-ASCII text of 2, 3 and 4 bytes.
_UUID_CHARS = st.sampled_from(
    ["a", "b", "\x00", "\ud800", "\udfff", "\xff", "\uffff", "\xe9",
     "\u732b", "\U0001f600"])
_UUIDS = st.one_of(
    st.lists(_UUID_CHARS, max_size=4).map("".join),     # "" included
    # up to 5,000 characters
    st.tuples(_UUID_CHARS, st.integers(100, 5000)).map(
        lambda cn: cn[0] * cn[1]),
    st.text(st.characters(exclude_categories=()), max_size=50))

# adds that take one entity's ledger through three doublings: 1 -> 8 buckets
_THREE_DOUBLINGS = 4 * expanse.BUCKET_KEYS + 1


def _assert_buckets_hold(uuid_set, uuids):
    """The buckets hold each key, end mark included, once and nothing else
    but one leading 0xFF each."""
    buckets = uuid_set._buckets
    assert len(buckets) & (len(buckets) - 1) == 0
    assert sum(map(len, buckets)) == (
        sum(len(expanse._key(u)) for u in uuids) + len(buckets))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["e1", "e2"]), _UUIDS,
                          st.booleans(),
                          st.sampled_from([0, 0, 0, 1, 30, 100])),
                max_size=30))
def test_ack_ledger_is_a_set_of_uuids(ops):
    """Adds and lookups, with filler adds between them, match a plain set
    after every add. Then fillers take each entity through three doublings
    or more, and every uuid drawn is looked up and added again."""
    ledger, reference = AckLedger(), {"e1": set(), "e2": set()}
    filler = iter(range(10 ** 9))

    def add(eid, uuid):
        assert ledger.add(eid, _sensor(uuid)) is (uuid not in reference[eid])
        reference[eid].add(uuid)
        assert uuid in ledger._uuids[eid]
        assert ledger.total_records() == sum(map(len, reference.values()))

    def look(eid, uuid):
        assert (uuid in ledger._uuids[eid]) is (uuid in reference[eid])

    for eid in reference:
        ledger.register_entity(eid)
    for eid, uuid, adding, gap in ops:
        for _ in range(gap):
            add(eid, f"fill-{next(filler)}")
        (add if adding else look)(eid, uuid)
    for eid in reference:
        for _ in range(_THREE_DOUBLINGS):
            add(eid, f"fill-{next(filler)}")
        assert len(ledger._uuids[eid]._buckets) >= 8
        _assert_buckets_hold(ledger._uuids[eid], reference[eid])
    for eid, uuid, _, _ in ops:
        look(eid, uuid)
        add(eid, uuid)


@pytest.mark.parametrize("parity", [0, 1])
def test_an_empty_bucket_splits_into_no_key(parity):
    """Uuids whose crc32s share their lowest bit leave bucket 1 - parity
    empty when the set first doubles, so that bucket is empty again when
    it splits at the next doubling: the split adds no key, "" included."""
    uuid_set, held = expanse.UuidSet(), set()
    names = (f"u{i}" for i in range(10 ** 6))
    while len(held) < _THREE_DOUBLINGS:
        uuid = next(names)
        if zlib.crc32(expanse._key(uuid)) & 1 == parity:
            assert uuid_set.add(uuid) is True
            held.add(uuid)
            if len(held) == 2 * expanse.BUCKET_KEYS:     # before the split
                assert uuid_set._buckets[1 - parity] == b"\xff"
    assert len(uuid_set._buckets) == 8
    assert len(uuid_set) == len(held)
    _assert_buckets_hold(uuid_set, held)
    assert "" not in uuid_set
    assert all(uuid in uuid_set for uuid in held)
    assert uuid_set.add("") is True
    assert "" in uuid_set


def test_funnel_row_counts_and_demographics():
    store = MemoryStore()
    store.register_entity("e1", gender="female", birthdate="1990-04-02")
    store.add("e1", _sensor("s0", t=0.0))
    store.add("e1", _report("r0", t=3600.0, label="negative"))
    store.add("e1", _report("r1", t=7200.0, label="positive"))
    store.add("e1", _report("r2", t=86400.0, label="positive"))
    row = funnel_row(store, "e1")
    assert (row["n_negative"], row["n_neutral"], row["n_positive"]) \
        == (1, 0, 2)
    assert row["n_reports"] == 3
    assert row["gender"] == "female"
    assert row["reason"] == "min_reports"      # past the demographics gate
    # either missing field fails the demographics gate
    store.register_entity("e2", gender="male")
    store.add("e2", _report("x"))
    assert funnel_row(store, "e2")["reason"] == "demographics"
    store.register_entity("e3", birthdate="1990-04-02")
    store.add("e3", _report("y"))
    assert funnel_row(store, "e3")["reason"] == "demographics"
    # no reports: no imbalance degree
    store.register_entity("e4", gender="male", birthdate="1990-04-02")
    assert math.isnan(funnel_row(store, "e4")["imbalance_degree"])


# -- imbalance -------------------------------------------------------------------


def test_imbalance_degree_closed_forms():
    assert imbalance_degree((10, 10, 10)) == pytest.approx(0.0)
    assert imbalance_degree((20, 10, 0)) == pytest.approx(40.0 * math.log(2.0))
    assert imbalance_degree((7, 7)) == pytest.approx(0.0)
    with pytest.raises(ContractViolationError):
        imbalance_degree((0, 0, 0))
    with pytest.raises(ContractViolationError):
        imbalance_degree((-1, 2, 3))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=2,
                max_size=5).filter(lambda c: sum(c) > 0))
def test_imbalance_degree_properties(counts):
    got = imbalance_degree(counts)
    assert got >= -1e-9
    perm = list(reversed(counts))
    assert imbalance_degree(perm) == pytest.approx(got)
    n, k = sum(counts), len(counts)
    if all(c * k == n for c in counts):
        assert got == pytest.approx(0.0)
    else:
        assert got > 0.0


# -- eligibility -----------------------------------------------------------------


def test_funnel_row_reason_order():
    def verdict(**kw):
        row = _funnel(**kw)
        return row["eligible"], row["reason"]

    assert verdict(gender="undisclosed") == (False, "demographics")
    assert verdict(birthdate=None) == (False, "demographics")
    assert verdict(class_counts=(2, 2, 1)) == (False, "min_reports")
    assert verdict(class_counts=(30, 0, 0)) == (False, "min_classes")
    assert verdict(class_counts=(100, 2, 0)) == (False, "imbalance")
    assert verdict() == (True, "eligible")
    # a single well-populated class pair passes the class gate
    assert verdict(class_counts=(12, 10, 0)) == (True, "eligible")


def test_eligibility_funnel_counts_and_rows():
    store = MemoryStore()
    store.register_entity("a", gender="female", birthdate="1990-01-01")
    for i in range(30):
        store.add("a", _report(f"a{i}", t=60.0 * i,
                               label=("negative", "neutral", "positive")[i % 3]))
    store.register_entity("b")                      # undisclosed
    store.add("b", _report("b0"))
    store.register_entity("c", gender="male", birthdate="1985-05-05")
    for i in range(5):
        store.add("c", _report(f"c{i}", t=60.0 * i, label="positive"))
    rows, counts = eligibility_funnel(store)
    assert counts == {"total": 3, "with_demographics": 2, "eligible": 1}
    by_id = {r["entity_id"]: r for r in rows}
    assert by_id["a"]["eligible"] and by_id["a"]["reason"] == "eligible"
    assert by_id["b"]["reason"] == "demographics"
    assert by_id["c"]["reason"] == "min_reports"
    assert by_id["a"]["n_negative"] == by_id["a"]["n_positive"] == 10
    assert by_id["a"]["imbalance_degree"] == pytest.approx(0.0)


# -- features --------------------------------------------------------------------


def test_context_features_layout():
    row = context_features(0, 2, t=6 * 3600.0)       # Monday morning
    assert row.shape == (14,)
    assert row[0] == 1.0 and row[2] == 0.0
    assert row[3] == 1.0                              # morning band
    assert row[6] == 1.0                              # Monday
    assert row[13] == 0.0                             # weekday
    sat = 5 * 86400.0 + 15 * 3600.0
    row = context_features(-1, 2, t=sat)              # noise, Sat afternoon
    assert row[2] == 1.0 and row[0] == row[1] == 0.0
    assert row[4] == 1.0                              # afternoon band
    assert row[11] == 1.0                             # Saturday
    assert row[13] == 1.0                             # weekend
    assert row.sum() == 4.0


def test_feature_names_match_layout():
    names = feature_names_for(2)
    assert len(names) == 14
    assert names[0] == "cluster_0" and names[2] == "cluster_noise"
    assert names[3:6] == ("band_morning", "band_afternoon", "band_night")
    assert names[6] == "dow_mon" and names[13] == "weekend"


# -- dataset assembly ------------------------------------------------------------


def _dataset_store():
    store = MemoryStore()
    store.register_entity("e1", gender="female", birthdate="1991-01-01")
    store.add("e1", _report("r0", t=0.0, x=0.1, y=0.0, label="negative"))
    store.add("e1", _report("r1", t=3600.0, x=-0.1, y=0.2, label="neutral"))
    store.add("e1", _report("r2", t=7200.0, x=9.8, y=10.1, label="positive"))
    return store


def test_build_dataset_reuses_fitted_labels():
    store = _dataset_store()
    model = _two_cluster_model()
    model.labels = np.array([0, -1, 1], dtype=np.int64)  # one noise row
    ds = build_dataset(store, "e1", model)
    assert ds.X.shape == (3, 14)
    assert list(ds.y) == [0, 1, 2]
    assert ds.X[1][2] == 1.0                         # noise bucket preserved
    assert ds.feature_names == feature_names_for(2)


def test_build_dataset_rejects_label_count_mismatch():
    store = _dataset_store()
    store.add("e1", _report("r3", t=9000.0, x=10.2, y=9.9, label="positive"))
    with pytest.raises(ContractViolationError):
        build_dataset(store, "e1", _two_cluster_model())  # 3 labels, 4 rows


def test_build_dataset_drops_non_finite_rows():
    store = _dataset_store()
    store.add("e1", _report("bad", t=9000.0, x=float("nan"), label="positive"))
    model = _two_cluster_model()
    model.labels = np.array([0, 0, 1, -1], dtype=np.int64)
    ds = build_dataset(store, "e1", model)
    assert ds.X.shape[0] == 3
    empty = MemoryStore()
    empty.register_entity("e2")
    with pytest.raises(EmptyDatasetError):
        build_dataset(empty, "e2", _two_cluster_model())
    only_bad = MemoryStore()
    only_bad.register_entity("e3")
    only_bad.add("e3", _report("n0", t=float("inf")))
    model = _two_cluster_model()
    model.labels = np.array([0], dtype=np.int64)
    with pytest.raises(EmptyDatasetError):
        build_dataset(only_bad, "e3", model)


# -- prediction service ----------------------------------------------------------


def _trained_service():
    store = _dataset_store()
    cluster = _two_cluster_model()
    ds = build_dataset(store, "e1", cluster)
    rng = np.random.default_rng(0)
    X = np.vstack([ds.X] * 8 + [rng.normal(size=(4, 14))])
    y = np.concatenate([np.tile(ds.y, 8), np.array([0, 1, 2, 0])])
    model = train("logreg", X, y, n_classes=3)
    registry = AnswerTable()
    registry.fill("e1", model, cluster)
    keys = public_keys(7, ["e1", "e2"])
    return store, registry, keys


def _predict(env, store, registry, keys):
    return handle_prediction(env, json.loads(env.payload), store, registry,
                             keys)


def test_answer_table_unknown_entity():
    with pytest.raises(NotFoundError):
        AnswerTable().answer("nobody", 0.0, 0.0, 0.0)


def test_prediction_is_scoped_to_signer():
    store, registry, keys = _trained_service()
    priv, _ = derive_keypair(7, "e1")
    env = sign(priv, predict_request_payload("e1", 0.0, 0.0, 6 * 3600.0), "e1")
    label, probs = _predict(env, store, registry, keys)
    assert label in ("negative", "neutral", "positive")
    assert len(probs) == 3
    assert sum(probs) == pytest.approx(1.0)
    # asking about someone else fails even with a valid signature
    env = sign(priv, predict_request_payload("e2", 0.0, 0.0, 0.0), "e1")
    with pytest.raises(AuthError) as err:
        _predict(env, store, registry, keys)
    assert err.value.kind == "scope"


def test_prediction_rejects_bad_requests():
    store, registry, keys = _trained_service()
    priv2, pub2 = derive_keypair(7, "e2")
    env = sign(priv2, predict_request_payload("e2", 0.0, 0.0, 0.0), "e2")
    with pytest.raises(NotFoundError):                # no data for e2
        _predict(env, store, registry, keys)
    priv, _ = derive_keypair(7, "e1")
    not_predict = sign(priv, b'{"kind":"sync"}', "e1")
    with pytest.raises(ContractViolationError):
        _predict(not_predict, store, registry, keys)


# -- answer table ----------------------------------------------------------------


def _no_cluster_model() -> ClusterModel:
    """Every location is noise."""
    return ClusterModel(min_cluster_size=2, min_samples=2,
                        labels=np.zeros(0, dtype=np.int64),
                        exemplars=np.zeros((0, 2)),
                        exemplar_labels=np.zeros(0, dtype=np.int64),
                        n_clusters=0)


_CLUSTERS = {"e1": _two_cluster_model(), "e2": _no_cluster_model()}


@functools.cache
def _answer_models(kind: str) -> dict:
    """A model per entity, trained on every context cell."""
    models = {}
    for i, (eid, cluster) in enumerate(_CLUSTERS.items()):
        X = np.array([context_features(c, cluster.n_clusters,
                                       d * 86400.0 + h * 3600.0)
                      for c in range(-1, cluster.n_clusters)
                      for d in range(7) for h in (8.0, 16.0, 23.0)])
        y = np.random.default_rng(i).integers(0, 3, size=len(X))
        y[:3] = (0, 1, 2)
        models[eid] = train(kind, X, y, seed=i)
    return models


@functools.cache
def _answering_server(kind: str) -> SyncServer:
    """One server per kind that every example of a property asks, its
    table read back from the JSON that `learn` writes."""
    store = MemoryStore()
    table = AnswerTable()
    for eid, cluster in _CLUSTERS.items():
        store.register_entity(eid)
        table.fill(eid, _answer_models(kind)[eid], cluster)
    table = AnswerTable.from_dict(json.loads(json.dumps(table.to_dict())))
    return SyncServer(store, public_keys(7, list(_CLUSTERS)), table)


def _ask(server, entity_id, x, y, t) -> bytes:
    env = sign(derive_keypair(7, entity_id)[0],
               predict_request_payload(entity_id, x, y, t), entity_id)
    return server.receive(encode_envelope(env))


_COORDS = st.floats(allow_nan=False, allow_infinity=False)
_TIMES = st.one_of(_COORDS, st.floats(-30 * 86400.0, 0.0),
                   st.floats(9e299, 1.1e300), st.floats(-1.1e300, -9e299))


@pytest.mark.parametrize("kind", ["logreg", "gbt", "mlp"])
@settings(max_examples=80, deadline=None)
@given(entity=st.sampled_from(sorted(_CLUSTERS)), x=_COORDS, y=_COORDS,
       t=_TIMES, weeks=st.integers(-2, 2))
def test_answer_table_replies_as_a_fresh_registry(kind, entity, x, y, t,
                                                  weeks):
    """The table's reply is the model's own one-row prediction for the
    request's context, at t and at whole weeks from it."""
    server = _answering_server(kind)
    cluster = _CLUSTERS[entity]
    for moment in (t, t + weeks * 7 * 86400.0):
        label = int(cluster.assign(np.array([[x, y]]))[0])
        probs = predict_proba(_answer_models(kind)[entity], context_features(
            label, cluster.n_clusters, moment))
        assert _ask(server, entity, x, y, moment) == canonical_json(
            {"ok": True, "entity_id": entity,
             "class": LABELS[int(np.argmax(probs))],
             "probs": [float(p) for p in probs]})


def test_answer_table_predicts_once_per_cell_and_verifies_every_request(
        monkeypatch):
    """Each predict is verified, but each cell is predicted once, when the
    table is filled. Both go through the module's globals, where a tracer
    wraps them."""
    calls = {"verify_and_scope": 0, "predict_proba": 0}

    def counting(name):
        fn = getattr(expanse, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(expanse, name, counting(name))
    store, table, keys = _trained_service()
    assert calls == {"verify_and_scope": 0, "predict_proba": 3 * 21}
    server = SyncServer(store, keys, table)
    # one Monday-night cell per cluster, then a Tuesday-morning one
    moments = [0.0, 3600.0, 7 * 86400.0, 86400.0 + 8 * 3600.0]
    replies = [_ask(server, "e1", x, x, t)
               for x in (0.0, 10.0) for t in moments]
    assert calls == {"verify_and_scope": 8, "predict_proba": 3 * 21}
    assert replies[0] == replies[1] == replies[2]
    assert replies[4] == replies[5] == replies[6]


@pytest.mark.parametrize("bad", [
    {"exemplar_labels": [0, 2]},            # no cells for cluster 2
    {"exemplar_labels": [0]},               # one label for two exemplars
    {"exemplars": [[0.0, 0.0], [math.nan, 0.0]]},
    {"exemplars": [[0.0, 0.0], [1.0]]},
    {"answers": []},
    {"answers": "x"},
    {"probs": []},                          # the first cell's
    {"probs": [math.nan, 1.0, 2.0, 3.0]},
    {"probs": [0.25, 0.25, 0.25, 0.25]},
    {"cell": ["positive", [-1.0, 0.0, 2.0]]},     # sums to 1
    {"cell": ["positive", [0.2, 0.2, 0.5]]},
    {"cell": ["neutral", [0.2, 0.3, 0.5]]},
    {"cell": ["positive", [0.4, 0.2, 0.4]]},      # np.argmax takes the first
], ids=["label-past-clusters", "label-count", "exemplar-nan",
        "exemplar-one-coordinate", "no-answers", "answers-a-string",
        "probs-empty", "probs-nan", "probs-four", "probs-negative",
        "probs-sum", "label-not-argmax", "label-at-a-later-tie"])
def test_answer_table_refuses_answers_that_do_not_fit(bad):
    _, table, _ = _trained_service()
    doc = table.to_dict()
    first = doc["entities"]["e1"]["answers"][0]
    if "probs" in bad or "cell" in bad:
        # served as is, a NaN would make a reply that is not JSON, and a
        # negative or mislabelled cell an answer fill never gives
        first[:] = bad.get("cell") or [first[0], bad["probs"]]
        refusal = ContractViolationError
    else:
        doc["entities"]["e1"].update(bad)
        refusal = (ContractViolationError, ValueError)
    with pytest.raises(refusal):
        AnswerTable.from_dict(json.loads(json.dumps(doc)))
    doc["entities"]["e1"] = table.to_dict()["entities"]["e1"]
    doc["entities"]["e1"]["answers"][0][0] = "elated"
    with pytest.raises(ContractViolationError):
        AnswerTable.from_dict(doc)


# Coordinates that round, tie and overflow: any finite float; small
# integers, so that exemplars tie; and magnitudes past 1e154, whose squares
# overflow.
_ANY = st.floats(allow_nan=False, allow_infinity=False)
_PLACES = st.one_of(_ANY, st.integers(-3, 3).map(float),
                    st.floats(1e154, 1.7e308), st.floats(-1.7e308, -1e154))


@settings(max_examples=400, deadline=None)
@given(point=st.tuples(_PLACES, _PLACES),
       exemplars=st.lists(st.tuples(_PLACES, _PLACES), min_size=1,
                          max_size=6),
       repeat=st.integers(0, 5), data=st.data())
def test_nearest_exemplar_is_cluster_assign(point, exemplars, repeat, data):
    """The serving path's plain-Python assignment equals the model's, ties
    (a repeated exemplar under another label) and far points included."""
    exemplars.append(exemplars[repeat % len(exemplars)])
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(exemplars),
                                max_size=len(exemplars)))
    model = ClusterModel(min_cluster_size=2, min_samples=1,
                         labels=np.zeros(0, dtype=np.int64),
                         exemplars=np.array(exemplars),
                         exemplar_labels=np.array(labels), n_clusters=4)
    got = nearest_exemplar(*point, exemplars, labels)
    assert got == model.assign(np.array([point]))[0]
    assert nearest_exemplar(*point, [], []) == -1


def test_sync_server_receive_paths():
    store, registry, keys = _trained_service()
    server = SyncServer(store, keys, registry)
    # sync: a new entity is registered on first contact, dedupe on replay
    agent_store_records = (_report("n0", t=1.0), _report("n1", t=2.0))
    batch = SyncBatch(batch_id=1, entity_id="e2",
                      records=agent_store_records, created_at=2.0)
    priv2, _ = derive_keypair(7, "e2")
    env = sign(priv2, batch.to_payload(), "e2")
    import json
    ack = json.loads(server.receive(encode_envelope(env, batch.batch_id)))
    assert ack == {"ok": True, "batch_id": 1, "new": 2}
    ack = json.loads(server.receive(encode_envelope(env, batch.batch_id)))
    assert ack["new"] == 0
    # sync for someone else is a scope violation
    priv1, _ = derive_keypair(7, "e1")
    forged = sign(priv1, batch.to_payload(), "e1")
    with pytest.raises(AuthError):
        server.receive(encode_envelope(forged, batch.batch_id))
    # predict round trip over the same entry point
    env = sign(priv1, predict_request_payload("e1", 10.0, 10.0, 0.0), "e1")
    reply = json.loads(server.receive(encode_envelope(env, 0)))
    assert reply["ok"] and reply["entity_id"] == "e1"
    assert reply["class"] in ("negative", "neutral", "positive")
    # unknown kinds are contract violations, not auth failures
    junk = sign(priv1, b'{"kind":"gossip"}', "e1")
    with pytest.raises(ContractViolationError):
        server.receive(encode_envelope(junk, 0))


def test_sync_server_keeps_each_entitys_uuids_apart():
    """A uuid one entity sends does not suppress another's record."""
    store = MemoryStore()
    server = SyncServer(store, public_keys(7, ["e000", "e001"]))

    def sync(entity_id, record):
        batch = SyncBatch(batch_id=1, entity_id=entity_id, records=(record,),
                          created_at=0.0)
        env = sign(derive_keypair(7, entity_id)[0], batch.to_payload(),
                   entity_id)
        return json.loads(server.receive(encode_envelope(env, 1)))

    assert sync("e000", _report("e001:r00000"))["new"] == 1
    assert sync("e001", _report("e001:r00000", t=5.0)) == {
        "ok": True, "batch_id": 1, "new": 1}
    assert [r.t for r in store.events("e001")] == [5.0]
    assert store.total_records() == 2


def test_sync_server_rejects_a_payload_that_is_not_an_object():
    store, registry, keys = _trained_service()
    server = SyncServer(store, keys, registry)
    priv, _ = derive_keypair(7, "e1")

    def sync_body(records, entity_id="e1"):
        return canonical_json({"kind": "sync", "batch_id": 1,
                               "entity_id": entity_id, "created_at": 0.0,
                               "records": records})

    records_5 = sync_body(5)
    record = _report("c").to_dict()
    envelopes = [sign(priv, body, "e1") for body in (
        b"[]", b'"sync"', b"3", records_5,
        sync_body([dict(record, t="x")]),
        sync_body([dict(record, uuid=["c"])]),
        sync_body([dict(record, x=True)]),
        sync_body([record], entity_id=None),
        predict_request_payload("e1", "abc", 0.0, 0.0),
        predict_request_payload("e1", [1], 0.0, 0.0))]
    # the batch is parsed before its signature is checked
    envelopes.append(SignedEnvelope(records_5, "e1", b"\0" * 64, b"\0" * 16))
    for env in envelopes:
        with pytest.raises(ContractViolationError):
            server.receive(encode_envelope(env, 0))
    # nothing was stored: the entity's log and the entity ids still sort
    assert len(store.events("e1")) == len(_dataset_store().events("e1"))
    assert store.entity_ids() == _dataset_store().entity_ids()
