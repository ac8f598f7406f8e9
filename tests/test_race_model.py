"""RACE against a plain dict: the one probe-window scan, driven by hypothesis.

A four-bucket table makes every key's probe window the whole table, so
overflow past the home bucket, holes left by deletes and reuse of those
holes are the common case rather than the rare one.  Each example loads
a random subset of the keys locally, runs a random sequence of ``put`` /
``get`` / ``delete`` / ``get_batch`` through one verbs client, and checks
every result, and the table's local view at the end, against a dict that
saw the same operations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.race import RaceClient, RaceStorage, VerbsBackend
from repro.apps.race.hashing import fingerprint
from repro.cluster import Cluster
from repro.sim import Simulator
from repro.verbs import ConnectionManager, DriverContext

NUM_BUCKETS = 4
#: Keys per home bucket: the first bucket overflows into the others, and
#: the 32 keys fit the table's 32 slots, so a put never finds it full.
PER_HOME = (26, 2, 2, 2)


def _skewed_keys():
    by_home = [[] for _ in PER_HOME]
    i = 0
    while any(len(keys) < want for keys, want in zip(by_home, PER_HOME)):
        key = b"k%03d" % i
        home = fingerprint(key)[1] % NUM_BUCKETS
        if len(by_home[home]) < PER_HOME[home]:
            by_home[home].append(key)
        i += 1
    return sum(by_home, [])


KEYS = _skewed_keys()

_key = st.sampled_from(KEYS)
_op = st.one_of(
    st.tuples(st.just("put"), _key, st.binary(max_size=12)),
    st.tuples(st.just("get"), _key),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.just("get_batch"), st.lists(_key, min_size=1, max_size=6)),
)


@settings(max_examples=100, deadline=None)
@given(loaded=st.lists(st.booleans(), min_size=len(KEYS), max_size=len(KEYS)),
       ops=st.lists(_op, min_size=30, max_size=60))
def test_race_matches_a_dict(loaded, ops):
    sim = Simulator()
    cluster = Cluster(sim, num_nodes=2, memory_size=4 << 20)
    for node in cluster.nodes:
        ConnectionManager(node, DriverContext(node, kernel=True))
    storage = RaceStorage(cluster.node(1), num_buckets=NUM_BUCKETS, heap_bytes=1 << 16)
    client = RaceClient(VerbsBackend(cluster.node(0)), [storage.catalog()])
    model = {key: b"loaded" for key, load in zip(KEYS, loaded) if load}
    for key in model:
        storage.load(key, b"loaded")

    def proc():
        yield from client.setup(max_batch=6)
        for op, *args in ops:
            if op == "put":
                key, value = args
                yield from client.put(key, value)
                model[key] = value
            elif op == "get":
                assert (yield from client.get(args[0])) == model.get(args[0])
            elif op == "delete":
                assert (yield from client.delete(args[0])) == (args[0] in model)
                model.pop(args[0], None)
            else:
                found = yield from client.get_batch(args[0])
                assert found == {key: model.get(key) for key in args[0]}

    sim.run_process(proc())
    assert {key: storage.get_local(key) for key in KEYS} == {key: model.get(key) for key in KEYS}
