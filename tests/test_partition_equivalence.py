"""Cross-partition equivalence: P partitions compute the same run as one.

The partitioned engine's headline risk is *silent divergence* — a run
that completes without error but whose completion times depend on the
partition count or execution mode.  This suite pins the equivalence
claim from every side:

* hypothesis properties over random seeded topologies/workloads:
  ``partitions=2`` and ``partitions=4`` produce the same workload digest
  (every op's completion time and outcome) as ``partitions=1``;
* the ``mp`` execution mode agrees with ``inline``;
* fault plans perturb the digest identically at every P;
* committed replayable baselines under ``tests/schedules/cluster_scale/``
  (shrunk hypothesis failures land there too, see ``_save_divergence``).

The digest is :func:`repro.cluster.scale.digest_records` — SHA-256 over
every op's ``(src, tenant, op, server, issue_ns, complete_ns, cached)``
record in canonical order.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.scale import ScaleSpec, run_scale

SCHEDULES = Path(__file__).parent / "schedules" / "cluster_scale"


def _save_divergence(name, spec, partitions, detail):
    """Persist a failing spec as a replayable schedule.

    Hypothesis replays the minimal example last while reporting, so the
    file left on disk after a failed run is the *shrunk* reproducer;
    commit it to make the divergence a permanent regression test (the
    replay loop below picks up every ``*.json`` in the directory).
    """
    SCHEDULES.mkdir(parents=True, exist_ok=True)
    path = SCHEDULES / f"{name}.json"
    payload = {
        "version": 1,
        "spec": spec.to_dict(),
        "partitions": partitions,
        "expect": "all partition counts yield identical digests",
        "detail": detail,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def _assert_equivalent(spec, partition_counts, mode="inline", name="divergence"):
    base = run_scale(spec, partitions=1)
    expected = spec.racks * spec.nodes_per_rack * spec.tenants_per_node \
        * spec.ops_per_tenant
    assert base.completed == base.issued == expected
    for partitions in partition_counts:
        other = run_scale(spec, partitions=partitions, mode=mode)
        if other.digest() != base.digest():
            path = _save_divergence(
                f"{name}_p{partitions}", spec, partitions,
                f"P={partitions} ({mode}) digest {other.digest()[:16]} != "
                f"P=1 digest {base.digest()[:16]}",
            )
            raise AssertionError(
                f"P={partitions} ({mode}) diverged from P=1 on {spec!r}; "
                f"shrunk reproducer saved to {path}"
            )
        # The window sequence is a function of the global event set, so
        # it too is partition-count-invariant.
        assert other.windows == base.windows
        assert other.issued == base.issued
        assert other.served == base.served
    return base


# -- hypothesis properties ---------------------------------------------------

specs = st.builds(
    ScaleSpec,
    racks=st.integers(min_value=4, max_value=6),
    nodes_per_rack=st.integers(min_value=1, max_value=3),
    tenants_per_node=st.integers(min_value=1, max_value=2),
    ops_per_tenant=st.integers(min_value=2, max_value=6),
    mean_think_ns=st.integers(min_value=1_000, max_value=20_000),
    cross_rack_frac=st.floats(min_value=0.0, max_value=1.0),
    cached_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs)
def test_partitioned_runs_match_single_partition(spec):
    _assert_equivalent(spec, (2, 4))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=specs,
    faults=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),      # node
            st.integers(min_value=0, max_value=50_000),  # at_ns
            st.integers(min_value=1_000, max_value=80_000),  # duration
            st.sampled_from([2.0, 5.0, 10.0]),           # mult
        ),
        max_size=3,
    ),
)
def test_fault_plans_perturb_every_partition_count_identically(spec, faults):
    faulted = ScaleSpec.from_dict({**spec.to_dict(), "faults": faults})
    _assert_equivalent(faulted, (2, 4), name="divergence_faulted")


# -- fixed-point checks ------------------------------------------------------

SMALL = dict(racks=4, nodes_per_rack=3, tenants_per_node=2, ops_per_tenant=10,
             mean_think_ns=6_000, seed=13)


def test_mp_mode_matches_inline():
    spec = ScaleSpec(**SMALL)
    inline = run_scale(spec, partitions=2)
    mp = run_scale(spec, partitions=2, mode="mp")
    assert mp.digest() == inline.digest()
    assert mp.windows == inline.windows
    assert mp.events_dispatched == inline.events_dispatched
    assert mp.cross_messages == inline.cross_messages


def test_mp_mode_matches_at_four_partitions():
    spec = ScaleSpec(**SMALL)
    base = run_scale(spec, partitions=1)
    mp = run_scale(spec, partitions=4, mode="mp")
    assert mp.digest() == base.digest()


def test_faulted_run_differs_from_clean_but_not_across_partitions():
    clean = ScaleSpec(**SMALL)
    faulted = ScaleSpec(faults=[(2, 10_000, 60_000, 10.0)], **SMALL)
    clean_digest = run_scale(clean, partitions=1).digest()
    base = _assert_equivalent(faulted, (2, 4), name="divergence_fault_fixed")
    assert base.digest() != clean_digest, (
        "the fault window had no effect — it cannot exercise equivalence"
    )
    assert base.mean_latency_ns() > run_scale(clean, partitions=1).mean_latency_ns()


def test_single_node_racks_are_partitionable():
    spec = ScaleSpec(racks=6, nodes_per_rack=1, tenants_per_node=1,
                     ops_per_tenant=4, mean_think_ns=3_000, seed=5)
    _assert_equivalent(spec, (2, 3, 6), name="divergence_single_node")


def test_partition_counts_that_do_not_divide_racks():
    spec = ScaleSpec(racks=5, nodes_per_rack=2, tenants_per_node=1,
                     ops_per_tenant=4, mean_think_ns=4_000, seed=9)
    _assert_equivalent(spec, (2, 3, 4), name="divergence_uneven")


# -- committed replayable baselines ------------------------------------------

def _baseline_paths():
    if not SCHEDULES.is_dir():
        return []
    return sorted(p for p in SCHEDULES.glob("*.json"))


def test_committed_baselines_exist():
    names = [p.name for p in _baseline_paths()]
    assert "small_clean.json" in names, "committed equivalence baseline missing"


@pytest.mark.parametrize("path", _baseline_paths(), ids=lambda p: p.name)
def test_committed_baselines_replay(path):
    payload = json.loads(path.read_text())
    spec = ScaleSpec.from_dict(payload["spec"])
    counts = [p for p in payload["partitions"] if p != 1]
    base = _assert_equivalent(spec, counts, name=f"replay_{path.stem}")
    expected = payload.get("digest")
    if expected is not None:
        assert base.digest() == expected, (
            f"{path.name}: digest drifted from the committed baseline — "
            "the model's timing changed; re-baseline deliberately if intended"
        )
