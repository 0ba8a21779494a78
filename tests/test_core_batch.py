"""Batch engine tier: coverage routing, slab grouping, fidelity gates.

The vectorized :class:`~repro.core.batch.BatchEngine` is only allowed to
exist because of the contracts pinned here: permutation-pattern injection
is bit-identical to the scalar :class:`~repro.core.engine.FastEngine`,
every other metric stays inside the tolerances declared in
:mod:`repro.analysis.equivalence`, and points the vectorized model does
not cover fall back to the scalar engine with scalar-identical results.
"""

import pytest

from repro.analysis.equivalence import (
    bit_identity_fingerprint,
    compare_runs,
)
from repro.core.batch import (
    BATCH_KERNEL_VERSION,
    BatchEngine,
    coverage_gap,
    slab_key,
)
from repro.core.config import ERapidConfig
from repro.core.policies import POLICIES
from repro.metrics.collector import MeasurementPlan
from repro.network.topology import ERapidTopology
from repro.perf.executor import RunTask, run_sweep_batched
from repro.traffic.workload import WorkloadSpec

PLAN = MeasurementPlan(warmup=500, measure=1000, drain_limit=2000)


def make_config(policy="P-B", boards=4, nodes=4):
    return ERapidConfig(
        topology=ERapidTopology(boards=boards, nodes_per_board=nodes),
        policy=POLICIES[policy],
    )


def grid_tasks(patterns=("complement", "uniform"), loads=(0.2, 0.6)):
    tasks = []
    for pattern in patterns:
        for policy in ("NP-NB", "P-NB", "NP-B", "P-B"):
            for load in loads:
                tasks.append(
                    RunTask(
                        make_config(policy),
                        WorkloadSpec(pattern=pattern, load=load, seed=1),
                        PLAN,
                    )
                )
    return tasks


# ----------------------------------------------------------------------
# Coverage
# ----------------------------------------------------------------------
def test_coverage_gap_accepts_the_paper_grid():
    for pattern in ("uniform", "complement", "butterfly", "perfect_shuffle"):
        workload = WorkloadSpec(pattern=pattern, load=0.5, seed=1)
        assert coverage_gap(make_config(), workload, PLAN) is None, pattern


def test_coverage_gap_reasons_stay_accurate():
    config = make_config()
    poisson = WorkloadSpec(pattern="complement", load=0.5, process="poisson")
    assert "not vectorized" in coverage_gap(config, poisson, PLAN)

    hotspot = WorkloadSpec(pattern="hotspot", load=0.5)
    assert "neither uniform nor a permutation" in coverage_gap(
        config, hotspot, PLAN
    )

    fractional = MeasurementPlan(warmup=500.5, measure=1000, drain_limit=2000)
    ok = WorkloadSpec(pattern="complement", load=0.5)
    assert "integer cycle grid" in coverage_gap(config, ok, fractional)


def capped_config(cap, policy="P-B"):
    from dataclasses import replace

    capped = replace(
        POLICIES[policy], name=f"{policy}[cap={cap}]", max_grants_per_dest=cap
    )
    return ERapidConfig(
        topology=ERapidTopology(boards=4, nodes_per_board=4), policy=capped
    )


def test_limited_dbr_policies_are_batch_covered():
    """max_grants_per_dest no longer forces the scalar fallback: the
    vectorized DBR planner takes the cap directly."""
    workload = WorkloadSpec(pattern="complement", load=0.5, seed=1)
    for cap in (0, 1, 2, None):
        assert coverage_gap(capped_config(cap), workload, PLAN) is None, cap


def test_limited_dbr_matches_scalar_engine():
    """The §5 "limited flexibility" ablation axis on the batch engine:
    every grant cap must stay inside the declared tolerances against the
    scalar engine, and capped grant counts must agree exactly (the cap is
    enforced by the same dbr_plan on both paths)."""
    workload = WorkloadSpec(pattern="complement", load=0.6, seed=1)
    tasks = [
        RunTask(capped_config(cap), workload, PLAN) for cap in (0, 1, 2, None)
    ]
    batch = run_sweep_batched(tasks)
    scalar = run_sweep_batched(tasks, engine="fast")
    for result in batch:
        assert result.extra["engine"] == "batch"
    report = compare_runs(scalar, batch)
    assert report.ok, report.to_dict()["failures"]
    for b, s in zip(batch, scalar):
        assert b.extra["grants"] == s.extra["grants"]
    # A zero cap means DBR can never move a wavelength; tighter caps can
    # never grant more than looser ones on the same workload.
    grants = [r.extra["grants"] for r in batch]
    assert grants[0] == 0
    assert grants[0] <= grants[1] <= grants[2] <= grants[3]


# ----------------------------------------------------------------------
# Slab grouping
# ----------------------------------------------------------------------
def test_slab_key_lets_policy_pattern_load_and_seed_vary():
    base = slab_key(
        make_config("P-B"), WorkloadSpec("complement", 0.2, seed=1), PLAN
    )
    assert base == slab_key(
        make_config("NP-NB"), WorkloadSpec("uniform", 0.8, seed=7), PLAN
    )


def test_slab_key_splits_on_grid_shaping_inputs():
    base = slab_key(make_config(), WorkloadSpec("complement", 0.2), PLAN)
    other_plan = MeasurementPlan(warmup=500, measure=2000, drain_limit=4000)
    assert base != slab_key(
        make_config(), WorkloadSpec("complement", 0.2), other_plan
    )
    assert base != slab_key(
        make_config(boards=8, nodes=8), WorkloadSpec("complement", 0.2), PLAN
    )


# ----------------------------------------------------------------------
# Fidelity vs the scalar engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_grid():
    tasks = grid_tasks()
    batch = run_sweep_batched(tasks)
    scalar = run_sweep_batched(tasks, engine="fast")
    return tasks, batch, scalar


def test_batch_results_within_declared_tolerances(small_grid):
    _, batch, scalar = small_grid
    report = compare_runs(scalar, batch)
    assert report.ok, report.to_dict()["failures"]
    assert report.total == len(batch)


def test_permutation_injection_is_bit_identical(small_grid):
    tasks, batch, scalar = small_grid
    perm = [
        i for i, t in enumerate(tasks) if t.workload.pattern != "uniform"
    ]
    assert perm
    for i in perm:
        assert batch[i].offered == scalar[i].offered
        assert batch[i].labeled_injected == scalar[i].labeled_injected
    assert bit_identity_fingerprint(
        [batch[i] for i in perm]
    ) == bit_identity_fingerprint([scalar[i] for i in perm])


def test_batch_results_are_tagged(small_grid):
    _, batch, _ = small_grid
    for result in batch:
        assert result.extra["engine"] == "batch"
        assert result.extra["events"] == 0


# ----------------------------------------------------------------------
# Slab construction
# ----------------------------------------------------------------------
def reference_injection_csr(runs, hard_end):
    """Injection CSR the plain way: redraw every node's injection times,
    then stable-argsort (time, node) events and count per cycle."""
    import numpy as np

    from repro.sim.rng import RngRegistry, geometric_gap_array
    from repro.traffic.capacity import CapacityParams

    cfg = runs[0][0]
    params = CapacityParams(
        packet_bits=cfg.router.packet_bytes * 8,
        optical_gbps=cfg.power_levels.highest.bit_rate_gbps,
        electrical_gbps=cfg.router.port_gbps,
        clock_ghz=cfg.router.clock_ghz,
    )
    nodes = cfg.topology.total_nodes
    times, rns = [], []
    for r, (_, workload, _) in enumerate(runs):
        rate = workload.injection_rate(cfg.topology, params)
        registry = RngRegistry(seed=workload.seed)
        for n in range(nodes):
            t = np.zeros(0, dtype=np.int64)
            if rate > 0.0:
                # One oversized draw: chunking never changes the values.
                stream = registry.stream(f"inject.{n}")
                size = int(2 * hard_end * rate) + 64
                t = np.cumsum(geometric_gap_array(stream, rate, size))
                assert t[-1] >= hard_end
                t = t[t < hard_end]
            times.append(t)
            rns.append(np.full(len(t), r * nodes + n, dtype=np.int64))
    times_all = np.concatenate(times)
    order = np.argsort(times_all, kind="stable")
    per_cycle = np.bincount(times_all, minlength=hard_end + 1)
    evt_off = np.zeros(hard_end + 2, dtype=np.int64)
    np.cumsum(per_cycle, out=evt_off[1:])
    counts = np.array([len(t) for t in times])
    return np.concatenate(rns)[order], evt_off, np.flatnonzero(per_cycle), counts


def test_key_sorted_injection_csr_matches_stable_argsort():
    import numpy as np

    runs = [
        (make_config("P-B"), WorkloadSpec("complement", 0.6, seed=1), PLAN),
        (make_config("NP-NB"), WorkloadSpec("uniform", 0.6, seed=2), PLAN),
        (make_config("P-NB"), WorkloadSpec("complement", 0.0, seed=1), PLAN),
        (make_config("NP-B"), WorkloadSpec("butterfly", 0.9, seed=3), PLAN),
        (make_config("P-B"), WorkloadSpec("uniform", 0.2, seed=1), PLAN),
    ]
    engine = BatchEngine(runs)
    evt_rn, evt_off, inj_cycles, counts = reference_injection_csr(
        runs, engine.he
    )
    assert len(evt_rn) > 0
    assert np.array_equal(engine.evt_rn, evt_rn)
    assert np.array_equal(engine.evt_off, evt_off)
    assert np.array_equal(engine.inj_cycles, inj_cycles)
    assert np.array_equal(np.diff(engine.p_off), counts)
    # The zero-load run injects nothing.
    nodes = engine.N
    assert not counts[2 * nodes : 3 * nodes].any()


def test_slab_build_peak_memory_stays_near_retained_state():
    """Building the injection CSR must not hold several copies of the
    event list at once: the build's traced peak stays within 2x of what
    the finished engine keeps."""
    import tracemalloc

    plan = MeasurementPlan(warmup=8000, measure=10000, drain_limit=16000)
    runs = [
        (
            ERapidConfig(policy=POLICIES[policy]),
            WorkloadSpec(pattern=pattern, load=load, seed=1),
            plan,
        )
        for pattern in ("uniform", "complement")
        for policy in ("NP-NB", "P-B")
        for load in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert len(runs) == 20
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        engine = BatchEngine(runs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.R == 20
    retained = current - base
    assert peak - base <= 2 * retained, (peak - base, retained)


def test_batch_run_is_deterministic():
    tasks = grid_tasks(patterns=("complement",), loads=(0.4,))
    first = BatchEngine([(t.config, t.workload, t.plan) for t in tasks]).run()
    second = BatchEngine([(t.config, t.workload, t.plan) for t in tasks]).run()
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


# ----------------------------------------------------------------------
# Struct-of-arrays result transport
# ----------------------------------------------------------------------
def test_payload_round_trip_is_bit_identical_to_run():
    """run() is defined as decode_payload(run_payload()), so the compact
    transport a pool worker ships must reconstruct the exact RunResults
    in-process execution produces."""
    import pickle

    from repro.core.batch import BatchResultPayload, decode_payload

    tasks = grid_tasks()
    runs = [(t.config, t.workload, t.plan) for t in tasks]
    direct = BatchEngine(runs).run()
    payload = BatchEngine(runs).run_payload()
    assert isinstance(payload, BatchResultPayload)
    assert len(payload) == len(tasks)
    assert payload.nbytes > 0

    # Through a pickle round trip, as the process pool ships it.
    wire = pickle.loads(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
    decoded = decode_payload(wire, runs)
    assert [r.to_dict() for r in decoded] == [r.to_dict() for r in direct]


def test_decode_payload_rejects_length_mismatch():
    from repro.errors import ConfigurationError

    from repro.core.batch import decode_payload

    tasks = grid_tasks(patterns=("complement",), loads=(0.4,))
    runs = [(t.config, t.workload, t.plan) for t in tasks]
    payload = BatchEngine(runs).run_payload()
    with pytest.raises(ConfigurationError):
        decode_payload(payload, runs[:-1])


# ----------------------------------------------------------------------
# Executor routing
# ----------------------------------------------------------------------
def test_run_sweep_batched_falls_back_for_uncovered_points():
    covered = RunTask(
        make_config(), WorkloadSpec("complement", 0.3, seed=1), PLAN
    )
    uncovered = RunTask(
        make_config(), WorkloadSpec("hotspot", 0.3, seed=1), PLAN
    )
    tasks = [uncovered, covered, uncovered]
    results = run_sweep_batched(tasks)
    assert len(results) == 3
    assert results[1].extra["engine"] == "batch"
    # Fallback points run the scalar engine and are bit-identical to it.
    scalar = run_sweep_batched([uncovered], engine="fast")
    assert results[0].to_dict() == scalar[0].to_dict()
    assert results[2].to_dict() == scalar[0].to_dict()
    assert results[0].extra.get("engine") != "batch"


def test_run_sweep_batched_reports_results_by_task_index():
    tasks = grid_tasks(patterns=("complement",), loads=(0.3,))
    seen = {}
    results = run_sweep_batched(
        tasks, on_result=lambda i, r: seen.__setitem__(i, r)
    )
    assert sorted(seen) == list(range(len(tasks)))
    for i, result in enumerate(results):
        assert seen[i] is result


def test_run_sweep_batched_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_sweep_batched([], jobs=0)


def test_batch_kernel_version_is_declared():
    assert isinstance(BATCH_KERNEL_VERSION, int)
    assert BATCH_KERNEL_VERSION >= 1


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
def test_run_sweep_engine_batch_matches_direct_batch_execution():
    from repro.experiments.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        pattern="complement",
        loads=(0.3,),
        policies=("P-B",),
        boards=4,
        nodes_per_board=4,
        plan=PLAN,
    )
    results = run_sweep(spec, engine="batch")
    assert results["P-B"][0].extra["engine"] == "batch"
    reference = run_sweep(spec)
    report = compare_runs(reference["P-B"], results["P-B"])
    assert report.ok


def test_run_sweep_rejects_unknown_engine():
    from repro.errors import ConfigurationError
    from repro.experiments.sweep import SweepSpec, run_sweep

    spec = SweepSpec(pattern="complement", loads=(0.3,), plan=PLAN)
    with pytest.raises(ConfigurationError):
        run_sweep(spec, engine="warp")


# ----------------------------------------------------------------------
# Event-horizon time-skipping
# ----------------------------------------------------------------------
def payload_bytes(engine):
    """Every payload array, byte for byte — the bit-identity witness."""
    from dataclasses import fields

    payload = engine.run_payload()
    return tuple(
        getattr(payload, f.name).tobytes() for f in fields(payload)
    )


def run_pair(runs):
    """(skip payload bytes, no-skip payload bytes, skip telemetry)."""
    skip = BatchEngine(runs, time_skip=True)
    skip_bytes = payload_bytes(skip)
    noskip = BatchEngine(runs, time_skip=False)
    noskip_bytes = payload_bytes(noskip)
    return skip_bytes, noskip_bytes, skip.telemetry


def test_time_skip_is_bit_identical_on_a_mixed_grid(small_grid):
    tasks, _, _ = small_grid
    runs = [(t.config, t.workload, t.plan) for t in tasks]
    skip_bytes, noskip_bytes, telemetry = run_pair(runs)
    assert skip_bytes == noskip_bytes
    assert telemetry.cycles_skipped >= 0
    assert (
        telemetry.cycles_executed + telemetry.cycles_skipped
        <= telemetry.horizon
    )


def test_time_skip_identity_on_single_run_slab():
    runs = [
        (
            make_config("P-B"),
            WorkloadSpec(pattern="complement", load=0.1, seed=1),
            PLAN,
        )
    ]
    skip_bytes, noskip_bytes, telemetry = run_pair(runs)
    assert skip_bytes == noskip_bytes
    # A 1-run slab at load 0.1 is sparse: skipping must actually engage.
    assert telemetry.cycles_skipped > 0
    assert telemetry.cycles_executed < telemetry.horizon


def test_time_skip_identity_when_all_runs_drain_in_one_chunk():
    """Every run drains by the first drain-check grid point, so the
    engine compacts the whole slab once and breaks immediately."""
    runs = [
        (
            make_config(policy),
            WorkloadSpec(pattern="complement", load=0.2, seed=1),
            PLAN,
        )
        for policy in ("NP-NB", "P-NB", "NP-B", "P-B")
    ]
    skip_bytes, noskip_bytes, telemetry = run_pair(runs)
    assert skip_bytes == noskip_bytes
    assert telemetry.compactions == 1
    assert telemetry.cycles_executed < telemetry.horizon


def test_time_skip_identity_with_zero_injections():
    """load=0.0 schedules no packets at all: the pure-skip path — the
    loop must visit only the mandatory control-plane/drain stops."""
    for policy in ("NP-NB", "P-B"):
        runs = [
            (
                make_config(policy),
                WorkloadSpec(pattern="complement", load=0.0, seed=1),
                PLAN,
            )
        ]
        skip_bytes, noskip_bytes, telemetry = run_pair(runs)
        assert skip_bytes == noskip_bytes, policy
        assert telemetry.injections == 0
        assert telemetry.deliveries == 0
        # Nothing to simulate: a handful of executed cycles at most.
        assert telemetry.cycles_executed <= 8


def test_time_skip_identity_across_shard_layouts(small_grid):
    """run_sweep_batched(time_skip=...) must not change a result bit
    under any jobs layout (the bench enforces the same on the full
    grid)."""
    from repro.analysis.determinism import sweep_fingerprint

    tasks, batch, _ = small_grid
    base = sweep_fingerprint({"grid": batch})
    for jobs in (1, 2):
        res = run_sweep_batched(tasks, jobs=jobs, time_skip=False)
        assert sweep_fingerprint({"grid": res}) == base, jobs


def test_blocked_senders_keep_retry_every_cycle_results():
    """Two-slot pair queues saturate, so senders block all the time.
    The pinned values come from the engine that retried every blocked
    sender on every cycle; retrying only senders whose queue popped must
    not move them.  Retries then happen only on the cycle after a pop,
    so skip and no-skip modes count the same retries."""
    from dataclasses import replace

    runs = [
        (
            replace(make_config(policy), tx_queue_capacity=2),
            WorkloadSpec(pattern=pattern, load=load, seed=1),
            PLAN,
        )
        for policy, pattern, load in (
            ("NP-NB", "uniform", 0.9),
            ("P-B", "uniform", 0.9),
            ("NP-NB", "complement", 0.9),
            ("P-B", "butterfly", 0.7),
            ("P-NB", "uniform", 0.5),
        )
    ]
    skip = BatchEngine(runs, time_skip=True)
    payload = skip.run_payload()
    assert payload.delivered_measure.tolist() == [295, 295, 98, 232, 187]
    assert payload.lab_del.tolist() == [332, 332, 164, 280, 200]
    assert payload.avg_latency.tolist() == pytest.approx(
        [341.186747, 341.186747, 1936.335366, 239.278571, 146.335], abs=1e-6
    )
    noskip = BatchEngine(runs, time_skip=False)
    noskip.run_payload()
    assert skip.telemetry.blocked_retries > 0
    assert skip.telemetry.blocked_retries == noskip.telemetry.blocked_retries


def test_engine_exposes_telemetry_in_both_modes():
    runs = [
        (
            make_config("P-NB"),
            WorkloadSpec(pattern="complement", load=0.3, seed=1),
            PLAN,
        )
    ]
    for time_skip in (True, False):
        engine = BatchEngine(runs, time_skip=time_skip)
        assert engine.telemetry is None
        engine.run_payload()
        tel = engine.telemetry
        assert tel is not None
        assert tel.injections > 0
        assert tel.dispatches > 0
        d = tel.to_dict()
        assert d["cycles_executed"] == tel.cycles_executed
        assert 0.0 <= d["skip_ratio"] <= 1.0
        if not time_skip:
            assert tel.cycles_skipped == 0


# ----------------------------------------------------------------------
# next_event_time unit behaviour
# ----------------------------------------------------------------------
def test_next_event_time_stops():
    import numpy as np

    from repro.core.skip import next_event_time

    ring = np.zeros(16, dtype=np.int64)
    inj = np.array([40], dtype=np.int64)
    common = dict(
        lockstep=False, window_cycles=1000, measure_end=500, chunk=100,
        pend_min=None, retry_pending=False,
    )

    # A dispatch that served while senders sit blocked forces t+1.
    t, ptr = next_event_time(10, 900, ring, inj, 0, **{
        **common, "retry_pending": True,
    })
    assert (t, ptr) == (11, 0)

    # An occupied ring slot at t+1 short-circuits to t+1.
    ring[11 % 16] = 1
    t, ptr = next_event_time(10, 900, ring, inj, 0, **common)
    assert t == 11
    ring[11 % 16] = 0

    # Otherwise: min over ring slots, injections, and the drain grid.
    ring[(10 + 5) % 16] = 2  # absolute cycle 15
    t, _ = next_event_time(10, 900, ring, inj, 0, **common)
    assert t == 15
    ring[:] = 0

    t, ptr = next_event_time(10, 900, ring, inj, 0, **common)
    assert (t, ptr) == (40, 0)  # next nonempty injection cycle

    t, _ = next_event_time(60, 900, ring, inj, 1, **common)
    assert t == 500  # measure_end is the first drain-check stop

    t, _ = next_event_time(520, 900, ring, inj, 1, **common)
    assert t == 600  # then every chunk on the drain grid

    # Lock-Step adds window boundaries and the earliest pending apply.
    t, _ = next_event_time(10, 900, ring, inj, 1, **{
        **common, "lockstep": True,
    })
    assert t == 500  # still the drain grid: boundary 1000 is later
    t, _ = next_event_time(10, 900, ring, inj, 1, **{
        **common, "lockstep": True, "pend_min": 123,
    })
    assert t == 123

    # The jump clamps to hard_end + 1 (loop termination).
    t, _ = next_event_time(880, 900, ring, np.array([], dtype=np.int64), 0,
                           **{**common, "measure_end": 100, "chunk": 10000})
    assert t == 901


def test_next_event_time_ring_wraparound():
    import numpy as np

    from repro.core.skip import next_event_time

    ring = np.zeros(16, dtype=np.int64)
    # Slot index below t % len: the occupied slot is *ahead* of t on the
    # wrapped ring, never behind it.
    ring[2] = 1  # with t=12, len=16 -> absolute cycle 18
    t, _ = next_event_time(
        12, 900, ring, np.array([], dtype=np.int64), 0,
        lockstep=False, window_cycles=1000, measure_end=800, chunk=100,
        pend_min=None, retry_pending=False,
    )
    assert t == 18
