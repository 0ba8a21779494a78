"""The batch (vectorized, struct-of-arrays) E-RAPID engine tier.

Third engine tier after :mod:`repro.core.engine` (fast, event-driven) and
:mod:`repro.core.detailed` (flit-level): a :class:`BatchEngine` advances
*many runs at once* on one shared integer cycle grid.  All per-run state —
node injection/ejection ports, per-pair transmitter queues, wavelength
ownership and power level, DPM window counters, energy accumulators — lives
in flat numpy struct-of-arrays indexed ``run-major``:

* node  ``rn = r * N + n``          (``N`` nodes per run),
* pair  ``pq = (r * B + s) * B + d``  (transmitter queue of board ``s``
  toward board ``d``),
* channel ``rc = r * (W * B) + w * B + d``  (wavelength ``w`` into ``d``).

Each cycle applies updates to every run simultaneously, and the loop is
doubly event-driven: phases scan only the indices carried by the event
rings, and the loop itself jumps over cycles that provably execute no
event (:mod:`repro.core.skip` computes the next-event time from per-slot
ring occupancy, the injection schedule, the Lock-Step grid and the drain
grid), so wall-clock cost scales with events executed, not cycles
simulated.  Runs that drain their labeled packets mid-slab are compacted
out of the state arrays (their finished metrics scattered to their
original slab positions) instead of being re-masked every phase.  The
Lock-Step control plane (window snapshots, DPM decisions, DBR grant
plans with the real :func:`repro.core.dbr.dbr_plan`) runs at the same
window boundaries and protocol latencies as the fast engine.

Fidelity contract (enforced by the statistical-equivalence harness in
:mod:`repro.analysis.equivalence` and the batch benchmark gate):

* **Bit-identical where streams allow**: injection gap draws go through
  :func:`repro.sim.rng.geometric_gap_array`, which consumes the PCG64
  stream exactly like the scalar path, so for permutation patterns (no
  per-packet destination draws) ``offered`` and ``labeled_injected`` match
  :class:`~repro.core.engine.FastEngine` bit for bit.  Uniform traffic
  interleaves destination draws on the scalar path and is statistically
  equivalent only.
* **Integer cycle grid**: service completions are rounded up to the next
  cycle before delivery, intra-board deliveries keep the fast engine's
  same-cycle hand-off, and blocked senders retry on the cycle after their
  pair queue pops instead of exactly at the freeing pop.  These
  quantizations shift per-packet timing by under a cycle and are covered
  by the declared tolerances.
* **Latency proxy**: per-packet identity is not tracked; labeled latency
  pairs the j-th labeled delivery with the j-th labeled injection (FIFO
  proxy, exact in expectation for drained runs).  ``p99_latency`` and
  ``max_latency`` are not available and report 0.

``coverage_gap`` says whether a run point is batchable; the executor falls
back to per-run scalar execution for anything it declines, so ``--engine
batch`` never changes *what* can be swept, only how fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ERapidConfig
from repro.core.dbr import DestDemand, WavelengthState, dbr_plan
from repro.core.skip import BatchTelemetry, next_event_time
from repro.errors import ConfigurationError
from repro.metrics.collector import MeasurementPlan, RunResult
from repro.optics.rwa import StaticRWA
from repro.sim.rng import RngRegistry, geometric_gap_array, integer_array
from repro.traffic.capacity import CapacityParams
from repro.traffic.workload import WorkloadSpec

__all__ = [
    "BATCH_KERNEL_VERSION",
    "coverage_gap",
    "slab_key",
    "BatchEngine",
    "BatchResultPayload",
    "decode_payload",
]

#: Version of the vectorized kernel, folded into batch cache keys so batch
#: results can never alias scalar entries (and are invalidated together
#: when the kernel's numerics change).
BATCH_KERNEL_VERSION = 1

#: Gap draws per vectorized refill while precomputing injection schedules.
_GAP_DRAW_CHUNK = 4096

#: Delivery/exit ring length in cycles; must exceed the longest scheduled
#: lead (wake + DVS stall + lowest-rate service + fiber/pipeline).
_RING = 512


def _cat(parts: List[np.ndarray], buf: np.ndarray) -> np.ndarray:
    """Concatenate index arrays into a preallocated staging buffer.

    With a single part the part itself is returned (zero copy); callers
    treat the result as scratch either way, so the in-place sorts in the
    dispatch/recv phases stay safe.  Replaces the per-cycle
    ``np.concatenate`` chains — the cycle loop never allocates staging.
    """
    if len(parts) == 1:
        return parts[0]
    n = 0
    for p in parts:
        k = len(p)
        buf[n : n + k] = p
        n += k
    return buf[:n]


# ----------------------------------------------------------------------
# Compact result transport
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BatchResultPayload:
    """Struct-of-arrays transport of one slab's results.

    A batch worker returns this instead of a list of
    :class:`~repro.metrics.collector.RunResult` objects: ten flat numpy
    arrays (one slot per run) pickle in a handful of buffer copies,
    where the equivalent ``RunResult`` list would serialize one Python
    object graph per run.  :func:`decode_payload` rebuilds the exact
    ``RunResult`` sequence in the parent from the caller's own run
    descriptions — the payload carries *measurements*, never config —
    and :meth:`BatchEngine.run` itself goes through the same decode, so
    in-process and cross-process execution share one code path and are
    bit-identical by construction.
    """

    delivered_measure: np.ndarray
    inj_measure: np.ndarray
    lab_inj: np.ndarray
    lab_del: np.ndarray
    avg_latency: np.ndarray
    power_mw: np.ndarray
    grants: np.ndarray
    dpm_transitions: np.ndarray
    sleeps: np.ndarray
    lasers_on_final: np.ndarray

    def __len__(self) -> int:
        return len(self.delivered_measure)

    @property
    def nbytes(self) -> int:
        """Total buffer bytes (the transported volume, headers aside)."""
        return sum(
            getattr(self, f).nbytes for f in self.__dataclass_fields__
        )


def decode_payload(
    payload: BatchResultPayload,
    runs: Sequence[Tuple[ERapidConfig, WorkloadSpec, MeasurementPlan]],
) -> List[RunResult]:
    """Rebuild the per-run :class:`RunResult` list from a slab payload.

    ``runs`` must be the exact run descriptions the producing
    :class:`BatchEngine` was built from (same order); the decoder takes
    policy/pattern/load metadata and the throughput denominators from
    them, so a payload can never be replayed against the wrong slab
    without tripping the length check.
    """
    if len(runs) != len(payload):
        raise ConfigurationError(
            f"payload carries {len(payload)} runs, caller described "
            f"{len(runs)}"
        )
    out: List[RunResult] = []
    for r, (config, workload, plan) in enumerate(runs):
        nodes = config.topology.total_nodes
        measure = float(plan.measure)
        out.append(
            RunResult(
                throughput=int(payload.delivered_measure[r]) / (measure * nodes),
                offered=int(payload.inj_measure[r]) / (measure * nodes),
                avg_latency=float(payload.avg_latency[r]),
                p99_latency=0.0,
                max_latency=0.0,
                power_mw=float(payload.power_mw[r]),
                labeled_injected=int(payload.lab_inj[r]),
                labeled_delivered=int(payload.lab_del[r]),
                delivered_measure=int(payload.delivered_measure[r]),
                extra={
                    "policy": config.policy.name,
                    "pattern": workload.pattern,
                    "load": workload.load,
                    "grants": int(payload.grants[r]),
                    "dpm_transitions": int(payload.dpm_transitions[r]),
                    "sleeps": int(payload.sleeps[r]),
                    "lasers_on_final": int(payload.lasers_on_final[r]),
                    "events": 0,
                    "engine": "batch",
                },
            )
        )
    return out


# ----------------------------------------------------------------------
# Coverage and slab partitioning
# ----------------------------------------------------------------------
def coverage_gap(
    config: ERapidConfig, workload: WorkloadSpec, plan: MeasurementPlan
) -> Optional[str]:
    """Why this run point cannot run on the batch engine (None = it can).

    The executor uses this to route uncovered points to the scalar
    fallback; tests assert the reasons stay accurate.
    """
    if workload.process != "bernoulli":
        return f"injection process {workload.process!r} is not vectorized"
    try:
        pattern = workload.resolve_pattern(config.topology)
    except Exception as exc:  # noqa: BLE001 - reason string for fallback
        return f"pattern {workload.pattern!r} not resolvable: {exc}"
    if not pattern.is_permutation and pattern.name != "uniform":
        return f"pattern {workload.pattern!r} is neither uniform nor a permutation"
    if config.policy.dpm_smoothing != 0.0:
        return "dpm_smoothing requires per-window EWMA state (scalar only)"
    for name in ("warmup", "measure", "drain_limit"):
        value = float(getattr(plan, name))
        if not value.is_integer():
            return f"plan.{name}={value} is not on the integer cycle grid"
    chunk = max(1000.0, config.control.window_cycles / 2)
    if not float(chunk).is_integer():
        return "drain chunk is fractional (odd window_cycles)"
    if config.topology.total_nodes > 32000:
        return "topology too large for int16 destination arrays"
    # A service (plus wake + worst DVS stall + delivery) must never span
    # more than one window boundary, or the single-slot busy-carry
    # accounting breaks.
    levels = config.power_levels
    svc_max = config.optical.packet_service_cycles(
        workload.packet_bytes, levels.lowest.bit_rate_gbps
    )
    per_step = max(
        config.transitions.voltage_transition_cycles,
        config.transitions.frequency_relock_cycles,
    )
    d_nodes = config.topology.nodes_per_board
    lead = (
        config.wake_cycles
        + per_step * (len(levels) - 1)
        + svc_max
        + config.optical.fiber_latency_cycles
        + config.router.pipeline_cycles
        + config.control.power_cycle_latency(d_nodes)
    )
    if config.control.window_cycles < 2 * lead:
        return f"window_cycles={config.control.window_cycles} < 2x max lead {lead:.0f}"
    if lead + 8 >= _RING:
        return f"max event lead {lead:.0f} exceeds the ring horizon {_RING}"
    send_lead = int(config.router.packet_serialization_cycles) + int(
        config.router.pipeline_cycles
    )
    if send_lead + 8 >= _RING:
        return f"send lead {send_lead} exceeds the ring horizon {_RING}"
    boards = config.topology.boards
    if config.control.power_cycle_latency(d_nodes) >= config.control.window_cycles:
        return "power cycle latency spills past the next window"
    if config.control.dbr_cycle_latency(boards, d_nodes) >= config.control.window_cycles:
        return "DBR cycle latency spills past the next window"
    return None


def slab_key(
    config: ERapidConfig, workload: WorkloadSpec, plan: MeasurementPlan
) -> Tuple[object, ...]:
    """Hashable key grouping run points one :class:`BatchEngine` can share.

    Everything that shapes the shared cycle grid and array geometry is in
    the key; policy, pattern, load and workload seed vary freely within a
    slab (they are per-run columns).
    """
    t = config.topology
    levels = tuple(
        (lvl.name, lvl.bit_rate_gbps, lvl.vdd, lvl.link_power_mw)
        for lvl in config.power_levels.levels
    )
    return (
        (t.clusters, t.boards, t.nodes_per_board, t.wavelengths),
        (
            config.router.channel_bits,
            config.router.clock_ghz,
            config.router.pipeline_cycles,
            config.router.packet_bytes,
            config.router.flit_bytes,
        ),
        (
            config.control.window_cycles,
            config.control.lc_hop_cycles,
            config.control.rc_hop_cycles,
            config.control.compute_cycles,
        ),
        (config.optical.clock_ghz, config.optical.fiber_latency_cycles),
        levels,
        config.link_power.idle_fraction,
        (
            config.transitions.frequency_relock_cycles,
            config.transitions.voltage_transition_cycles,
        ),
        config.tx_queue_capacity,
        config.wake_cycles,
        config.seed,
        (float(plan.warmup), float(plan.measure), float(plan.drain_limit)),
        (workload.packet_bytes, workload.flit_bytes, workload.process),
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class BatchEngine:
    """Advance a slab of run points simultaneously in numpy.

    ``time_skip`` (default on) lets the cycle loop jump over spans that
    provably execute no event; results are bit-identical either way (the
    batch benchmark gates the fingerprints against each other), so
    ``time_skip=False`` exists as the always-step reference and for
    debugging.  After :meth:`run_payload` the engine exposes a
    :class:`~repro.core.skip.BatchTelemetry` on ``self.telemetry``.
    """

    def __init__(
        self,
        runs: Sequence[Tuple[ERapidConfig, WorkloadSpec, MeasurementPlan]],
        time_skip: bool = True,
    ) -> None:
        if not runs:
            raise ConfigurationError("BatchEngine needs at least one run")
        keys = {slab_key(*run) for run in runs}
        if len(keys) > 1:
            raise ConfigurationError(
                f"runs span {len(keys)} slabs; partition with slab_key first"
            )
        for i, run in enumerate(runs):
            gap = coverage_gap(*run)
            if gap is not None:
                raise ConfigurationError(f"run {i} not batchable: {gap}")
        self.runs = list(runs)
        config, workload, plan = self.runs[0]
        self.config = config
        self.plan = plan
        topo = config.topology
        self.R = len(self.runs)
        self.B = topo.boards
        self.D = topo.nodes_per_board
        self.N = topo.total_nodes
        self.W = topo.wavelengths
        self.CH = self.W * self.B
        self.wu = int(plan.warmup)
        self.me = int(plan.measure_end)
        self.he = int(plan.hard_end)
        self.measure = float(plan.measure)
        self.Wc = int(config.control.window_cycles)
        self.chunk = int(max(1000.0, self.Wc / 2))
        self.SER = int(config.router.packet_serialization_cycles)
        self.SEND = self.SER + int(config.router.pipeline_cycles)
        self.DELIV = int(
            config.optical.fiber_latency_cycles + config.router.pipeline_cycles
        )
        self.CAP = int(config.tx_queue_capacity)
        self.WAKE = int(config.wake_cycles)
        self.rwa = StaticRWA(self.B)
        levels = config.power_levels
        self.L = len(levels)
        self.P_mw = np.array([lvl.link_power_mw for lvl in levels.levels])
        self.svc_by_level = np.array(
            [
                config.optical.packet_service_cycles(
                    workload.packet_bytes, lvl.bit_rate_gbps
                )
                for lvl in levels.levels
            ]
        )
        self.step_stall = int(
            max(
                config.transitions.voltage_transition_cycles,
                config.transitions.frequency_relock_cycles,
            )
        )
        self.power_lat = int(config.control.power_cycle_latency(self.D))
        self.dbr_lat = int(config.control.dbr_cycle_latency(self.B, self.D))
        self.idle_frac = float(config.link_power.idle_fraction)
        self._policies = [cfg.policy for cfg, _, _ in self.runs]
        self._workloads = [wl for _, wl, _ in self.runs]
        self.time_skip = bool(time_skip)
        self.telemetry: Optional[BatchTelemetry] = None
        self._build_state()

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _build_state(self) -> None:
        R, B, D, N, W, CH = self.R, self.B, self.D, self.N, self.W, self.CH
        RN, RC, RBB = R * N, R * CH, R * B * B
        # Send ports (one per node): packets arrived / started, port state.
        self.p_injcnt = np.zeros(RN, dtype=np.int64)
        self.p_started = np.zeros(RN, dtype=np.int64)
        self.p_busy = np.zeros(RN, dtype=bool)
        self.p_blocked = np.zeros(RN, dtype=bool)
        # Blocked senders as a compact index list sorted by pair queue
        # (oldest first within a queue), with their pair queues beside.
        self.blk = np.zeros(0, dtype=np.int64)
        self.blk_pq = np.zeros(0, dtype=np.int64)
        # Pair transmitter queues: bounded rings of local dest-node ids.
        self.tx_ring = np.zeros(RBB * self.CAP, dtype=np.int16)
        self.tx_head = np.zeros(RBB, dtype=np.int64)
        self.tx_qlen = np.zeros(RBB, dtype=np.int64)
        self.occ_acc = np.zeros(RBB)  # integral of queue length over window
        self.q_last = np.zeros(RBB, dtype=np.int64)
        # Optical channels.
        self.c_owner = np.full(RC, -1, dtype=np.int16)
        self.c_level = np.full(RC, self.L - 1, dtype=np.int8)
        self.c_sleep = np.zeros(RC, dtype=bool)
        self.c_stall = np.zeros(RC, dtype=np.int64)
        self.c_busy_until = np.zeros(RC)
        self.c_pq = np.zeros(RC, dtype=np.int64)
        self.win_busy = np.zeros(RC)
        self.win_carry = np.zeros(RC)
        # Receive ports.
        self.r_qlen = np.zeros(RN, dtype=np.int64)
        self.r_busy = np.zeros(RN, dtype=bool)
        # Per-run accumulators.
        self.delivered_total = np.zeros(R, dtype=np.int64)
        self.delivered_measure = np.zeros(R, dtype=np.int64)
        self.lab_del = np.zeros(R, dtype=np.int64)
        self.sum_del_t = np.zeros(R)
        self.base_A = np.zeros(R)
        self.base_last = np.zeros(R)
        self.base_E = np.zeros(R)
        self.busy_E = np.zeros(R)
        self.grants = np.zeros(R, dtype=np.int64)
        self.dpm_transitions = np.zeros(R, dtype=np.int64)
        self.sleeps = np.zeros(R, dtype=np.int64)
        # Original-index bookkeeping + per-run outputs: drained runs are
        # compacted out of the live arrays (never re-masked), their final
        # metrics scattered here at their original slab positions.
        self.orig = np.arange(R, dtype=np.int64)
        self.out_delivered = np.zeros(R, dtype=np.int64)
        self.out_inj = np.zeros(R, dtype=np.int64)
        self.out_lab_inj = np.zeros(R, dtype=np.int64)
        self.out_lab_del = np.zeros(R, dtype=np.int64)
        self.out_avg_lat = np.zeros(R)
        self.out_power = np.zeros(R)
        self.out_grants = np.zeros(R, dtype=np.int64)
        self.out_dpm = np.zeros(R, dtype=np.int64)
        self.out_sleeps = np.zeros(R, dtype=np.int64)
        self.out_lasers = np.zeros(R, dtype=np.int64)
        # Static RWA ownership, replicated per run: owner[d][w] = s.
        for s in range(B):
            for d in range(B):
                if s == d:
                    continue
                w = self.rwa.wavelength_for(s, d)
                c = w * B + d
                self.c_owner[c::CH] = s
                self.c_pq[c::CH] = (
                    np.arange(R, dtype=np.int64) * B + s
                ) * B + d
        owned_per_run = int(np.count_nonzero(self.c_owner[:CH] >= 0))
        self.base_A[:] = owned_per_run * self.P_mw[self.L - 1]
        # Reverse index pair -> owned channels, so pushes can poke exactly
        # the channels that might dispatch (updated incrementally on DBR
        # grants; W is a hard upper bound on channels per pair).
        self.pair_ch = np.full((RBB, W), -1, dtype=np.int64)
        self.pair_nch = np.zeros(RBB, dtype=np.int64)
        for rc in np.flatnonzero(self.c_owner >= 0):
            pq = self.c_pq[rc]
            self.pair_ch[pq, self.pair_nch[pq]] = rc
            self.pair_nch[pq] += 1
        # Per-run policy columns, expanded to channel rows.
        dpm = np.array([p.dpm for p in self._policies])
        dbr = np.array([p.dbr for p in self._policies])
        self.run_dpm = dpm
        self.run_dbr = dbr
        self.lockstep_on = bool((dpm | dbr).any())
        thr = [p.thresholds for p in self._policies]
        self.thr_lmin_rc = np.repeat([t.l_min for t in thr], CH)
        self.thr_lmax_rc = np.repeat([t.l_max for t in thr], CH)
        self.thr_bmax_rc = np.repeat([t.b_max for t in thr], CH)
        # Precomputed injection schedules + destination streams.
        self._build_traffic()
        # Event rings: python lists of small index arrays per cycle slot.
        # The loop is event-driven — every phase scans only the indices
        # carried by these rings (plus this cycle's injections), never the
        # full state arrays, so per-cycle cost scales with activity.
        self.ring_deliv: List[List[np.ndarray]] = [[] for _ in range(_RING)]
        self.ring_pexit: List[List[np.ndarray]] = [[] for _ in range(_RING)]
        self.ring_rexit: List[List[np.ndarray]] = [[] for _ in range(_RING)]
        # Channels whose service ends (and may redispatch) at a cycle.
        self.ring_cend: List[List[np.ndarray]] = [[] for _ in range(_RING)]
        # Per-slot ring occupancy: number of scheduled index arrays across
        # all four rings.  The time-skip loop's next-event index — every
        # ring append pairs with an increment; the slot is zeroed when the
        # loop lands on it.
        self.ring_occ = np.zeros(_RING, dtype=np.int64)
        # Pending control-plane applications, keyed by apply cycle.
        self._pend_dpm: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self._pend_dbr: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # Preallocated staging/scratch: per-cycle candidate concatenation
        # and mask temporaries never allocate.  Sizing: each send part is
        # a disjoint node set (<= RN total); deliveries are bounded by one
        # in-flight packet per channel (RC) plus local hand-offs and recv
        # completions (RN each); dispatch candidates by service ends +
        # poked pair channels + fresh grants (3 * RC).
        self._st_send = np.empty(RN, dtype=np.int64)
        self._st_pexit = np.empty(RN, dtype=np.int64)
        self._st_rexit = np.empty(RN, dtype=np.int64)
        self._st_deliv = np.empty(RC + RN, dtype=np.int64)
        self._st_recv = np.empty(RC + 2 * RN, dtype=np.int64)
        self._st_disp = np.empty(3 * RC, dtype=np.int64)
        self._st_prn = np.empty(RN, dtype=np.int64)
        self._st_ppq = np.empty(RN, dtype=np.int64)
        self._st_ploc = np.empty(RN, dtype=np.int64)
        scratch = max(3 * RC, RC + 2 * RN)
        self._bm1 = np.empty(scratch, dtype=bool)
        # Rank-scan scratch (push/dispatch group ranking): a read-only
        # iota, two int64 work buffers, and bool mask buffers.  _bm3 is
        # returned from _push_pairs as the admit mask — valid until the
        # next push, which is at least one cycle away.
        self._iota = np.arange(scratch, dtype=np.int64)
        self._rk1 = np.empty(scratch, dtype=np.int64)
        self._rk2 = np.empty(scratch, dtype=np.int64)
        self._bm2 = np.empty(scratch, dtype=bool)
        self._bm3 = np.empty(scratch, dtype=bool)
        self._fp1 = np.empty(scratch, dtype=np.float64)
        self._fp2 = np.empty(scratch, dtype=np.float64)

    def _build_traffic(self) -> None:
        """Draw every run's full injection schedule up front.

        Gap draws consume each node's named stream exactly as the scalar
        engine does (chunk size cannot change the values); uniform
        destination draws are chunked on the same stream afterwards, which
        is the documented statistically-equivalent deviation.
        """
        R, N = self.R, self.N
        cfg = self.config
        params = CapacityParams(
            packet_bits=cfg.router.packet_bytes * 8,
            optical_gbps=cfg.power_levels.highest.bit_rate_gbps,
            electrical_gbps=cfg.router.port_gbps,
            clock_ghz=cfg.router.clock_ghz,
        )
        he = self.he
        RN = R * N
        key_parts: List[np.ndarray] = []
        counts = np.zeros(RN, dtype=np.int64)
        self.inj_measure = np.zeros(R, dtype=np.int64)
        self.pre_wu_inj = np.zeros(R, dtype=np.int64)
        self.lab_inj = np.zeros(R, dtype=np.int64)
        self.lab_prefix: List[np.ndarray] = []
        dest_parts: List[np.ndarray] = []
        for r in range(R):
            workload = self._workloads[r]
            rate = workload.injection_rate(cfg.topology, params)
            pattern = workload.resolve_pattern(cfg.topology)
            registry = RngRegistry(seed=workload.seed)
            run_lab_times: List[np.ndarray] = []
            # One sized draw usually covers the horizon (mean gap 1/rate,
            # so ~he*rate gaps reach he; the 6-sigma margin makes a top-up
            # draw rare).  Chunking never changes the values drawn.
            mean_gaps = he * rate
            n0 = int(mean_gaps + 6.0 * math.sqrt(mean_gaps) + 16.0)
            for n in range(N):
                stream = registry.stream(f"inject.{n}")
                if rate <= 0.0:
                    t = np.zeros(0, dtype=np.int64)
                else:
                    g = geometric_gap_array(stream, rate, n0)
                    total = int(g.sum())
                    if total < he:
                        gaps = [g]
                        while total < he:
                            g2 = geometric_gap_array(
                                stream, rate, _GAP_DRAW_CHUNK
                            )
                            gaps.append(g2)
                            total += int(g2.sum())
                        g = np.concatenate(gaps)
                    t = np.cumsum(g)
                    t = t[: np.searchsorted(t, he)]
                rn = r * N + n
                counts[rn] = len(t)
                key = t * RN
                key += rn
                key_parts.append(key)
                lo = int(np.searchsorted(t, self.wu))
                hi = int(np.searchsorted(t, self.me))
                self.inj_measure[r] += hi - lo
                self.pre_wu_inj[r] += lo
                run_lab_times.append(t[lo:hi])
                if pattern.is_permutation:
                    dest_parts.append(
                        np.full(len(t), pattern.dest(n), dtype=np.int16)
                    )
                else:
                    d = integer_array(stream, 0, N - 1, len(t))
                    d += d >= n
                    dest_parts.append(d.astype(np.int16))
            self.lab_inj[r] = self.inj_measure[r]
            lab = np.sort(np.concatenate(run_lab_times))
            prefix = np.zeros(len(lab) + 1)
            np.cumsum(lab, out=prefix[1:])
            self.lab_prefix.append(prefix)
        self.p_off = np.zeros(RN + 1, dtype=np.int64)
        np.cumsum(counts, out=self.p_off[1:])
        self.flat_dest = np.concatenate(dest_parts)
        del dest_parts
        # Injection CSR by one in-place sort of the event keys
        # ``t * RN + rn``.  Each node's times strictly increase, so the
        # keys are unique and sort into exactly the (time, node) order a
        # stable time sort gives.  Parts are dropped as soon as they are
        # joined, so the build holds at most two copies of the events.
        keys = np.concatenate(key_parts)
        del key_parts
        keys.sort()
        cycle_keys = np.arange(he + 2, dtype=np.int64) * RN
        self.evt_off = np.searchsorted(keys, cycle_keys)
        np.remainder(keys, RN, out=keys)
        self.evt_rn = keys
        # Compressed nonzero-injection-cycle index (ascending) — the
        # time-skip loop's "next injection" pointer walks this instead of
        # scanning the dense CSR offsets.
        self.inj_cycles = np.flatnonzero(np.diff(self.evt_off) > 0).astype(
            np.int64
        )

    # ------------------------------------------------------------------
    # Energy bookkeeping
    # ------------------------------------------------------------------
    def _flush_base(self, run_idx: np.ndarray, t: int) -> None:
        """Integrate enabled-channel power A(t) up to ``t`` for these runs."""
        ov = np.clip(
            np.minimum(t, self.me) - np.maximum(self.base_last[run_idx], self.wu),
            0.0,
            None,
        )
        self.base_E[run_idx] += self.base_A[run_idx] * ov
        self.base_last[run_idx] = t

    # ------------------------------------------------------------------
    # Pair-queue helpers
    # ------------------------------------------------------------------
    def _flush_occ(self, pqs: np.ndarray, t: int) -> None:
        self.occ_acc[pqs] += self.tx_qlen[pqs] * (t - self.q_last[pqs])
        self.q_last[pqs] = t

    def _push_pairs(
        self,
        pq: np.ndarray,
        loc: np.ndarray,
        rn: np.ndarray,
        t: int,
        poked: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ranked admission of this cycle's packets into their pair queues.

        Returns ``(admit, srn, order)``: the boolean admit mask aligned
        with the *sorted* inputs, the sorted ``rn``, and the sort
        permutation (so callers can carry per-packet side data through the
        same ordering); blocked senders are exactly ``srn[~admit]``.
        Admission rank within a pair follows caller order (the scalar
        engine admits in event order — a same-cycle tie broken
        differently, inside tolerance).  Pairs that received packets are
        appended to ``poked`` so the dispatch phase can wake exactly their
        channels.
        """
        order = np.argsort(pq, kind="stable")
        spq = pq[order]
        sloc = loc[order]
        srn = rn[order]
        # Rank within each pair group.  spq is sorted, so the first index
        # of the group containing i is the running maximum of group-start
        # indices — an O(n) scan instead of searchsorted's n·log n binary
        # searches, with identical (integer) results.  All temporaries
        # live in preallocated scratch (allocation-free cycle loop).
        n = len(spq)
        idx = self._iota[:n]
        sneq = self._bm2[:n]
        sneq[0] = True
        np.not_equal(spq[1:], spq[:-1], out=sneq[1:])
        rank = self._rk1[:n]
        np.multiply(sneq, idx, out=rank)
        np.maximum.accumulate(rank, out=rank)
        np.subtract(idx, rank, out=rank)
        cap_left = self.tx_qlen[spq]
        np.subtract(self.CAP, cap_left, out=cap_left)
        admit = self._bm3[:n]
        np.less(rank, cap_left, out=admit)
        apq = spq[admit]
        m = len(apq)
        if m:
            slot = self.tx_head[apq]
            slot += self.tx_qlen[apq]
            slot += rank[admit]
            slot %= self.CAP
            neq = np.empty(m, dtype=bool)
            neq[0] = True
            np.not_equal(apq[1:], apq[:-1], out=neq[1:])
            cut = neq.nonzero()[0]
            upq = apq[cut]
            self._flush_occ(upq, t)
            ri = self._rk2[:m]
            np.multiply(apq, self.CAP, out=ri)
            ri += slot
            self.tx_ring[ri] = sloc[admit]
            cnt = np.empty(len(cut), dtype=np.int64)
            np.subtract(cut[1:], cut[:-1], out=cnt[:-1])
            cnt[-1] = m - cut[-1]
            self.tx_qlen[upq] += cnt
            poked.append(upq)
        return admit, srn, order

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _window_boundary(self, t: int) -> None:
        k = t // self.Wc
        # Freeze the LC hardware counters (the lockstep snapshot).
        self._flush_occ(np.arange(len(self.tx_qlen), dtype=np.int64), t)
        util = np.minimum(1.0, self.win_busy / self.Wc)
        buf_p = np.minimum(1.0, self.occ_acc / (self.Wc * self.CAP))
        qe_p = self.tx_qlen == 0
        owned = self.c_owner >= 0
        bu_rc = np.where(owned, buf_p[self.c_pq], 0.0)
        qe_rc = np.where(owned, qe_p[self.c_pq], True)
        # Every live row is active — drained runs are compacted away.
        run_power = self.run_dpm & (~self.run_dbr | (k % 2 == 1))
        run_bw = self.run_dbr & (~self.run_dpm | (k % 2 == 0))
        if run_power.any():
            self._pend_dpm[t + self.power_lat] = (util, bu_rc, qe_rc, run_power)
        if run_bw.any():
            chc = np.bincount(
                self.c_pq[owned], minlength=len(self.tx_qlen)
            )
            rc_idx, new_owner = self._plan_dbr(run_bw, buf_p, qe_p, chc)
            if len(rc_idx):
                self._pend_dbr[t + self.dbr_lat] = (rc_idx, new_owner)
        # Window reset: busy time carried across the boundary seeds the
        # next window; queue-occupancy integrals restart.
        np.copyto(self.win_busy, self.win_carry)
        self.win_carry.fill(0.0)
        self.occ_acc.fill(0.0)

    def _plan_dbr(
        self,
        run_bw: np.ndarray,
        buf_p: np.ndarray,
        qe_p: np.ndarray,
        chc: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run the real §3.2 allocator per (run, dest) on the snapshot."""
        B, W, CH = self.B, self.W, self.CH
        rcs: List[int] = []
        owners: List[int] = []
        for r in np.flatnonzero(run_bw):
            thresholds = self._policies[r].thresholds
            pq0 = r * B * B
            for d in range(B):
                states = []
                for w in range(W):
                    rc = r * CH + w * B + d
                    owner = int(self.c_owner[rc])
                    if owner < 0:
                        states.append(WavelengthState(w, None, 0.0, True, False))
                    else:
                        pq = pq0 + owner * B + d
                        states.append(
                            WavelengthState(
                                w, owner, float(buf_p[pq]), bool(qe_p[pq]), False
                            )
                        )
                demands = [
                    DestDemand(
                        s,
                        float(buf_p[pq0 + s * B + d]),
                        bool(qe_p[pq0 + s * B + d]),
                        int(chc[pq0 + s * B + d]),
                    )
                    for s in range(B)
                    if s != d
                ]
                for w, new_owner in dbr_plan(
                    d,
                    states,
                    demands,
                    thresholds,
                    self.rwa,
                    max_grants=self._policies[r].max_grants_per_dest,
                ):
                    rcs.append(r * CH + w * B + d)
                    owners.append(new_owner)
        return (
            np.array(rcs, dtype=np.int64),
            np.array(owners, dtype=np.int16),
        )

    def _apply_dpm(self, t: int, pend: Tuple[np.ndarray, ...]) -> None:
        util, bu, qe, run_power = pend
        CH = self.CH
        mask = np.repeat(run_power, CH) & (self.c_owner >= 0)
        sleep_cond = (util <= 0.0) & qe
        sleep_m = mask & sleep_cond & ~self.c_sleep
        down_m = mask & ~sleep_cond & (util < self.thr_lmin_rc) & (self.c_level > 0)
        up_m = (
            mask
            & ~sleep_cond
            & ~(util < self.thr_lmin_rc)
            & (util > self.thr_lmax_rc)
            & ((self.thr_bmax_rc <= 0.0) | (bu > self.thr_bmax_rc))
            & (self.c_level < self.L - 1)
        )
        changed = sleep_m | down_m | up_m
        if not changed.any():
            return
        runs_touched = np.unique(np.flatnonzero(changed) // CH)
        self._flush_base(runs_touched, t)
        idx = np.flatnonzero(sleep_m)
        if len(idx):
            runs = idx // CH
            # Slept channels were enabled (owned, awake): drop their draw.
            np.add.at(self.base_A, runs, -self.P_mw[self.c_level[idx]])
            self.c_sleep[idx] = True
            np.add.at(self.sleeps, runs, 1)
        for m, delta in ((down_m, -1), (up_m, +1)):
            idx = np.flatnonzero(m)
            if not len(idx):
                continue
            runs = idx // CH
            old = self.c_level[idx].astype(np.int64)
            new = old + delta
            awake = ~self.c_sleep[idx]
            np.add.at(
                self.base_A,
                runs[awake],
                self.P_mw[new[awake]] - self.P_mw[old[awake]],
            )
            self.c_level[idx] = new.astype(np.int8)
            self.c_stall[idx] = np.maximum(self.c_stall[idx], t + self.step_stall)
            np.add.at(self.dpm_transitions, runs, 1)

    def _apply_dbr(
        self, t: int, pend: Tuple[np.ndarray, np.ndarray]
    ) -> Optional[np.ndarray]:
        """Apply a pending grant plan; returns the granted channel ids.

        Pending plans are remapped (and emptied entries dropped) when runs
        compact out, so every entry here targets a live channel.
        """
        rc_idx, new_owner = pend
        if not len(rc_idx):
            return None
        CH, B = self.CH, self.B
        runs = rc_idx // CH
        self._flush_base(np.unique(runs), t)
        owner_before = self.c_owner[rc_idx]
        enabled_before = (owner_before >= 0) & ~self.c_sleep[rc_idx]
        lit = ~enabled_before
        np.add.at(self.base_A, runs[lit], self.P_mw[self.c_level[rc_idx[lit]]])
        old_pq = self.c_pq[rc_idx]
        self.c_owner[rc_idx] = new_owner
        self.c_sleep[rc_idx] = False
        dests = rc_idx % B
        new_pq = (runs * B + new_owner.astype(np.int64)) * B + dests
        self.c_pq[rc_idx] = new_pq
        np.add.at(self.grants, runs, 1)
        # Maintain the pair -> channels reverse index (grant plans are
        # small, so a python loop is fine here).
        pair_ch, pair_nch = self.pair_ch, self.pair_nch
        for rc, was, po, pn in zip(
            rc_idx.tolist(), owner_before.tolist(), old_pq.tolist(), new_pq.tolist()
        ):
            if was >= 0:
                row = pair_ch[po]
                k = self.pair_nch[po]
                for j in range(k):
                    if row[j] == rc:
                        row[j] = row[k - 1]
                        row[k - 1] = -1
                        break
                pair_nch[po] = k - 1
            row = pair_ch[pn]
            row[pair_nch[pn]] = rc
            pair_nch[pn] += 1
        return rc_idx

    # ------------------------------------------------------------------
    # The cycle loop
    # ------------------------------------------------------------------
    def run(self) -> List[RunResult]:
        """Advance the slab and return one :class:`RunResult` per run.

        Delegates to :meth:`run_payload` + :func:`decode_payload` so the
        in-process path and the cross-process (worker shard) path share a
        single results pipeline.
        """
        return decode_payload(self.run_payload(), self.runs)

    def run_payload(self) -> BatchResultPayload:
        """Advance the slab and return the compact payload.

        Every phase is event-driven: the only indices examined each cycle
        are the ones carried by the event rings (injections, port exits,
        deliveries, service ends) plus the compact blocked-sender list,
        of which only senders whose pair queue popped are retried, so
        per-cycle cost scales with actual activity, not with slab size.
        With ``time_skip`` (the default) the loop additionally jumps over
        cycles that provably execute no event — see
        :func:`repro.core.skip.next_event_time` — so wall-clock cost
        scales with events executed, not cycles simulated.  Runs that
        drain mid-slab are compacted away (:meth:`_compact`), never
        re-masked.  Neither mechanism changes a result bit: the batch
        benchmark gates ``time_skip=True`` against ``time_skip=False``
        fingerprints at every grid size.
        """
        SEND, SER, CAP = self.SEND, self.SER, self.CAP
        N, B, D = self.N, self.B, self.D
        wu, me, he, Wc = self.wu, self.me, self.he, self.Wc
        evt_rn, evt_off = self.evt_rn, self.evt_off
        flat_dest, p_off = self.flat_dest, self.p_off
        p_started, p_injcnt = self.p_started, self.p_injcnt
        p_busy, p_blocked = self.p_busy, self.p_blocked
        r_qlen, r_busy = self.r_qlen, self.r_busy
        ring_deliv, ring_pexit = self.ring_deliv, self.ring_pexit
        ring_rexit, ring_cend = self.ring_rexit, self.ring_cend
        ring_occ = self.ring_occ
        bm1 = self._bm1
        push = self._push_pairs
        lockstep = self.lockstep_on
        time_skip = self.time_skip
        inj_cycles = self.inj_cycles
        inj_ptr = 0
        tel = BatchTelemetry(horizon=he + 1)
        self.telemetry = tel
        lab_cur = np.empty(self.R, dtype=np.int64)
        t = 0
        while t <= he:
            tel.cycles_executed += 1
            slot_i = t % _RING
            ring_occ[slot_i] = 0
            send_cand: List[np.ndarray] = []
            recv_cand: List[np.ndarray] = []
            disp_cand = ring_cend[slot_i]
            poked: List[np.ndarray] = []
            served = 0
            # (0) Control plane: window boundaries and pending applies.
            if lockstep:
                if t and t % Wc == 0:
                    self._window_boundary(t)
                    tel.window_boundaries += 1
                pend = self._pend_dpm.pop(t, None)
                if pend is not None:
                    self._apply_dpm(t, pend)
                pend2 = self._pend_dbr.pop(t, None)
                if pend2 is not None:
                    granted = self._apply_dbr(t, pend2)
                    if granted is not None:
                        disp_cand.append(granted)
            # (1) Injections arriving this cycle.  Nodes that are busy or
            # blocked are dropped from the start candidates here: if they
            # exit or unblock this same cycle, those phases re-add them,
            # which keeps the candidate parts disjoint (no dedup needed).
            lo = evt_off[t]
            hi = evt_off[t + 1]
            if hi > lo:
                inj = evt_rn[lo:hi]
                tel.injections += int(hi - lo)
                p_injcnt[inj] += 1
                m = np.bitwise_or(
                    p_busy[inj], p_blocked[inj], out=self._bm2[: len(inj)]
                )
                np.logical_not(m, out=m)
                inj_f = inj[m]
                if len(inj_f):
                    send_cand.append(inj_f)
            # (2) Optical deliveries landing this cycle.
            slot = ring_deliv[slot_i]
            if slot:
                arr = _cat(slot, self._st_deliv)
                slot.clear()
                tel.deliveries += len(arr)
                np.add.at(r_qlen, arr, 1)
                recv_cand.append(arr)
            # (3) Send-port exits route their packet; blocked senders
            # retry in the same ranked push (blocked first, so they keep
            # their earlier admission priority).  Only senders whose pair
            # queue has a free slot retry: a sender blocks only when its
            # push fills the queue, and only a dispatch pop frees a slot,
            # so any other retry would be rejected with no effect.
            rn_e = None
            slot = ring_pexit[slot_i]
            if slot:
                rn_e = _cat(slot, self._st_pexit)
                slot.clear()
                tel.port_exits += len(rn_e)
                p_busy[rn_e] = False
                send_cand.append(rn_e)
            rem_rn = None
            if rn_e is not None:
                dest_e = flat_dest[p_off[rn_e] + p_started[rn_e] - 1].astype(
                    np.int64
                )
                runs_e = rn_e // N
                sb_e = (rn_e % N) // D
                db_e = dest_e // D
                local = db_e == sb_e
                if local.any():
                    lrn = runs_e[local] * N + dest_e[local]
                    np.add.at(r_qlen, lrn, 1)
                    recv_cand.append(lrn)
                rem = ~local
                if rem.any():
                    rem_rn = rn_e[rem]
                    rem_pq = (runs_e[rem] * B + sb_e[rem]) * B + db_e[rem]
                    rem_loc = dest_e[rem] % D
            blk, blk_pq = self.blk, self.blk_pq
            nret = 0
            if len(blk):
                retry = self.tx_qlen[blk_pq] < CAP
                nret = int(np.count_nonzero(retry))
            if nret or rem_rn is not None:
                if nret:
                    tel.blocked_retries += nret
                    rblk, rpq = blk[retry], blk_pq[retry]
                    rloc = flat_dest[p_off[rblk] + p_started[rblk] - 1] % D
                    if rem_rn is not None:
                        rn_p = _cat([rblk, rem_rn], self._st_prn)
                        pq_p = _cat([rpq, rem_pq], self._st_ppq)
                        loc_p = _cat([rloc, rem_loc], self._st_ploc)
                    else:
                        rn_p, pq_p, loc_p = rblk, rpq, rloc
                    keep = ~retry
                    blk, blk_pq = blk[keep], blk_pq[keep]
                else:
                    rn_p, pq_p, loc_p = rem_rn, rem_pq, rem_loc
                admit, srn, order = push(pq_p, loc_p, rn_p, t, poked)
                fresh = order >= nret
                freed = srn[admit & ~fresh]
                if len(freed):
                    p_blocked[freed] = False
                    send_cand.append(freed)
                newly = srn[~admit & fresh]
                if len(newly):
                    p_blocked[newly] = True
                # Merge the rejected senders back by pair queue.  Within a
                # queue the ones still waiting are older, so the stable
                # sort keeps them first.
                rej = ~admit
                if rej.any():
                    pq_all = np.concatenate((blk_pq, pq_p[order[rej]]))
                    by_pq = np.argsort(pq_all, kind="stable")
                    blk = np.concatenate((blk, srn[rej]))[by_pq]
                    blk_pq = pq_all[by_pq]
                self.blk, self.blk_pq = blk, blk_pq
            # (5) Send-port starts (same-cycle turnaround): candidates are
            # exactly the nodes whose state changed this cycle.
            if send_cand:
                cand = _cat(send_cand, self._st_send)
                m = np.bitwise_or(
                    p_busy[cand], p_blocked[cand], out=self._bm2[: len(cand)]
                )
                np.logical_not(m, out=m)
                m &= np.greater(
                    p_injcnt[cand], p_started[cand], out=self._bm3[: len(cand)]
                )
                idx = cand[m]
                if len(idx):
                    p_busy[idx] = True
                    p_started[idx] += 1
                    s = (t + SEND) % _RING
                    ring_pexit[s].append(idx)
                    ring_occ[s] += 1
            # (6) Channel dispatch: channels whose service just ended, plus
            # channels of pairs that were pushed to, plus fresh grants.
            if poked:
                pqu = poked[0] if len(poked) == 1 else np.concatenate(poked)
                chs = self.pair_ch[pqu].ravel()
                chs = chs[chs >= 0]
                if len(chs):
                    disp_cand.append(chs)
            if disp_cand:
                rcs = _cat(disp_cand, self._st_disp)
                disp_cand.clear()
                rcs.sort()
                served = self._dispatch(t, rcs)
                tel.dispatches += served
            # (7) Receive ports: completions then starts.
            slot = ring_rexit[slot_i]
            if slot:
                rn_c = _cat(slot, self._st_rexit)
                slot.clear()
                tel.recv_completions += len(rn_c)
                r_busy[rn_c] = False
                add = np.bincount(rn_c // N, minlength=self.R)
                self.delivered_total += add
                if wu <= t < me:
                    self.delivered_measure += add
                np.subtract(self.delivered_total, self.pre_wu_inj, out=lab_cur)
                np.maximum(lab_cur, 0, out=lab_cur)
                np.minimum(lab_cur, self.lab_inj, out=lab_cur)
                d = self._rk1[: self.R]
                np.subtract(lab_cur, self.lab_del, out=d)
                d *= t
                self.sum_del_t += d
                self.lab_del[:] = lab_cur
                recv_cand.append(rn_c)
            if recv_cand:
                cand = _cat(recv_cand, self._st_recv)
                cand.sort()
                k = len(cand)
                m = bm1[:k]
                m[0] = True
                np.not_equal(cand[1:], cand[:-1], out=m[1:])
                m &= ~r_busy[cand] & (r_qlen[cand] > 0)
                idx = cand[m]
                if len(idx):
                    r_busy[idx] = True
                    r_qlen[idx] -= 1
                    s = (t + SER) % _RING
                    ring_rexit[s].append(idx)
                    ring_occ[s] += 1
            # (8) Drain checks on the scalar engine's chunk grid; drained
            # runs are compacted out of the live state entirely.
            if t >= me and (t - me) % self.chunk == 0:
                tel.drain_checks += 1
                done = self.lab_del == self.lab_inj
                if done.any():
                    self._compact(done, t)
                    tel.compactions += 1
                    if self.R == 0:
                        break
                    p_started, p_injcnt = self.p_started, self.p_injcnt
                    p_busy, p_blocked = self.p_busy, self.p_blocked
                    r_qlen, r_busy = self.r_qlen, self.r_busy
                    evt_rn, evt_off = self.evt_rn, self.evt_off
                    flat_dest, p_off = self.flat_dest, self.p_off
                    lockstep = self.lockstep_on
                    inj_cycles = self.inj_cycles
                    inj_ptr = 0
                    lab_cur = np.empty(self.R, dtype=np.int64)
            # Advance: one grid cycle in always-step mode, or jump to the
            # next cycle that can observably do something.  The two
            # mandatory-stop conditions that fire on nearly every busy
            # cycle (a freed queue slot with senders waiting, an occupied
            # ring slot at t+1) are checked inline so the full next-event
            # computation only runs when a jump is actually possible.
            if time_skip:
                if (served and len(self.blk)) or ring_occ[(t + 1) % _RING]:
                    t += 1
                else:
                    pend_min = None
                    if lockstep and (self._pend_dpm or self._pend_dbr):
                        pend_min = min(
                            min(self._pend_dpm, default=he + 1),
                            min(self._pend_dbr, default=he + 1),
                        )
                    t2, inj_ptr = next_event_time(
                        t,
                        he,
                        ring_occ,
                        inj_cycles,
                        inj_ptr,
                        lockstep,
                        Wc,
                        me,
                        self.chunk,
                        pend_min,
                        False,
                    )
                    tel.cycles_skipped += t2 - t - 1
                    t = t2
            else:
                t += 1
        self._flush_base(np.arange(self.R, dtype=np.int64), he)
        return self._payload()

    def _dispatch(self, t: int, cand: np.ndarray) -> int:
        """Serve the candidate channels (sorted, possibly repeated) at ``t``.

        Returns the number of packets taken off pair queues — the signal
        the time-skip loop uses to force a stop at ``t + 1`` while any
        sender sits blocked (a freed queue slot admits a blocked sender on
        the following cycle in the always-step engine).

        Small candidate sets (the common case outside saturation) take a
        scalar per-channel path that mirrors the vectorized arithmetic
        operation for operation: iterating channels in ascending id order
        reproduces the wavelength ranking, sequential queue pops read the
        same ring slots as the gathered ranks, and a second same-cycle
        integral flush adds exactly ``0.0`` — IEEE doubles round
        identically either way, so the fast path is bit-invisible.
        """
        n = len(cand)
        if n <= 16:
            served = 0
            prev = -1
            one = self._dispatch_one
            for rc in cand.tolist():
                if rc != prev:
                    prev = rc
                    served += one(t, rc)
            return served
        keep = self._bm1[:n]
        keep[0] = True
        np.not_equal(cand[1:], cand[:-1], out=keep[1:])
        keep &= self.c_busy_until[cand] <= t
        cand = cand[keep]
        if not len(cand):
            return 0
        pqs = self.c_pq[cand]
        has = self.tx_qlen[pqs] > 0
        cand = cand[has]
        n = len(cand)
        if not n:
            return 0
        pqs = pqs[has]
        CAP, B, D, N, CH = self.CAP, self.B, self.D, self.N, self.CH
        # Rank same-pair channels by ascending wavelength (cand is sorted
        # rc-ascending = wavelength-ascending within a pair).
        order = np.argsort(pqs, kind="stable")
        spq = pqs[order]
        # O(n) group-rank scan (see _push_pairs): identical integer ranks
        # without searchsorted's n·log n binary searches.  Temporaries
        # live in the shared scratch pools — _push_pairs's slices are dead
        # by dispatch time (phase 4 completes before phase 6).
        idx = self._iota[:n]
        sneq = self._bm2[:n]
        sneq[0] = True
        np.not_equal(spq[1:], spq[:-1], out=sneq[1:])
        rank = self._rk1[:n]
        np.multiply(sneq, idx, out=rank)
        np.maximum.accumulate(rank, out=rank)
        np.subtract(idx, rank, out=rank)
        serve = sneq
        np.less(rank, self.tx_qlen[spq], out=serve)
        chosen = cand[order][serve]
        if not len(chosen):
            return 0
        cpq = spq[serve]
        crank = rank[serve]
        ri = self._rk2[: len(cpq)]
        np.add(self.tx_head[cpq], crank, out=ri)
        ri %= CAP
        slot_base = self._rk1[: len(cpq)]  # rank's storage, dead here
        np.multiply(cpq, CAP, out=slot_base)
        ri += slot_base
        loc = self.tx_ring[ri].astype(np.int64)
        m = len(cpq)
        neq = np.empty(m, dtype=bool)
        neq[0] = True
        np.not_equal(cpq[1:], cpq[:-1], out=neq[1:])
        cut = neq.nonzero()[0]
        upq = cpq[cut]
        self._flush_occ(upq, t)
        counts = np.empty(len(cut), dtype=np.int64)
        np.subtract(cut[1:], cut[:-1], out=counts[:-1])
        counts[-1] = m - cut[-1]
        self.tx_qlen[upq] -= counts
        self.tx_head[upq] = (self.tx_head[upq] + counts) % CAP
        runs = chosen // CH
        # Wake DPM-slept lasers (the packet pays wake_cycles; the laser
        # starts drawing idle power immediately).
        slp = self.c_sleep[chosen]
        if slp.any():
            widx = chosen[slp]
            wruns = runs[slp]
            self._flush_base(np.unique(wruns), t)
            np.add.at(self.base_A, wruns, self.P_mw[self.c_level[widx]])
            self.c_sleep[widx] = False
        # From here on the float temporaries chain through the scratch
        # pools with ``out=``; every arithmetic op, and the order of the
        # unbuffered ``np.add.at`` accumulations, is unchanged — the
        # results are bit-identical, only the allocator traffic is gone.
        k2 = len(chosen)
        wake = self._rk1[:k2]  # rank/slot_base storage, dead here
        np.multiply(slp, self.WAKE, out=wake)
        wake += t
        start = self.c_stall[chosen].astype(float)
        np.maximum(start, wake, out=start)
        lvl = self.c_level[chosen].astype(np.int64)
        end = self.svc_by_level[lvl]
        end += start
        self.c_busy_until[chosen] = end
        # Busy energy over the measurement window.
        ov = self._fp1[:k2]
        np.minimum(end, self.me, out=ov)
        hi = self._fp2[:k2]
        np.maximum(start, self.wu, out=hi)
        ov -= hi
        np.maximum(ov, 0.0, out=ov)
        pw = hi  # reuse: the window-clip bound is dead
        np.multiply(self.P_mw[lvl], ov, out=pw)
        np.add.at(self.busy_E, runs, pw)
        # Link_util busy time, split at the next window boundary.
        wend = (t // self.Wc + 1) * self.Wc
        wb = ov  # reuse: the energy overlap is dead
        np.minimum(end, wend, out=wb)
        wb -= start
        np.maximum(wb, 0.0, out=wb)
        self.win_busy[chosen] += wb
        wc = pw  # reuse: the power weights are dead
        np.maximum(start, wend, out=wc)
        np.subtract(end, wc, out=wc)
        np.maximum(wc, 0.0, out=wc)
        self.win_carry[chosen] += wc
        # Deliveries (fiber + destination pipeline after service) and the
        # channel's own re-dispatch moment, grouped by completion cycle.
        np.ceil(end, out=end)
        end_i = end.astype(np.int64)
        rn_dest = self._rk2[:k2]  # ring-slot indices, dead here
        np.remainder(cpq, B, out=rn_dest)
        rn_dest *= D
        rn_dest += loc
        runs *= N
        rn_dest += runs
        order2 = np.argsort(end_i, kind="stable")
        end_s = end_i[order2]
        rn_s = rn_dest[order2]
        ch_s = chosen[order2]
        k = len(end_s)
        neq2 = np.empty(k, dtype=bool)
        neq2[0] = True
        np.not_equal(end_s[1:], end_s[:-1], out=neq2[1:])
        cut2 = neq2.nonzero()[0]
        bounds = cut2.tolist()
        bounds.append(k)
        times = end_s[cut2].tolist()
        ring_deliv, ring_cend = self.ring_deliv, self.ring_cend
        ring_occ = self.ring_occ
        deliv = self.DELIV
        for i, et in enumerate(times):
            lo = bounds[i]
            hi = bounds[i + 1]
            s1 = et % _RING
            ring_cend[s1].append(ch_s[lo:hi])
            ring_occ[s1] += 1
            s2 = (et + deliv) % _RING
            ring_deliv[s2].append(rn_s[lo:hi])
            ring_occ[s2] += 1
        return len(chosen)

    def _dispatch_one(self, t: int, rc: int) -> int:
        """Scalar dispatch of a single candidate channel (see _dispatch).

        Every expression mirrors the vectorized path's elementwise
        arithmetic exactly; only the array machinery is gone.
        """
        if self.c_busy_until[rc] > t:
            return 0
        pq = int(self.c_pq[rc])
        qlen = int(self.tx_qlen[pq])
        if qlen <= 0:
            return 0
        CAP = self.CAP
        head = int(self.tx_head[pq])
        loc = int(self.tx_ring[pq * CAP + head % CAP])
        self.occ_acc[pq] += qlen * (t - int(self.q_last[pq]))
        self.q_last[pq] = t
        self.tx_qlen[pq] = qlen - 1
        self.tx_head[pq] = (head + 1) % CAP
        run = rc // self.CH
        lvl = int(self.c_level[rc])
        slp = bool(self.c_sleep[rc])
        if slp:
            bl = float(self.base_last[run])
            ovb = max(min(t, self.me) - max(bl, self.wu), 0.0)
            self.base_E[run] += self.base_A[run] * ovb
            self.base_last[run] = t
            self.base_A[run] += self.P_mw[lvl]
            self.c_sleep[rc] = False
        start = float(max(t + self.WAKE * slp, int(self.c_stall[rc])))
        end = start + float(self.svc_by_level[lvl])
        self.c_busy_until[rc] = end
        ov = max(min(end, self.me) - max(start, self.wu), 0.0)
        self.busy_E[run] += float(self.P_mw[lvl]) * ov
        wend = (t // self.Wc + 1) * self.Wc
        self.win_busy[rc] += max(min(end, wend) - start, 0.0)
        self.win_carry[rc] += max(end - max(start, wend), 0.0)
        end_i = math.ceil(end)
        rn_dest = run * self.N + (pq % self.B) * self.D + loc
        s1 = end_i % _RING
        self.ring_cend[s1].append(np.array([rc], dtype=np.int64))
        self.ring_occ[s1] += 1
        s2 = (end_i + self.DELIV) % _RING
        self.ring_deliv[s2].append(np.array([rn_dest], dtype=np.int64))
        self.ring_occ[s2] += 1
        return 1

    def _scatter(self, rows: np.ndarray) -> None:
        """Write these live rows' final metrics at their original slots.

        The per-run arithmetic (labeled-latency FIFO proxy, energy /
        measure-window division) happens here, on the producer side, with
        the exact scalar expressions the engine always used — the decoder
        only unpacks, so where a payload is produced never affects the
        bits of the results.
        """
        if not len(rows):
            return
        o = self.orig[rows]
        self.out_delivered[o] = self.delivered_measure[rows]
        self.out_inj[o] = self.inj_measure[rows]
        self.out_lab_inj[o] = self.lab_inj[rows]
        self.out_lab_del[o] = self.lab_del[rows]
        self.out_grants[o] = self.grants[rows]
        self.out_dpm[o] = self.dpm_transitions[rows]
        self.out_sleeps[o] = self.sleeps[rows]
        self.out_power[o] = (
            self.idle_frac * self.base_E[rows]
            + (1.0 - self.idle_frac) * self.busy_E[rows]
        ) / self.measure
        owned = (self.c_owner >= 0).reshape(self.R, self.CH)
        self.out_lasers[o] = np.count_nonzero(owned[rows], axis=1)
        for i, r in zip(o.tolist(), rows.tolist()):
            lab_del = int(self.lab_del[r])
            if lab_del > 0:
                self.out_avg_lat[i] = float(
                    (self.sum_del_t[r] - self.lab_prefix[r][lab_del]) / lab_del
                )

    def _compact(self, done: np.ndarray, t: int) -> None:
        """Remove drained runs from the live state (order-preserving).

        Scatters their final metrics into the original-index output
        arrays, then compacts every run/node/pair/channel array and remaps
        every stored index (ring events, blocked senders, injection CSR,
        channel<->pair cross-references, pending control-plane plans).
        The remap preserves relative order, so every later stable sort
        produces the same permutation of the surviving rows — compaction
        is bit-invisible to the results.  Replaces the old per-phase
        active-mask filtering: the loop pays for drained runs exactly
        once, here.
        """
        R, N, B, CH, CAP = self.R, self.N, self.B, self.CH, self.CAP
        BB = B * B
        frozen = np.flatnonzero(done)
        self._flush_base(frozen, t)
        self._scatter(frozen)
        keep_r = ~done
        R2 = int(np.count_nonzero(keep_r))
        self.orig = self.orig[keep_r]
        new_of_old = np.cumsum(keep_r, dtype=np.int64) - 1
        for name in (
            "inj_measure", "pre_wu_inj", "lab_inj", "delivered_total",
            "delivered_measure", "lab_del", "sum_del_t", "base_A",
            "base_last", "base_E", "busy_E", "grants", "dpm_transitions",
            "sleeps", "run_dpm", "run_dbr",
        ):
            setattr(self, name, getattr(self, name)[keep_r])
        keep_list = keep_r.tolist()
        self.lab_prefix = [p for p, k in zip(self.lab_prefix, keep_list) if k]
        self._policies = [p for p, k in zip(self._policies, keep_list) if k]
        self._workloads = [w for w, k in zip(self._workloads, keep_list) if k]
        # Node-major arrays + the blocked-sender list.
        keep_n = np.repeat(keep_r, N)
        for name in (
            "p_injcnt", "p_started", "p_busy", "p_blocked", "r_qlen", "r_busy",
        ):
            setattr(self, name, getattr(self, name)[keep_n])
        if len(self.blk):
            kb = keep_n[self.blk]
            blk, bpq = self.blk[kb], self.blk_pq[kb]
            self.blk = new_of_old[blk // N] * N + blk % N
            self.blk_pq = new_of_old[bpq // BB] * BB + bpq % BB
        # Pair-major arrays (tx_ring is CAP-wide per pair) and the
        # pair -> channels reverse index (values are channel ids).
        keep_pq = np.repeat(keep_r, BB)
        for name in ("tx_head", "tx_qlen", "occ_acc", "q_last", "pair_nch"):
            setattr(self, name, getattr(self, name)[keep_pq])
        self.tx_ring = self.tx_ring.reshape(R, BB * CAP)[keep_r].ravel()
        pc = self.pair_ch[keep_pq]
        pos = pc >= 0
        v = pc[pos]
        pc[pos] = new_of_old[v // CH] * CH + v % CH
        self.pair_ch = pc
        # Channel-major arrays and the channel -> pair index.
        keep_rc = np.repeat(keep_r, CH)
        for name in (
            "c_owner", "c_level", "c_sleep", "c_stall", "c_busy_until",
            "win_busy", "win_carry", "thr_lmin_rc", "thr_lmax_rc",
            "thr_bmax_rc",
        ):
            setattr(self, name, getattr(self, name)[keep_rc])
        cpq = self.c_pq[keep_rc]
        cpq = new_of_old[cpq // BB] * BB + cpq % BB
        # Unowned channels keep the placeholder pair 0 (never read).
        cpq[self.c_owner < 0] = 0
        self.c_pq = cpq
        # Injection CSR: drop removed nodes' events, recount offsets.
        ev_keep = keep_n[self.evt_rn]
        csum = np.zeros(len(ev_keep) + 1, dtype=np.int64)
        np.cumsum(ev_keep, dtype=np.int64, out=csum[1:])
        self.evt_off = csum[self.evt_off]
        rn = self.evt_rn[ev_keep]
        self.evt_rn = new_of_old[rn // N] * N + rn % N
        self.inj_cycles = np.flatnonzero(np.diff(self.evt_off) > 0).astype(
            np.int64
        )
        # Destination streams.
        node_counts = np.diff(self.p_off)
        el_keep = np.repeat(keep_n, node_counts)
        self.flat_dest = self.flat_dest[el_keep]
        kept_counts = node_counts[keep_n]
        self.p_off = np.zeros(len(kept_counts) + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=self.p_off[1:])
        # Event rings: filter each slot's arrays, remap, recount occupancy.
        self.ring_occ.fill(0)
        for ring, div, keep_i in (
            (self.ring_deliv, N, keep_n),
            (self.ring_pexit, N, keep_n),
            (self.ring_rexit, N, keep_n),
            (self.ring_cend, CH, keep_rc),
        ):
            for s, slot in enumerate(ring):
                if not slot:
                    continue
                new_slot = []
                for arr in slot:
                    arr = arr[keep_i[arr]]
                    if len(arr):
                        new_slot.append(
                            new_of_old[arr // div] * div + arr % div
                        )
                slot[:] = new_slot
                self.ring_occ[s] += len(new_slot)
        # Pending control-plane plans: snapshots shrink with the state.
        for key in list(self._pend_dpm):
            util, bu, qe, run_power = self._pend_dpm[key]
            self._pend_dpm[key] = (
                util[keep_rc], bu[keep_rc], qe[keep_rc], run_power[keep_r]
            )
        for key in list(self._pend_dbr):
            rc_idx, new_owner = self._pend_dbr[key]
            m = keep_rc[rc_idx]
            rc_idx, new_owner = rc_idx[m], new_owner[m]
            if len(rc_idx):
                rc_idx = new_of_old[rc_idx // CH] * CH + rc_idx % CH
                self._pend_dbr[key] = (rc_idx, new_owner)
            else:
                del self._pend_dbr[key]
        self.R = R2
        self.lockstep_on = bool((self.run_dpm | self.run_dbr).any())
        if not self.lockstep_on:
            # No surviving run is power-aware: any leftover pending plan
            # could only have touched removed runs (a provable no-op), so
            # drop it rather than have the skip loop stop for it.
            self._pend_dpm.clear()
            self._pend_dbr.clear()

    # ------------------------------------------------------------------
    def _payload(self) -> BatchResultPayload:
        """Package the original-index output arrays as the transport.

        Runs that drained mid-slab were scattered at compaction time;
        this scatters whatever is still live, so the payload always spans
        the engine's original run list regardless of how many compactions
        happened along the way.
        """
        self._scatter(np.arange(self.R, dtype=np.int64))
        return BatchResultPayload(
            delivered_measure=self.out_delivered,
            inj_measure=self.out_inj,
            lab_inj=self.out_lab_inj,
            lab_del=self.out_lab_del,
            avg_latency=self.out_avg_lat,
            power_mw=self.out_power,
            grants=self.out_grants,
            dpm_transitions=self.out_dpm,
            sleeps=self.out_sleeps,
            lasers_on_final=self.out_lasers,
        )
