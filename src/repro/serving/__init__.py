"""Serving layer: request streams, cluster scheduling, SLO reports.

Turns the offline corpus grids of :mod:`repro.harness` into the workload the
paper actually targets — live ASR traffic.  An event-driven simulator feeds
Poisson/trace arrivals through a bounded admission queue into a continuous
micro-batch scheduler that places draft/verify decode *phases* across a
simulated accelerator cluster (colocated sharding, draft/target
disaggregation, or merged cross-request verification), and the report
answers the deployment question: how much traffic does each decoding method
sustain at a fixed latency SLO, on how many devices?

A seeded :class:`~repro.serving.faults.FaultPlan` injects chaos — device
crashes with warm restarts and transient phase errors — and the scheduler
recovers deterministically: failed phases requeue with bounded exponential
backoff, pools re-plan on membership change, and overload sheds work by
priority class instead of blowing every SLO at once.  A permanently slow
part is a device spec (``3x1,1x0.05``), not a fault.

Memory is a first-class scheduling constraint: a paged KV-block allocator
(:mod:`repro.serving.memory`) bills draft- and target-model cache residency
per session, gates dispatch on free blocks, LRU-evicts idle sessions under
pressure (resume pays a simulated re-prefill), and shares committed prefix
blocks copy-on-write across requests decoding the same utterance.
"""

from repro.serving.arrivals import (
    Arrival,
    chunk_schedule,
    load_trace,
    make_trace,
    offered_qps,
    poisson_trace,
    positions_available,
    save_trace,
    uniform_trace,
)
from repro.serving.devices import (
    MODEL_SWITCH_COST,
    Device,
    DeviceSpec,
    format_device_specs,
    make_devices,
    parse_device_specs,
)
from repro.serving.faults import (
    DeviceCrash,
    DeviceFaultProfile,
    FaultPlan,
    PhaseErrorRate,
    parse_fault_spec,
)
from repro.serving.memory import DEFAULT_BLOCK_SIZE, ClusterKVMemory, MemorySpec
from repro.serving.queue import AdmissionQueue
from repro.serving.report import ServeReport, StreamingSummary
from repro.serving.request import (
    PRIORITY_BATCH,
    PRIORITY_CLASSES,
    PRIORITY_INTERACTIVE,
    SHED_CAPACITY,
    SHED_DEADLINE,
    SHED_MEMORY,
    SHED_RETRIES,
    STATUS_COMPLETED,
    STATUS_PENDING,
    STATUS_REJECTED,
    STATUS_SHED,
    RequestRecord,
    ServeRequest,
    priority_rank,
)
from repro.serving.router import (
    ROUTER_COLOCATED,
    ROUTER_DISAGGREGATED,
    ROUTER_MERGED,
    ROUTER_POLICIES,
    ROUTER_REGISTRY,
    ClusterSpec,
    build_router,
    measure_draft_share,
    plan_pool_split,
)
from repro.serving.scheduler import (
    ContinuousBatchScheduler,
    SchedulerConfig,
    ScheduleStats,
    StreamSpec,
)
from repro.serving.simulator import (
    ChaosSpec,
    ServeSimConfig,
    build_decoder,
    max_sustainable_qps,
    simulate,
)

__all__ = [
    "AdmissionQueue",
    "Arrival",
    "ChaosSpec",
    "ClusterKVMemory",
    "ClusterSpec",
    "ContinuousBatchScheduler",
    "DEFAULT_BLOCK_SIZE",
    "Device",
    "DeviceCrash",
    "DeviceFaultProfile",
    "DeviceSpec",
    "FaultPlan",
    "MODEL_SWITCH_COST",
    "MemorySpec",
    "PRIORITY_BATCH",
    "PRIORITY_CLASSES",
    "PRIORITY_INTERACTIVE",
    "PhaseErrorRate",
    "ROUTER_COLOCATED",
    "ROUTER_DISAGGREGATED",
    "ROUTER_MERGED",
    "ROUTER_POLICIES",
    "ROUTER_REGISTRY",
    "RequestRecord",
    "SHED_CAPACITY",
    "SHED_DEADLINE",
    "SHED_MEMORY",
    "SHED_RETRIES",
    "STATUS_COMPLETED",
    "STATUS_PENDING",
    "STATUS_REJECTED",
    "STATUS_SHED",
    "ScheduleStats",
    "SchedulerConfig",
    "ServeReport",
    "ServeRequest",
    "ServeSimConfig",
    "StreamSpec",
    "StreamingSummary",
    "build_decoder",
    "build_router",
    "chunk_schedule",
    "format_device_specs",
    "load_trace",
    "make_devices",
    "make_trace",
    "max_sustainable_qps",
    "measure_draft_share",
    "offered_qps",
    "parse_device_specs",
    "parse_fault_spec",
    "plan_pool_split",
    "poisson_trace",
    "positions_available",
    "priority_rank",
    "save_trace",
    "simulate",
    "uniform_trace",
]
