"""Simulation utilities: a slice-aware clock, churn schedules for the
scalability experiment (users/services joining and leaving mid-run), and
fault injection for hardening the serving stack (hostile streams,
kill-and-restart crash/recovery checks, and primary/standby failover
drills with partitioned replica links)."""

from repro.simulation.clock import SimClock
from repro.simulation.churn import ChurnEvent, ChurnSchedule
from repro.simulation.faults import (
    CORE_METRIC_FAMILIES,
    DrillReport,
    FaultConfig,
    FaultEvent,
    FaultInjector,
    FaultyReplicaLink,
    LinkFaultConfig,
    check_metrics_exposition,
    drive_client,
    run_crash_recovery,
    run_failover,
    run_flood,
    run_migration_kill,
    run_shard_kill,
)

__all__ = [
    "SimClock",
    "ChurnEvent",
    "ChurnSchedule",
    "CORE_METRIC_FAMILIES",
    "DrillReport",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultyReplicaLink",
    "LinkFaultConfig",
    "check_metrics_exposition",
    "drive_client",
    "run_crash_recovery",
    "run_failover",
    "run_flood",
    "run_migration_kill",
    "run_shard_kill",
]
