"""edgegate: a simulated edge access-control and safety-monitoring stack with
an offline-first durable uplink to a mock append-only cloud sink."""

from .auth import (
    AccessEngine,
    AuthConfig,
    FallbackMode,
    GateActuator,
    Outcome,
    PolicyCache,
    check_temporal,
    fallback_decision,
    validate_uid_format,
)
from .codec import CloudRecord, decode, encode, idempotency_key
from .core import AccessPolicy, DeviceId, Timestamp, Uid, Weekday, seconds_of_day, weekday_of
from .metrics import MetricsReport, compute_metrics, render_report
from .safety import (
    FlameParams,
    FlameSample,
    KalmanState,
    RollingWindow,
    SafetyMonitor,
    detect_flame,
    flame_threshold,
    flow_anomaly,
    kalman_update,
    window_push,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .sim import NetworkModel, SimClock, Simulation, run
from .sink import CloudSink
from .sync import OutboxQueue, RetryPolicy, SyncClient, backoff_delay
from .trace import EventTrace, GroundTruth
from .wire import RemoteSink, SinkServer

__version__ = "0.1.0"

__all__ = [
    "AccessEngine",
    "AccessPolicy",
    "AuthConfig",
    "CloudRecord",
    "CloudSink",
    "DeviceId",
    "EventTrace",
    "FallbackMode",
    "FlameParams",
    "FlameSample",
    "GateActuator",
    "GroundTruth",
    "KalmanState",
    "MetricsReport",
    "NetworkModel",
    "Outcome",
    "OutboxQueue",
    "PolicyCache",
    "RemoteSink",
    "RetryPolicy",
    "RollingWindow",
    "SafetyMonitor",
    "Scenario",
    "SimClock",
    "Simulation",
    "SinkServer",
    "SyncClient",
    "Timestamp",
    "Uid",
    "Weekday",
    "backoff_delay",
    "check_temporal",
    "compute_metrics",
    "decode",
    "detect_flame",
    "encode",
    "fallback_decision",
    "flame_threshold",
    "flow_anomaly",
    "idempotency_key",
    "kalman_update",
    "load_scenario",
    "parse_scenario",
    "render_report",
    "run",
    "seconds_of_day",
    "validate_uid_format",
    "weekday_of",
    "window_push",
]
