"""edgegate: a simulated edge access-control and safety-monitoring stack with
an offline-first durable uplink to a mock append-only cloud sink."""

__version__ = "0.1.0"
