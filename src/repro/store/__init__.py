"""Run-store subsystem: content-addressed results + resume checkpoints."""

from repro.store.runstore import (
    DEFAULT_STORE_DIR,
    Canonical,
    STORE_SCHEMA_VERSION,
    RunStore,
    store_key,
)

__all__ = [
    "Canonical",
    "DEFAULT_STORE_DIR",
    "STORE_SCHEMA_VERSION",
    "RunStore",
    "store_key",
]
