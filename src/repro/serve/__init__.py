"""Floorplanning-as-a-service: warm-path server over the run store.

The persistent serving layer the ROADMAP's "millions of users" story
asks for: policies load once, ``FastThermalModel`` tables and
``GridThermalSolver`` factorizations stay warm across requests
(:mod:`~repro.serve.registry`), concurrent requests coalesce into the
batched ``evaluate_batch``/``act_batch`` engines
(:mod:`~repro.serve.batcher`), and whole placement requests memoize
through :class:`~repro.store.RunStore` content addressing
(:mod:`~repro.serve.engine`).  A served placement is bitwise identical
to the same request run through ``repro.cli``.
"""

from repro.blas import apply_thread_policy

apply_thread_policy()  # before numpy loads; see repro.blas

from repro.serve.batcher import MicroBatcher  # noqa: E402
from repro.serve.client import ServeClient, ServeError  # noqa: E402
from repro.serve.engine import SERVE_PLACE_KIND, ServeEngine, place_store_key  # noqa: E402
from repro.serve.registry import EvaluatorBundle, WarmRegistry, bundle_key  # noqa: E402
from repro.serve.schema import BadRequest, budget_from_dict, budget_to_dict  # noqa: E402
from repro.serve.server import FloorplanServer, serve_forever  # noqa: E402

__all__ = [
    "BadRequest",
    "EvaluatorBundle",
    "FloorplanServer",
    "MicroBatcher",
    "SERVE_PLACE_KIND",
    "ServeClient",
    "ServeEngine",
    "ServeError",
    "WarmRegistry",
    "budget_from_dict",
    "budget_to_dict",
    "bundle_key",
    "place_store_key",
    "serve_forever",
]
