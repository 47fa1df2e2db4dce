"""Small cross-cutting utilities: seeding, logging."""

from repro.utils.seeding import SeedSequence, new_rng
from repro.utils.log import get_logger

__all__ = ["SeedSequence", "new_rng", "get_logger"]
