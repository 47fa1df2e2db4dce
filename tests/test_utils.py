"""Tests for seeding and logging utilities."""

import logging

from repro.utils import SeedSequence, get_logger, new_rng
from repro.utils.seeding import derive_seed


class TestSeeding:
    def test_same_seed_same_stream(self):
        a = new_rng(42).random(5)
        b = new_rng(42).random(5)
        assert (a == b).all()

    def test_derive_seed_stable(self):
        assert derive_seed(1, "env") == derive_seed(1, "env")

    def test_derive_seed_differs_by_stream(self):
        assert derive_seed(1, "env") != derive_seed(1, "ppo")

    def test_derive_seed_differs_by_base(self):
        assert derive_seed(1, "env") != derive_seed(2, "env")

    def test_seed_sequence_reproducible(self):
        s1 = SeedSequence(7).rng("x").random(3)
        s2 = SeedSequence(7).rng("x").random(3)
        assert (s1 == s2).all()

    def test_seed_sequence_streams_independent(self):
        seq = SeedSequence(7)
        assert not (seq.rng("a").random(3) == seq.rng("b").random(3)).all()


class TestLogger:
    def test_namespacing(self):
        logger = get_logger("trainer")
        assert logger.name == "repro.trainer"

    def test_full_name_kept(self):
        logger = get_logger("repro.thermal")
        assert logger.name == "repro.thermal"

    def test_is_logging_logger(self):
        assert isinstance(get_logger("x"), logging.Logger)
