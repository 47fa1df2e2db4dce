"""Tests for the fast thermal model and its characterization."""

from dataclasses import fields

import numpy as np
import pytest

from repro.chiplet import Chiplet, ChipletSystem, Interposer, Placement
from repro.nn import PayloadIntegrityError
from repro.thermal import (
    FastThermalModel,
    GridThermalSolver,
    ResistanceTables,
    ThermalConfig,
    characterize_tables,
    error_metrics,
)
from repro.thermal.characterize import (
    characterize_for_system,
    load_or_characterize,
    tables_fingerprint,
)
from repro.thermal.fast_model import SizeTables, size_key


class TestTables:
    def test_sizes_present(self, small_tables):
        assert small_tables.has_size(8, 8)
        assert small_tables.has_size(6, 6)
        assert small_tables.has_size(4, 6)
        assert small_tables.has_size(6, 4)  # rotation of the io die

    def test_missing_size_raises(self, small_tables):
        with pytest.raises(KeyError, match="characterization"):
            small_tables.for_size(11.0, 13.0)

    def test_size_key_quantization(self):
        assert size_key(5.0, 5.0) == size_key(5.0000004, 5.0)
        assert size_key(5.0, 5.0) != size_key(5.01, 5.0)

    def test_r_self_positive_and_edge_heavier(self, small_tables):
        st = small_tables.for_size(8, 8)
        assert np.all(st.r_self > 0)
        center, corner = st.r_self_at_many([15.0, 4.0], [15.0, 4.0])
        assert corner > center

    def test_mutual_profile_decreasing_overall(self, small_tables):
        st = small_tables.for_size(8, 8)
        (profile,) = st.mutual_profiles_many([15.0], [15.0])
        # Near field should dominate far field.
        assert profile[1] > profile[-1] > 0

    def test_profile_normalized(self, small_tables):
        st = small_tables.for_size(8, 8)
        assert st.profile.max() == pytest.approx(1.0)
        assert np.all(st.profile > 0)

    def test_sample_offsets_inside_die(self, small_tables):
        st = small_tables.for_size(8, 8)
        pts = st.sample_offsets()
        assert np.all(pts[:, 0] > 0) and np.all(pts[:, 0] < st.width)
        assert np.all(pts[:, 1] > 0) and np.all(pts[:, 1] < st.height)

    def test_save_load_roundtrip(self, small_tables, tmp_path):
        path = tmp_path / "tables.npz"
        small_tables.save(path)
        loaded = ResistanceTables.load(path)
        for name in ("ambient", "interposer_width", "interposer_height"):
            assert getattr(loaded, name) == getattr(small_tables, name)
        assert loaded.fingerprint == small_tables.fingerprint
        assert list(loaded.tables) == list(small_tables.tables)
        for key, original in small_tables.tables.items():
            for f in fields(SizeTables):
                want = getattr(original, f.name)
                got = getattr(loaded.tables[key], f.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype, f.name
                    assert got.shape == want.shape, f.name
                    assert got.tobytes() == want.tobytes(), f.name
                else:
                    assert type(got) is type(want) and got == want, f.name
        # Interpolators must behave identically after reload.
        st_orig = small_tables.for_size(8, 8)
        st_load = loaded.for_size(8, 8)
        assert (
            st_load.r_self_at_many([12.3], [9.7])[0]
            == st_orig.r_self_at_many([12.3], [9.7])[0]
        )


class TestCharacterization:
    def test_fingerprint_stability(self, small_interposer, small_config):
        fp1 = tables_fingerprint(small_interposer, [(8, 8)], small_config, (5, 5))
        fp2 = tables_fingerprint(small_interposer, [(8, 8)], small_config, (5, 5))
        assert fp1 == fp2

    def test_fingerprint_sensitivity(self, small_interposer, small_config):
        base = tables_fingerprint(small_interposer, [(8, 8)], small_config, (5, 5))
        assert base != tables_fingerprint(
            small_interposer, [(8, 9)], small_config, (5, 5)
        )
        assert base != tables_fingerprint(
            small_interposer, [(8, 8)], small_config, (3, 3)
        )

    def test_fingerprint_orphans_v3_tables(self, small_interposer, small_config):
        """Tables from the pivoted column-by-column solver are not reused.

        The symmetric factorization and the blocked sweep move every
        table entry at the 1e-13 level, so the fingerprint's version
        prefix changed and a v3 cache entry is never loaded.
        """
        v3 = "7931e3afd3f19e22"  # the same input under the "v3" prefix
        assert (
            tables_fingerprint(small_interposer, [(8, 8)], small_config, (5, 5))
            != v3
        )

    def test_oversized_die_rejected(self, small_interposer, small_config):
        with pytest.raises(ValueError, match="fit"):
            characterize_tables(
                small_interposer, [(40, 40)], small_config, position_samples=(2, 2)
            )

    def test_characterize_for_system_includes_rotations(
        self, small_system, small_config, small_tables
    ):
        # The session fixture already covers this path; check size set.
        assert small_tables.n_sizes == 4  # 8x8, 6x6, 4x6, 6x4

    def test_cache_roundtrip(self, small_interposer, small_config, tmp_path):
        tables1 = load_or_characterize(
            small_interposer,
            [(6, 6)],
            small_config,
            position_samples=(3, 3),
            cache_dir=tmp_path,
        )
        cached = list(tmp_path.glob("thermal_tables_*.npz"))
        assert len(cached) == 1
        tables2 = load_or_characterize(
            small_interposer,
            [(6, 6)],
            small_config,
            position_samples=(3, 3),
            cache_dir=tmp_path,
        )
        st1, st2 = tables1.for_size(6, 6), tables2.for_size(6, 6)
        assert np.allclose(st1.r_self, st2.r_self)

    def test_flipped_byte_in_cached_tables_raises(
        self, small_interposer, small_config, tmp_path
    ):
        def load():
            return load_or_characterize(
                small_interposer,
                [(6, 6)],
                small_config,
                position_samples=(3, 3),
                cache_dir=tmp_path,
            )

        load()
        (path,) = tmp_path.glob("thermal_tables_*.npz")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x04
        path.write_bytes(bytes(blob))
        with pytest.raises(PayloadIntegrityError, match=path.name):
            load()


class TestFastModelAccuracy:
    def test_ambient_mismatch_rejected(self, small_tables):
        other = ThermalConfig(rows=32, cols=32, ambient=300.0)
        with pytest.raises(ValueError, match="ambient"):
            FastThermalModel(small_tables, other)

    def test_empty_placement(self, small_system, small_fast_model, small_config):
        result = small_fast_model.evaluate(Placement(small_system))
        assert result.max_temperature == small_config.ambient

    def test_single_die_accuracy(
        self, small_interposer, small_solver, small_fast_model, small_config
    ):
        system = ChipletSystem(
            "one", small_interposer, (Chiplet("hot", 8, 8, 60.0),)
        )
        rng = np.random.default_rng(0)
        errors = []
        for _ in range(10):
            p = Placement(system)
            p.place("hot", rng.uniform(0, 22), rng.uniform(0, 22))
            ref = small_solver.evaluate(p).max_temperature
            fast = small_fast_model.evaluate(p).max_temperature
            errors.append(fast - ref)
        assert np.mean(np.abs(errors)) < 0.5

    def test_multi_die_accuracy(
        self, small_system, small_solver, small_fast_model
    ):
        rng = np.random.default_rng(1)
        errors = []
        for _ in range(10):
            p = _random_legal_placement(small_system, rng)
            ref = small_solver.evaluate(p)
            fast = small_fast_model.evaluate(p)
            errors.append(fast.max_temperature - ref.max_temperature)
        assert np.mean(np.abs(errors)) < 0.8

    def test_linearity(self, small_interposer, small_tables, small_config):
        """The surrogate is exactly linear in power by construction."""
        model = FastThermalModel(small_tables, small_config)
        rises = []
        for power in (30.0, 60.0):
            system = ChipletSystem(
                "one", small_interposer, (Chiplet("hot", 8, 8, power),)
            )
            p = Placement(system)
            p.place("hot", 10, 10)
            result = model.evaluate(p)
            rises.append(result.max_temperature - small_config.ambient)
        assert rises[1] == pytest.approx(2 * rises[0], rel=1e-9)

    def test_much_faster_than_solver(
        self, small_system, small_solver, small_fast_model
    ):
        p = _random_legal_placement(small_system, np.random.default_rng(2))
        # Best of three per evaluator: single-sample wall-clock
        # comparisons are flaky under CPU-frequency noise.
        ref = min(small_solver.evaluate(p).elapsed for _ in range(3))
        fast = min(small_fast_model.evaluate(p).elapsed for _ in range(3))
        assert fast < ref

    def test_rotation_uses_rotated_tables(self, small_system, small_fast_model):
        p = Placement(small_system)
        p.place("hot", 2, 2)
        p.place("warm", 2, 20)
        p.place("cold", 20, 2, rotated=True)  # 6x4 footprint
        result = small_fast_model.evaluate(p)
        assert "cold" in result.chiplet_temperatures


class TestGoldenErrorEnvelope:
    """The paper's accuracy envelope, locked in as a regression gate.

    Characterize once on a small grid, then assert the surrogate's
    peak-temperature predictions stay within the named constants of
    :mod:`repro.thermal.fast_model` against the ground-truth solver.  A
    solver or characterization change that drifts outside the envelope
    fails here instead of silently skewing reproduced tables.
    """

    def test_peak_predictions_within_envelope(
        self, small_system, small_solver, small_fast_model
    ):
        from repro.thermal.fast_model import (
            PEAK_TEMP_MAX_ERROR_C,
            PEAK_TEMP_MEAN_ERROR_C,
        )

        rng = np.random.default_rng(42)
        errors = []
        for _ in range(15):
            p = _random_legal_placement(small_system, rng)
            ref = small_solver.evaluate(p).max_temperature
            fast = small_fast_model.evaluate(p).max_temperature
            errors.append(abs(fast - ref))
        errors = np.array(errors)
        assert errors.max() < PEAK_TEMP_MAX_ERROR_C
        assert errors.mean() < PEAK_TEMP_MEAN_ERROR_C


class TestEvaluateBatch:
    def test_matches_scalar_evaluation(self, small_system, small_fast_model):
        rng = np.random.default_rng(9)
        placements = [
            _random_legal_placement(small_system, rng) for _ in range(6)
        ]
        batch = small_fast_model.evaluate_batch(placements)
        assert len(batch) == 6
        for result, placement in zip(batch, placements):
            scalar = small_fast_model.evaluate(placement)
            assert result.max_temperature == pytest.approx(
                scalar.max_temperature, rel=1e-9
            )
            for name, temp in scalar.chiplet_temperatures.items():
                assert result.chiplet_temperatures[name] == pytest.approx(
                    temp, rel=1e-9
                )

    def test_mixed_rotation_batch(self, small_system, small_fast_model):
        """Rotated and upright episodes share one batch correctly."""
        p_upright = Placement(small_system)
        p_upright.place("hot", 2, 2)
        p_upright.place("warm", 2, 20)
        p_upright.place("cold", 20, 2)
        p_rotated = Placement(small_system)
        p_rotated.place("hot", 2, 2)
        p_rotated.place("warm", 2, 20)
        p_rotated.place("cold", 20, 2, rotated=True)
        batch = small_fast_model.evaluate_batch([p_upright, p_rotated])
        for result, placement in zip(batch, (p_upright, p_rotated)):
            scalar = small_fast_model.evaluate(placement)
            assert result.max_temperature == pytest.approx(
                scalar.max_temperature, rel=1e-9
            )

    def test_heterogeneous_batch_falls_back(
        self, small_system, small_fast_model
    ):
        """Different placed sets cannot vectorize; scalar fallback."""
        p_full = Placement(small_system)
        p_full.place("hot", 2, 2)
        p_full.place("warm", 2, 20)
        p_full.place("cold", 20, 2)
        p_partial = Placement(small_system)
        p_partial.place("hot", 10, 10)
        batch = small_fast_model.evaluate_batch([p_full, p_partial])
        assert batch[0].max_temperature == pytest.approx(
            small_fast_model.evaluate(p_full).max_temperature, rel=1e-12
        )
        assert batch[1].max_temperature == pytest.approx(
            small_fast_model.evaluate(p_partial).max_temperature, rel=1e-12
        )

    def test_empty_batch(self, small_fast_model):
        assert small_fast_model.evaluate_batch([]) == []

    def test_reward_calculator_batch(self, small_system, small_fast_model):
        from repro.reward import RewardCalculator, RewardConfig

        calc = RewardCalculator(
            small_fast_model,
            RewardConfig(lambda_wl=1e-4, use_bump_assignment=False),
        )
        rng = np.random.default_rng(3)
        placements = [
            _random_legal_placement(small_system, rng) for _ in range(4)
        ]
        batch = calc.evaluate_batch(placements)
        for breakdown, placement in zip(batch, placements):
            scalar = calc.evaluate(placement)
            assert breakdown.reward == pytest.approx(scalar.reward, rel=1e-9)
            assert breakdown.wirelength == pytest.approx(
                scalar.wirelength, rel=1e-12
            )


class TestMetrics:
    def test_known_values(self):
        metrics = error_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 2.0])
        assert metrics["mse"] == pytest.approx(1.0 / 3.0)
        assert metrics["rmse"] == pytest.approx(np.sqrt(1.0 / 3.0))
        assert metrics["mae"] == pytest.approx(1.0 / 3.0)
        assert metrics["n"] == 3

    def test_perfect_prediction(self):
        metrics = error_metrics([5.0, 6.0], [5.0, 6.0])
        assert metrics["mse"] == 0.0
        assert metrics["mape"] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_metrics([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_metrics([], [])

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            error_metrics([1.0], [0.0])


def _random_legal_placement(system, rng, spacing=0.2):
    """Rejection-sample a legal placement for small systems."""
    from repro.geometry import Rect

    interposer = system.interposer
    while True:
        rects = {}
        ok = True
        for chiplet in system.chiplets:
            x = rng.uniform(0, interposer.width - chiplet.width)
            y = rng.uniform(0, interposer.height - chiplet.height)
            rect = Rect(x, y, chiplet.width, chiplet.height)
            if any(
                rect.inflated(spacing).overlaps(other) for other in rects.values()
            ):
                ok = False
                break
            rects[chiplet.name] = rect
        if ok:
            placement = Placement(system)
            for name, rect in rects.items():
                placement.place(name, rect.x, rect.y)
            return placement
