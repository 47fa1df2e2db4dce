"""Physics tests for the grid thermal solver (the HotSpot stand-in)."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.baselines import TAP25DPlacer
from repro.chiplet import Chiplet, ChipletSystem, Interposer, Placement
from repro.systems import get_benchmark
from repro.thermal import GridThermalSolver, ThermalConfig, characterize_tables
from repro.thermal.config import KELVIN_OFFSET
from repro.thermal.materials import MATERIALS, Material
from repro.thermal.stack import Layer, LayerStack, default_chiplet_stack


def one_die_system(interposer, power=50.0, w=8.0, h=8.0):
    return ChipletSystem(
        "one", interposer, (Chiplet("die", w, h, power),)
    )


class TestBasicPhysics:
    def test_zero_power_is_ambient(self, small_interposer, small_config, small_solver):
        system = one_die_system(small_interposer, power=0.0)
        p = Placement(system)
        p.place("die", 10, 10)
        result = small_solver.evaluate(p)
        assert result.max_temperature == pytest.approx(
            small_config.ambient, abs=1e-6
        )

    def test_power_raises_temperature(self, small_interposer, small_config, small_solver):
        system = one_die_system(small_interposer, power=50.0)
        p = Placement(system)
        p.place("die", 10, 10)
        result = small_solver.evaluate(p)
        assert result.max_temperature > small_config.ambient + 5.0

    def test_linearity_in_power(self, small_interposer, small_solver, small_config):
        """Doubling power doubles the rise (LTI network)."""
        rises = []
        for power in (20.0, 40.0):
            system = one_die_system(small_interposer, power=power)
            p = Placement(system)
            p.place("die", 11, 11)
            result = small_solver.evaluate(p)
            rises.append(result.max_temperature - small_config.ambient)
        assert rises[1] == pytest.approx(2.0 * rises[0], rel=1e-9)

    def test_superposition_exact_homogeneous(
        self, small_interposer, small_solver, small_config
    ):
        """With the homogeneous chiplet layer, fields superpose exactly."""
        sys_a = one_die_system(small_interposer, power=30.0)
        sys_b = ChipletSystem(
            "b", small_interposer, (Chiplet("die2", 6, 6, 20.0),)
        )
        both = ChipletSystem(
            "ab",
            small_interposer,
            (Chiplet("die", 8, 8, 30.0), Chiplet("die2", 6, 6, 20.0)),
        )
        pa = Placement(sys_a)
        pa.place("die", 2, 2)
        pb = Placement(sys_b)
        pb.place("die2", 20, 20)
        pab = Placement(both)
        pab.place("die", 2, 2)
        pab.place("die2", 20, 20)
        field_a = small_solver.evaluate(pa).grid_temperatures - small_config.ambient
        field_b = small_solver.evaluate(pb).grid_temperatures - small_config.ambient
        field_ab = small_solver.evaluate(pab).grid_temperatures - small_config.ambient
        assert np.allclose(field_ab, field_a + field_b, atol=1e-8)

    def test_energy_balance(self, small_interposer, small_config):
        """Heat leaving through the boundaries equals injected power."""
        solver = GridThermalSolver(small_interposer, small_config)
        system = one_die_system(small_interposer, power=42.0)
        p = Placement(system)
        p.place("die", 11, 11)
        result = solver.evaluate(p)
        temps = result.grid_temperatures
        static = solver._static
        top = temps[-1].ravel()
        out_top = (static["g_ambient_top"] * (top - small_config.ambient)).sum()
        bottom = temps[0].ravel()
        out_bot = (static["g_ambient_bot"] * (bottom - small_config.ambient)).sum()
        assert out_top + out_bot == pytest.approx(42.0, rel=1e-6)

    def test_hotter_near_die(self, small_interposer, small_config, small_solver):
        system = one_die_system(small_interposer, power=50.0)
        p = Placement(system)
        p.place("die", 11, 11)  # center-ish
        temps = small_solver.evaluate(p).grid_temperatures
        chip = temps[small_config.stack.chiplet_layer_index]
        center = chip[chip.shape[0] // 2, chip.shape[1] // 2]
        corner = chip[0, 0]
        assert center > corner + 1.0

    def test_per_die_temperatures_ordered_by_power_density(
        self, small_system, small_solver
    ):
        p = Placement(small_system)
        p.place("hot", 2, 2)
        p.place("warm", 2, 22)
        p.place("cold", 24, 2)
        result = small_solver.evaluate(p)
        assert (
            result.chiplet_temperatures["hot"]
            > result.chiplet_temperatures["warm"]
            > result.chiplet_temperatures["cold"]
        )
        assert result.hottest_chiplet == "hot"
        assert result.max_temperature == result.chiplet_temperatures["hot"]

    def test_empty_placement(self, small_system, small_solver, small_config):
        result = small_solver.evaluate(Placement(small_system))
        assert result.max_temperature == small_config.ambient


class TestSolverConfigurations:
    def test_factorization_reuse_matches_direct(self, small_interposer, small_config):
        fresh = GridThermalSolver(small_interposer, small_config)
        cached = GridThermalSolver(
            small_interposer, small_config, reuse_factorization=True
        )
        system = one_die_system(small_interposer)
        p = Placement(system)
        p.place("die", 5, 12)
        t1 = fresh.evaluate(p).max_temperature
        t2 = cached.evaluate(p).max_temperature
        t3 = cached.evaluate(p).max_temperature  # reuse path
        assert t1 == pytest.approx(t2, abs=1e-9)
        assert t2 == pytest.approx(t3, abs=1e-9)

    def test_reused_factorization_bitwise_identical(
        self, small_interposer, small_config
    ):
        """The docstring's promise, verified to the last bit.

        With the homogeneous chiplet layer the conductance matrix is
        placement-independent, so the cached LU must give *bitwise*
        identical temperature fields to a fresh factorization for any
        placement — including ones the factorization never saw.
        """
        fresh = GridThermalSolver(small_interposer, small_config)
        cached = GridThermalSolver(
            small_interposer, small_config, reuse_factorization=True
        )
        system = one_die_system(small_interposer)
        for x, y in ((5.0, 12.0), (0.0, 0.0), (17.0, 3.0)):
            p = Placement(system)
            p.place("die", x, y)
            footprints = p.footprints()
            powers = {"die": system.chiplet("die").power}
            t_fresh = fresh.solve_footprints(footprints, powers)
            t_cached = cached.solve_footprints(footprints, powers)
            assert np.array_equal(t_fresh, t_cached)
        assert cached._factor is not None
        assert fresh._factor is None

    def test_heterogeneous_layer_ignores_reuse(self, small_interposer):
        """Heterogeneous mode must re-assemble per placement.

        The matrix depends on die coverage there, so the solver ignores
        ``reuse_factorization`` (documented on the class) rather than
        serving stale temperatures from an unrelated placement.
        """
        config = ThermalConfig(
            rows=16, cols=16, package_margin=6.0,
            heterogeneous_chiplet_layer=True,
        )
        solver = GridThermalSolver(
            small_interposer, config, reuse_factorization=True
        )
        reference = GridThermalSolver(small_interposer, config)
        system = one_die_system(small_interposer)
        for x, y in ((5.0, 12.0), (15.0, 2.0)):
            p = Placement(system)
            p.place("die", x, y)
            footprints = p.footprints()
            powers = {"die": system.chiplet("die").power}
            assert np.array_equal(
                solver.solve_footprints(footprints, powers),
                reference.solve_footprints(footprints, powers),
            )
        assert solver._factor is None  # no stale factorization was cached

    def test_heterogeneous_layer_changes_result(self, small_interposer):
        config_hom = ThermalConfig(rows=24, cols=24, package_margin=6.0)
        config_het = ThermalConfig(
            rows=24, cols=24, package_margin=6.0, heterogeneous_chiplet_layer=True
        )
        system = one_die_system(small_interposer)
        p = Placement(system)
        p.place("die", 11, 11)
        t_hom = GridThermalSolver(small_interposer, config_hom).evaluate(p)
        t_het = GridThermalSolver(small_interposer, config_het).evaluate(p)
        # Underfill between dies conducts worse laterally -> hotter die.
        assert t_het.max_temperature > t_hom.max_temperature

    def test_adiabatic_bottom(self, small_interposer):
        config = ThermalConfig(rows=24, cols=24, package_margin=6.0, r_board=None)
        solver = GridThermalSolver(small_interposer, config)
        system = one_die_system(small_interposer)
        p = Placement(system)
        p.place("die", 11, 11)
        result = solver.evaluate(p)
        assert result.max_temperature > config.ambient

    def test_stronger_convection_runs_cooler(self, small_interposer):
        system = one_die_system(small_interposer)
        temps = []
        for r_conv in (0.5, 0.1):
            config = ThermalConfig(
                rows=24, cols=24, package_margin=6.0, r_convection=r_conv
            )
            p = Placement(system)
            p.place("die", 11, 11)
            temps.append(
                GridThermalSolver(small_interposer, config).evaluate(p).max_temperature
            )
        assert temps[1] < temps[0]

    def test_bigger_margin_cools_edge_dies(self, small_interposer):
        """A wider package overhang gives edge dies more lateral escape."""
        system = one_die_system(small_interposer)
        temps = []
        for margin in (2.0, 12.0):
            config = ThermalConfig(rows=32, cols=32, package_margin=margin)
            p = Placement(system)
            p.place("die", 0.0, 0.0)  # corner die
            temps.append(
                GridThermalSolver(small_interposer, config).evaluate(p).max_temperature
            )
        assert temps[1] < temps[0]


class TestSymmetricFactorization:
    """The symmetric unpivoted factorization on multi_gpu's own matrix."""

    N_PLACEMENTS = 8
    WALK_MOVES = 40

    @pytest.fixture(scope="class")
    def production(self):
        spec = get_benchmark("multi_gpu")
        solver = GridThermalSolver(spec.system.interposer, spec.thermal_config)
        matrix = solver._assemble_matrix(
            solver._chiplet_layer_conductivity({})
        ).tocsc()
        return spec, solver, matrix

    def _placements(self, system):
        """Random walks of legal SA moves from the shelf packing."""
        placer = TAP25DPlacer(system, None)
        rng = np.random.default_rng(0)
        start = placer.initial_placement()
        placements = []
        for _ in range(self.N_PLACEMENTS):
            current = start
            for _ in range(self.WALK_MOVES):
                candidate = placer.propose(current, rng, 0.0)
                if candidate is not None:
                    current = candidate
            placements.append(current)
        return placements

    def test_matrix_is_symmetric(self, production):
        _, _, matrix = production
        assert abs(matrix - matrix.T).max() == 0.0

    def test_residual(self, production):
        spec, solver, matrix = production
        placements = self._placements(spec.system)
        footprints = [p.footprints() for p in placements]
        powers = [
            {name: spec.system.chiplet(name).power for name in fps}
            for fps in footprints
        ]
        fields = solver.solve_footprints_many(footprints, powers)
        for fps, pws, field in zip(footprints, powers, fields):
            rhs = solver._assemble_rhs(fps, pws)
            residual = matrix @ field.ravel() - rhs
            assert np.abs(residual).max() <= 1e-10 * np.abs(rhs).max()

    def test_fill_at_most_0_6_of_default_order(self, production):
        _, solver, matrix = production
        symmetric = solver._factorize({})
        default = spla.splu(matrix)
        assert symmetric.L.nnz + symmetric.U.nnz <= 0.6 * (
            default.L.nnz + default.U.nnz
        )


class TestBlockedCharacterization:
    def test_blocked_sweep_matches_column_sweep(
        self, small_interposer, small_config
    ):
        """One blocked back-substitution per die size agrees with the
        column-by-column sweep to 1e-12 of each table's magnitude."""
        sizes = [(8.0, 8.0), (4.0, 6.0)]
        blocked = characterize_tables(
            small_interposer, sizes, small_config, position_samples=(4, 3)
        )
        columns = GridThermalSolver(
            small_interposer, small_config, reuse_factorization=True
        )
        columns.solve_footprints_block = columns.solve_footprints_many
        reference = characterize_tables(
            small_interposer,
            sizes,
            small_config,
            position_samples=(4, 3),
            solver=columns,
        )
        assert columns.solve_count == 2 * 4 * 3
        for width, height in sizes:
            got = blocked.for_size(width, height)
            want = reference.for_size(width, height)
            for field in dataclasses.fields(want):
                a = np.asarray(getattr(got, field.name), dtype=np.float64)
                b = np.asarray(getattr(want, field.name), dtype=np.float64)
                assert a.shape == b.shape, field.name
                scale = np.abs(b).max()
                assert np.abs(a - b).max() <= 1e-12 * scale, field.name


class TestStackAndMaterials:
    def test_material_validation(self):
        with pytest.raises(ValueError):
            Material("bad", -1.0)

    def test_conductivity_mm(self):
        assert MATERIALS["copper"].conductivity_mm == pytest.approx(0.4)

    def test_stack_needs_chiplet_layer(self):
        with pytest.raises(ValueError):
            LayerStack((Layer("only", MATERIALS["silicon"], 1.0),))

    def test_stack_rejects_two_chiplet_layers(self):
        with pytest.raises(ValueError):
            LayerStack(
                (
                    Layer("a", MATERIALS["silicon"], 1.0, is_chiplet_layer=True),
                    Layer("b", MATERIALS["silicon"], 1.0, is_chiplet_layer=True),
                )
            )

    def test_default_stack_shape(self):
        stack = default_chiplet_stack()
        assert stack.n_layers == 6
        assert stack.layers[stack.chiplet_layer_index].name == "chiplets"
        assert stack.total_thickness == pytest.approx(8.82)

    def test_layer_index_lookup(self):
        stack = default_chiplet_stack()
        assert stack.layer_index("sink") == 5
        with pytest.raises(KeyError):
            stack.layer_index("ghost")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThermalConfig(rows=1)
        with pytest.raises(ValueError):
            ThermalConfig(r_convection=0.0)
        with pytest.raises(ValueError):
            ThermalConfig(package_margin=-1.0)
        with pytest.raises(ValueError):
            ThermalConfig(r_board=0.0)

    def test_ambient_celsius(self):
        config = ThermalConfig()
        assert config.ambient_celsius == pytest.approx(45.0)
        assert config.ambient == pytest.approx(45.0 + KELVIN_OFFSET)
