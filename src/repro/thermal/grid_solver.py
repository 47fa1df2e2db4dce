"""HotSpot-style steady-state compact thermal model.

The package is discretized into ``n_layers x rows x cols`` finite-volume
cells.  Adjacent cells are coupled by thermal conductances (series
half-cell resistances, harmonic mean); the sink's top face couples to
ambient through a distributed convective resistance and, optionally, the
interposer's bottom face couples to the board through a weaker secondary
path.  Chiplet power is injected uniformly over each die's footprint in
the chiplet layer.  The resulting linear system ``G T = q`` is solved
with a sparse direct factorization.

This mirrors the formulation of HotSpot's grid model [Huang et al.,
TVLSI'06] and serves as the reproduction's ground-truth solver.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.chiplet import ChipletSystem, Interposer, Placement
from repro.geometry import PlacementGrid, Rect
from repro.thermal.config import ThermalConfig
from repro.thermal.result import ThermalResult

__all__ = ["GridThermalSolver"]


class GridThermalSolver:
    """Steady-state solver for one package geometry.

    Parameters
    ----------
    interposer:
        Placement region; all layers share its lateral extent.
    config:
        Grid resolution, stack, boundary resistances, ambient.

    reuse_factorization:
        With the default homogeneous chiplet layer the conductance matrix
        is placement-independent, so its LU factorization can be computed
        once and reused for every evaluation; reused solves are
        bitwise-identical to fresh ones (regression-tested).  Defaults to
        False to keep per-call costs comparable to running the HotSpot
        binary (build model, factorize, solve each time) — which is what
        the paper's speed comparison measures.  Characterization turns it
        on.  With ``heterogeneous_chiplet_layer`` the matrix depends on
        die coverage, so the flag is ignored and every call re-assembles
        and re-factorizes.

    Notes
    -----
    The solver is placement-agnostic: construct once per package and call
    :meth:`evaluate` with any placement on that interposer.

    Factorization: the conductance matrix is symmetric and diagonally
    dominant with non-positive off-diagonals (an SPD M-matrix), so it is
    factorized symmetrically: a minimum-degree order on ``A + A^T``,
    SuperLU's symmetric mode and no partial pivoting.  On multi_gpu's
    64x64 package that halves the L+U fill of the default column order
    and roughly halves both factorization and solve time.

    Batched evaluation: :meth:`evaluate`, :meth:`evaluate_batch` and
    :meth:`max_temperatures` all go through
    :meth:`solve_footprints_many`, which solves M configurations
    through **one** factorization — the homogeneous matrix is
    placement-independent, so only the right-hand side varies between
    candidates.  Each column is back-substituted with the single-vector
    kernel, so a placement's temperatures do not depend on the batch it
    is solved in (regression-tested); ``evaluate(p)`` is
    ``evaluate_batch([p])[0]``.  ``reuse_factorization=False`` still
    amortizes the factorization *within* one batched call, which is
    what lets the ``TAP-2.5D(HotSpot)`` arm join the multi-chain
    annealing engine.  :meth:`solve_footprints_block` back-substitutes
    the same columns as one multi-column block; it is faster, differs
    from the column path at the 1e-13 level, and serves
    characterization, whose position sweep is one batch by definition.
    ``solve_count`` counts solved columns and ``factorization_count``
    counts factorizations, so tests can assert the sharing actually
    happens.
    """

    def __init__(
        self,
        interposer: Interposer,
        config: ThermalConfig | None = None,
        reuse_factorization: bool = False,
    ):
        self.interposer = interposer
        self.config = config or ThermalConfig()
        margin = self.config.package_margin
        # The thermal grid spans the whole package; placements live in the
        # interposer frame and are shifted by the margin internally.
        self.grid = PlacementGrid(
            interposer.width + 2 * margin,
            interposer.height + 2 * margin,
            self.config.rows,
            self.config.cols,
        )
        self._offset = margin
        self._n_layers = self.config.stack.n_layers
        self._chip_idx = self.config.stack.chiplet_layer_index
        # Fraction of each cell inside the interposer core (periphery
        # materials apply outside it).
        self._core_cover = self.grid.coverage(
            Rect(margin, margin, interposer.width, interposer.height)
            if margin > 0.0
            else Rect(0.0, 0.0, interposer.width, interposer.height)
        )
        self._static = self._assemble_static()
        self.reuse_factorization = reuse_factorization
        self._factor = None
        self.solve_count = 0
        self.factorization_count = 0

    # -- frame helpers ---------------------------------------------------

    def to_package_frame(self, rect: Rect) -> Rect:
        """Translate an interposer-frame rectangle into the package frame."""
        return rect.translated(self._offset, self._offset)

    def chip_coverage(self, rect: Rect) -> np.ndarray:
        """Grid coverage of an interposer-frame rectangle."""
        return self.grid.coverage(self.to_package_frame(rect))

    def cell_centers(self) -> tuple:
        """Cell-center coordinate meshes in the *interposer* frame."""
        xs = (np.arange(self.grid.cols) + 0.5) * self.grid.dx - self._offset
        ys = (np.arange(self.grid.rows) + 0.5) * self.grid.dy - self._offset
        return np.meshgrid(xs, ys)

    def interposer_mask(self) -> np.ndarray:
        """Cells whose centers lie on the interposer (valid die locations)."""
        mesh_x, mesh_y = self.cell_centers()
        return (
            (mesh_x >= 0.0)
            & (mesh_x <= self.interposer.width)
            & (mesh_y >= 0.0)
            & (mesh_y <= self.interposer.height)
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def evaluate(self, placement: Placement) -> ThermalResult:
        """Solve the thermal field for a (complete or partial) placement."""
        return self.evaluate_batch([placement])[0]

    def _extract_result(
        self, footprints: dict, temps: np.ndarray, elapsed: float
    ) -> ThermalResult:
        """Per-die temperatures + package peak from one solved field."""
        chip_layer = temps[self._chip_idx]
        chiplet_temps = {
            name: self._die_max_temperature(chip_layer, rect)
            for name, rect in footprints.items()
        }
        max_temp = (
            max(chiplet_temps.values()) if chiplet_temps else self.config.ambient
        )
        return ThermalResult(
            chiplet_temperatures=chiplet_temps,
            max_temperature=max_temp,
            grid_temperatures=temps,
            elapsed=elapsed,
        )

    def evaluate_batch(self, placements) -> list:
        """Thermal results for many placements sharing one factorization.

        All placements' right-hand sides are back-substituted through a
        single shared factorization, column by column (see
        :meth:`solve_footprints_many`), so every result is bitwise
        identical to a batch of one of the same placement.  Per-result
        ``elapsed`` is the batch time divided evenly.
        """
        placements = list(placements)
        if not placements:
            return []
        start = time.perf_counter()
        footprints_list = [p.footprints() for p in placements]
        powers_list = [
            {name: p.system.chiplet(name).power for name in fps}
            for p, fps in zip(placements, footprints_list)
        ]
        fields = self.solve_footprints_many(footprints_list, powers_list)
        elapsed = (time.perf_counter() - start) / len(placements)
        return [
            self._extract_result(fps, temps, elapsed)
            for fps, temps in zip(footprints_list, fields)
        ]

    def max_temperatures(self, placements) -> np.ndarray:
        """Peak package temperature (K) per placement, one factorization.

        Temperatures are bitwise identical to per-placement
        :meth:`evaluate` calls.
        """
        placements = list(placements)
        if not placements:
            return np.empty(0)
        return np.array(
            [result.max_temperature for result in self.evaluate_batch(placements)]
        )

    def solve_footprints(self, footprints: dict, powers: dict) -> np.ndarray:
        """Temperature field (K) for arbitrary die rectangles and powers."""
        rhs = self._assemble_rhs(footprints, powers)
        solution = self._factor_for(footprints).solve(rhs)
        self.solve_count += 1
        rows, cols = self.grid.shape
        return solution.reshape(self._n_layers, rows, cols)

    def solve_footprints_many(
        self, footprints_list, powers_list
    ) -> np.ndarray:
        """Temperature fields for M configurations, shape ``(M, L, R, C)``.

        Homogeneous chiplet layer (default): the conductance matrix is
        placement-independent, so all M right-hand sides are
        back-substituted through a **single** factorization.  With
        ``reuse_factorization`` the cached factorization is shared
        across calls as well; without it one fresh factorization per
        call preserves the HotSpot-like "build the model each time"
        cost at the granularity of the batch.

        Each column is back-substituted on its own, NOT as one
        ``factor.solve(block)``: SuperLU's multi-column kernels
        accumulate in another order than the single-vector kernel
        (about 1e-13 relative on multi_gpu), so a block solve would make
        a placement's temperatures depend on its batch — and the
        multi-chain SA == sequential contract rests on them not doing
        so.  :meth:`solve_footprints_block` is the blocked variant.

        Heterogeneous mode: the matrix depends on die coverage, so each
        configuration is assembled, factorized and solved on its own
        (no amortization is possible).
        """
        return self._solve_configurations(
            footprints_list,
            powers_list,
            lambda factor, rhs: np.stack([factor.solve(row) for row in rhs]),
        )

    def solve_footprints_block(
        self, footprints_list, powers_list
    ) -> np.ndarray:
        """:meth:`solve_footprints_many` as one blocked back-substitution.

        The M right-hand sides go through the shared factorization in a
        single ``factor.solve(block)`` call, whose multi-column kernels
        are about 2x faster per column than M single-vector solves and
        agree with them to about 1e-13 relative.  Characterization
        sweeps use it; evaluation paths that promise batch-independent
        results do not.  Heterogeneous mode solves each configuration on
        its own, exactly as :meth:`solve_footprints_many` does.
        """
        return self._solve_configurations(
            footprints_list,
            powers_list,
            lambda factor, rhs: factor.solve(rhs.T).T,
        )

    def _solve_configurations(
        self, footprints_list, powers_list, back_substitute
    ) -> np.ndarray:
        """Shared body of the batched solves.

        ``back_substitute(factor, rhs)`` maps the ``(M, N)`` right-hand
        sides, one configuration per row, to the ``(M, N)`` solutions.
        """
        footprints_list = list(footprints_list)
        powers_list = list(powers_list)
        if len(footprints_list) != len(powers_list):
            raise ValueError("footprints_list and powers_list lengths differ")
        rows, cols = self.grid.shape
        if not footprints_list:
            return np.empty((0, self._n_layers, rows, cols))
        if self.config.heterogeneous_chiplet_layer:
            return np.stack(
                [
                    self.solve_footprints(footprints, powers)
                    for footprints, powers in zip(footprints_list, powers_list)
                ]
            )
        rhs = np.stack(
            [
                self._assemble_rhs(footprints, powers)
                for footprints, powers in zip(footprints_list, powers_list)
            ]
        )
        solution = back_substitute(self._factor_for({}), rhs)
        self.solve_count += len(footprints_list)
        return solution.reshape(
            len(footprints_list), self._n_layers, rows, cols
        )

    # ------------------------------------------------------------------
    # factorization
    # ------------------------------------------------------------------

    def _factorize(self, footprints: dict):
        """LU-factorize the conductance matrix for the given placement.

        Every solve path — fresh per-call, cached homogeneous, batched
        and blocked — funnels through this one ``splu`` call.  The
        matrix is an SPD M-matrix (see the class notes), so the
        symmetric order and the unpivoted diagonal are safe: every pivot
        is positive and elimination is stable without row exchanges.
        """
        matrix = self._assemble_matrix(
            self._chiplet_layer_conductivity(footprints)
        )
        self.factorization_count += 1
        return spla.splu(
            matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )

    def _factor_for(self, footprints: dict):
        """The factorization to solve with, honoring the caching policy."""
        if self.config.heterogeneous_chiplet_layer:
            return self._factorize(footprints)
        if not self.reuse_factorization:
            return self._factorize({})
        if self._factor is None:
            self._factor = self._factorize({})
        return self._factor

    # ------------------------------------------------------------------
    # matrix assembly
    # ------------------------------------------------------------------

    def _conductivity_maps(self, k_chip: np.ndarray) -> np.ndarray:
        """Per-cell conductivity in W/(mm K), shape (L, R, C)."""
        rows, cols = self.grid.shape
        k = np.empty((self._n_layers, rows, cols), dtype=np.float64)
        for i, layer in enumerate(self.config.stack.layers):
            if layer.is_chiplet_layer:
                k[i] = k_chip
            else:
                k[i] = layer.material.conductivity_mm
            if layer.periphery_material is not None:
                k_peri = layer.periphery_material.conductivity_mm
                k[i] = self._core_cover * k[i] + (1.0 - self._core_cover) * k_peri
        return k

    def _chiplet_layer_conductivity(self, footprints: dict) -> np.ndarray:
        """Per-cell conductivity of the chiplet layer.

        Homogeneous mode (default, HotSpot-faithful): uniform die
        material everywhere.  Heterogeneous mode: blend silicon and
        underfill by die coverage per cell.
        """
        layer = self.config.stack.layers[self._chip_idx]
        k_die = layer.material.conductivity_mm
        if not self.config.heterogeneous_chiplet_layer:
            return np.full(self.grid.shape, k_die)
        cover = np.zeros(self.grid.shape, dtype=np.float64)
        for rect in footprints.values():
            cover = np.maximum(cover, self.chip_coverage(rect))
        k_fill = layer.fill_material.conductivity_mm
        return cover * k_die + (1.0 - cover) * k_fill

    def _assemble_static(self) -> dict:
        """Precompute everything that does not depend on the placement."""
        rows, cols = self.grid.shape
        n_per_layer = rows * cols
        dx, dy = self.grid.dx, self.grid.dy
        thickness = np.array(
            [layer.thickness for layer in self.config.stack.layers]
        )
        # Convective boundary at the sink top: per-cell conductance is the
        # area share of 1/r_convection, in series with the top half-cell.
        top = self._n_layers - 1
        k_top = self.config.stack.layers[top].material.conductivity_mm
        cell_area = dx * dy
        g_conv_share = (1.0 / self.config.r_convection) * (
            cell_area / (self.grid.width * self.grid.height)
        )
        g_half_top = k_top * cell_area / (thickness[top] / 2.0)
        g_ambient_top = 1.0 / (1.0 / g_conv_share + 1.0 / g_half_top)
        # Optional secondary path from the interposer bottom to the board.
        if self.config.r_board is not None:
            k_bot = self.config.stack.layers[0].material.conductivity_mm
            g_board_share = (1.0 / self.config.r_board) * (
                cell_area / (self.grid.width * self.grid.height)
            )
            g_half_bot = k_bot * cell_area / (thickness[0] / 2.0)
            g_ambient_bot = 1.0 / (1.0 / g_board_share + 1.0 / g_half_bot)
        else:
            g_ambient_bot = 0.0
        return {
            "thickness": thickness,
            "n_per_layer": n_per_layer,
            "g_ambient_top": g_ambient_top,
            "g_ambient_bot": g_ambient_bot,
        }

    def _assemble_matrix(self, k_chip: np.ndarray) -> sp.coo_matrix:
        """Build the symmetric conductance matrix for the given chip-layer k."""
        rows, cols = self.grid.shape
        n_per_layer = self._static["n_per_layer"]
        n_total = self._n_layers * n_per_layer
        dx, dy = self.grid.dx, self.grid.dy
        thickness = self._static["thickness"]
        k = self._conductivity_maps(k_chip)

        node = np.arange(n_total).reshape(self._n_layers, rows, cols)
        entries_i, entries_j, entries_g = [], [], []

        def couple(idx_a, idx_b, g):
            entries_i.append(idx_a.ravel())
            entries_j.append(idx_b.ravel())
            entries_g.append(g.ravel())

        # Lateral x: series half-cells, harmonic mean of conductivities.
        t3 = thickness[:, None, None]
        k_a, k_b = k[:, :, :-1], k[:, :, 1:]
        g_x = (2.0 * dy * t3 / dx) * (k_a * k_b) / (k_a + k_b)
        couple(node[:, :, :-1], node[:, :, 1:], g_x)
        # Lateral y.
        k_a, k_b = k[:, :-1, :], k[:, 1:, :]
        g_y = (2.0 * dx * t3 / dy) * (k_a * k_b) / (k_a + k_b)
        couple(node[:, :-1, :], node[:, 1:, :], g_y)
        # Vertical between consecutive layers.
        cell_area = dx * dy
        for layer in range(self._n_layers - 1):
            r_lo = thickness[layer] / (2.0 * k[layer])
            r_hi = thickness[layer + 1] / (2.0 * k[layer + 1])
            g_v = cell_area / (r_lo + r_hi)
            couple(node[layer], node[layer + 1], g_v)

        i_arr = np.concatenate(entries_i)
        j_arr = np.concatenate(entries_j)
        g_arr = np.concatenate(entries_g)

        # Ambient couplings only touch the diagonal.
        diag = np.zeros(n_total)
        np.add.at(diag, i_arr, g_arr)
        np.add.at(diag, j_arr, g_arr)
        diag_boundary = np.zeros(n_total)
        diag_boundary[node[-1].ravel()] += self._static["g_ambient_top"]
        if self._static["g_ambient_bot"]:
            diag_boundary[node[0].ravel()] += self._static["g_ambient_bot"]
        diag += diag_boundary

        all_i = np.concatenate([i_arr, j_arr, np.arange(n_total)])
        all_j = np.concatenate([j_arr, i_arr, np.arange(n_total)])
        all_g = np.concatenate([-g_arr, -g_arr, diag])
        return sp.coo_matrix((all_g, (all_i, all_j)), shape=(n_total, n_total))

    def _assemble_rhs(self, footprints: dict, powers: dict) -> np.ndarray:
        """Power injection plus ambient boundary sources."""
        rows, cols = self.grid.shape
        n_per_layer = self._static["n_per_layer"]
        n_total = self._n_layers * n_per_layer
        rhs = np.zeros(n_total)
        # Chiplet power, area-weighted over covered cells.
        power_map = np.zeros(self.grid.shape)
        for name, rect in footprints.items():
            power = powers.get(name, 0.0)
            if power <= 0.0:
                continue
            cover = self.chip_coverage(rect)
            covered_area = cover.sum() * self.grid.cell_area
            if covered_area <= 0.0:
                continue
            power_map += cover * (power / covered_area) * self.grid.cell_area
        chip_base = self._chip_idx * n_per_layer
        rhs[chip_base : chip_base + n_per_layer] = power_map.ravel()
        # Ambient sources.
        ambient = self.config.ambient
        top_base = (self._n_layers - 1) * n_per_layer
        rhs[top_base : top_base + n_per_layer] += (
            self._static["g_ambient_top"] * ambient
        )
        if self._static["g_ambient_bot"]:
            rhs[0:n_per_layer] += self._static["g_ambient_bot"] * ambient
        return rhs

    # ------------------------------------------------------------------
    # extraction helpers
    # ------------------------------------------------------------------

    def _die_max_temperature(self, chip_layer: np.ndarray, rect: Rect) -> float:
        """Hottest cell of a die, weighted to cells mostly under the die."""
        cover = self.chip_coverage(rect)
        mask = cover >= 0.5
        if not mask.any():
            mask = cover > 0.0
        if not mask.any():
            return float(self.config.ambient)
        return float(chip_layer[mask].max())

    def power_map(self, placement: Placement) -> np.ndarray:
        """Rasterized power map in W per cell (chiplet layer, package frame)."""
        power_map = np.zeros(self.grid.shape)
        for name, rect in placement.footprints().items():
            power = placement.system.chiplet(name).power
            cover = self.chip_coverage(rect)
            covered_area = cover.sum() * self.grid.cell_area
            if covered_area > 0.0 and power > 0.0:
                power_map += cover * (power / covered_area) * self.grid.cell_area
        return power_map

    @classmethod
    def for_system(
        cls, system: ChipletSystem, config: ThermalConfig | None = None
    ) -> "GridThermalSolver":
        """Convenience constructor from a system (uses its interposer)."""
        return cls(system.interposer, config)
