"""Physics-informed fast thermal model (the paper's Section II-C).

The package RC network is linear and time-invariant, so steady-state
temperature rises superpose cell by cell:

    T(cell) = T_amb + sum_over_dies_j  P_j * R_j(cell)

where ``R_j(cell)`` is die j's rise per watt at that location.  The model
tabulates that response once per die size (the characterization runs the
ground-truth grid solver):

* **self table** — the paper's "2D self-thermal resistance table":
  hottest-cell rise per watt of a die placed at a 2D grid of positions
  (edge proximity raises it), spline-interpolated at query time;
* **self profile** — normalized rise field *under* the die (hottest cell
  = 1.0), so the self term can be evaluated per cell, not just at peak;
* **mutual table** — the paper's "1D table with respect to the distance
  between power source and grid location": rise per source watt binned
  radially by distance from the source center.  Because the shared heat
  sink gives the field a source-position-dependent far-field offset (an
  edge-placed die heats its neighbourhood more and the far corner less),
  one radial profile is stored *per characterized source position* —
  the same 2D position grid the self table uses — and profiles are
  bilinearly blended for the actual source position at query time.

A die's predicted temperature is the maximum over its footprint sample
cells of (self profile * self peak * P_i + aggregate mutual field), which
matches how the solver reports per-die temperatures (hottest covered
cell).  Evaluation is a handful of table lookups — the >100x speedup over
a full sparse solve.

The lookups run per size table, not per die: dies that share a table
(and, in a batch, a set of placement rows with one orientation) are
stacked into one spline call, one radial interpolation and one
anisotropy lookup.  Every lookup is pointwise, and the mutual field
still sums its sources in die order, so a stacked evaluation is bitwise
the per-die one (``tests/test_thermal_fast_grouping.py`` keeps the
per-die loop as its reference).

Characterized tables persist as one sealed payload
(:meth:`ResistanceTables.save`, through :func:`repro.nn.save_payload`),
so a cached table file round-trips bitwise and fails loudly when
corrupted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.interpolate import RectBivariateSpline

from repro.chiplet import Placement
from repro.nn.serialization import load_payload, save_payload
from repro.thermal.config import ThermalConfig
from repro.thermal.result import ThermalResult

__all__ = [
    "SizeKey",
    "SizeTables",
    "ResistanceTables",
    "FastThermalModel",
    "size_key",
    "PEAK_TEMP_MAX_ERROR_C",
    "PEAK_TEMP_MEAN_ERROR_C",
    "CHIPLET_TEMP_MAX_ERROR_C",
    "CHIPLET_TEMP_MEAN_ERROR_C",
]

_SIZE_QUANTUM = 1e-3  # mm; sizes matching to 1 um share a table

#: At most this many (source die, placement) rows go through one stacked
#: mutual-field call of :meth:`FastThermalModel._batch_temps`: a batch
#: of one stacks every source of a size table, and from 16 placements
#: up each source runs alone, so no stacked temporary outgrows what one
#: source costs at batch 16.
_STACK_ROWS = 16

#: Payload kind of a saved :class:`ResistanceTables`.
TABLES_PAYLOAD_KIND = "thermal-tables"

# The paper's accuracy envelope for the surrogate (Table II reports
# ~0.25 degC mean error against HotSpot with worst cases below ~2 degC).
# The golden thermal regression test asserts the characterized model
# stays inside these bounds against the grid solver, so a future solver
# or characterization change that silently degrades the surrogate fails
# loudly instead of skewing Table I/III reproductions.
PEAK_TEMP_MAX_ERROR_C = 2.0
PEAK_TEMP_MEAN_ERROR_C = 0.7

# Per-chiplet envelope, pinned by the differential harness
# (tests/test_thermal_differential.py) across every bundled benchmark
# system.  Individual die temperatures are allowed a wider band than the
# package peak: the radial mutual model is coarsest for a low-power die
# sitting in a hot neighbour's near field (the victim's own rise is
# small, so the mutual approximation error dominates), while the peak
# die — the only quantity the reward consumes — is self-term dominated
# and stays inside the paper's envelope above.
CHIPLET_TEMP_MAX_ERROR_C = 6.0
CHIPLET_TEMP_MEAN_ERROR_C = 1.0


def size_key(width: float, height: float) -> tuple:
    """Quantized (w, h) used to index characterization tables."""
    return (round(width / _SIZE_QUANTUM), round(height / _SIZE_QUANTUM))


SizeKey = tuple


def _bilinear_blend(xs: np.ndarray, ys: np.ndarray, table: np.ndarray, x, y):
    """Bilinear combination over the first two axes of ``table``.

    ``table`` has shape ``(len(ys), len(xs), ...)``; the result keeps the
    trailing axes.  Queries are clamped to the sampled range.
    """
    x = float(np.clip(x, xs[0], xs[-1]))
    y = float(np.clip(y, ys[0], ys[-1]))
    ix = int(np.clip(np.searchsorted(xs, x) - 1, 0, max(len(xs) - 2, 0)))
    iy = int(np.clip(np.searchsorted(ys, y) - 1, 0, max(len(ys) - 2, 0)))
    if len(xs) == 1:
        fx, ix1 = 0.0, ix
    else:
        fx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
        ix1 = ix + 1
    if len(ys) == 1:
        fy, iy1 = 0.0, iy
    else:
        fy = (y - ys[iy]) / (ys[iy + 1] - ys[iy])
        iy1 = iy + 1
    return (
        table[iy, ix] * (1 - fx) * (1 - fy)
        + table[iy, ix1] * fx * (1 - fy)
        + table[iy1, ix] * (1 - fx) * fy
        + table[iy1, ix1] * fx * fy
    )


def _interp_rows(x: np.ndarray, xs: np.ndarray, fp_rows: np.ndarray) -> np.ndarray:
    """Row-wise linear interpolation: row ``i`` of ``x`` against ``fp_rows[i]``.

    All rows share the sample grid ``xs`` (ascending); queries outside it
    clamp to the end values, like :func:`np.interp`.  Purely elementwise,
    so each row's result is independent of the rest of the batch.
    """
    idx = np.minimum(
        np.maximum(np.searchsorted(xs, x) - 1, 0), len(xs) - 2
    )
    x_lo = xs[idx]
    frac = np.minimum(np.maximum((x - x_lo) / (xs[idx + 1] - x_lo), 0.0), 1.0)
    # Gather from the flattened rows: row i's entries start at i * n.
    idx += np.arange(0, fp_rows.size, fp_rows.shape[-1])[:, None]
    lo = fp_rows.ravel()[idx]
    hi = fp_rows.ravel()[idx + 1]
    return lo + (hi - lo) * frac


class _BilinearStencil:
    """Vectorized bilinear sampling of 2D fields at ``(n, 2)`` points.

    The anisotropy grids (``delta_xs``/``delta_ys``) are crops of the one
    shared solver grid, so every source die samples the same lattice at
    the same points within a batch — the clip/searchsorted half of the
    bilinear lookup is computed once per point set and reused across
    sources, leaving only the per-field gather in :meth:`sample`.
    Queries are clamped to the sampled range.
    """

    __slots__ = ("xs", "ys", "ix", "iy", "ix1", "iy1", "fx", "fy")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, points: np.ndarray):
        self.xs = xs
        self.ys = ys
        px = np.minimum(np.maximum(points[:, 0], xs[0]), xs[-1])
        py = np.minimum(np.maximum(points[:, 1], ys[0]), ys[-1])
        ix = np.minimum(
            np.maximum(np.searchsorted(xs, px) - 1, 0), max(len(xs) - 2, 0)
        )
        iy = np.minimum(
            np.maximum(np.searchsorted(ys, py) - 1, 0), max(len(ys) - 2, 0)
        )
        if len(xs) > 1:
            self.fx = (px - xs[ix]) / (xs[ix + 1] - xs[ix])
            self.ix1 = ix + 1
        else:
            self.fx = np.zeros_like(px)
            self.ix1 = ix
        if len(ys) > 1:
            self.fy = (py - ys[iy]) / (ys[iy + 1] - ys[iy])
            self.iy1 = iy + 1
        else:
            self.fy = np.zeros_like(py)
            self.iy1 = iy
        self.ix = ix
        self.iy = iy

    def matches(self, xs: np.ndarray, ys: np.ndarray) -> bool:
        if self.xs is xs and self.ys is ys:
            return True
        return np.array_equal(self.xs, xs) and np.array_equal(self.ys, ys)

    def sample(self, field: np.ndarray) -> np.ndarray:
        return (
            field[self.iy, self.ix] * (1 - self.fx) * (1 - self.fy)
            + field[self.iy, self.ix1] * self.fx * (1 - self.fy)
            + field[self.iy1, self.ix] * (1 - self.fx) * self.fy
            + field[self.iy1, self.ix1] * self.fx * self.fy
        )


@dataclass
class SizeTables:
    """Characterized thermal responses for one die size.

    Attributes
    ----------
    width, height:
        Die size in mm.
    xs, ys:
        Center-position sample coordinates (mm) of the self table.
    r_self:
        Peak (hottest-cell) self resistance K/W, shape ``(len(ys), len(xs))``.
    mut_distances:
        Bin-center distances (mm) of the mutual table.
    r_mutual:
        Mutual resistance K/W, shape ``(len(ys), len(xs), len(mut_distances))``
        — one radial profile per characterized source position.
    profile:
        Normalized self-rise field under the die, shape ``(nv, nu)`` over
        a uniform grid of relative positions; max value 1.0.
    delta_xs, delta_ys:
        Interposer-frame cell coordinates of the anisotropy correction.
    mut_delta:
        Source-position-averaged residual field (K/W) of the radial
        model, shape ``(len(delta_ys), len(delta_xs))``: cells near the
        package center run slightly hotter than the radial mean, edge
        cells cooler.  Added per victim location at query time.
    """

    width: float
    height: float
    xs: np.ndarray
    ys: np.ndarray
    r_self: np.ndarray
    mut_distances: np.ndarray
    r_mutual: np.ndarray
    profile: np.ndarray
    delta_xs: np.ndarray
    delta_ys: np.ndarray
    mut_delta: np.ndarray

    # Rank of the low-order model of the radial profiles' position
    # dependence; 3 modes capture >99 % of the variance in practice.
    _MUTUAL_RANK = 3

    def __post_init__(self) -> None:
        # R_self(x, y) is a smooth convex "bathtub" (higher near edges);
        # a spline fits it far better than bilinear chords, which
        # systematically overestimate the interior.
        kx = min(3, len(self.xs) - 1)
        ky = min(3, len(self.ys) - 1)
        if kx >= 1 and ky >= 1:
            self._self_spline = RectBivariateSpline(
                self.ys, self.xs, self.r_self, kx=ky, ky=kx
            )
        else:
            self._self_spline = None
        # Low-rank position model of the mutual radial profiles: the
        # profiles form a smooth family over source position; SVD modes
        # with spline-interpolated coefficients avoid the systematic
        # overestimate a bilinear blend of the raw profiles produces.
        ny, nx, nd = self.r_mutual.shape
        flat = self.r_mutual.reshape(ny * nx, nd)
        self._mut_mean = flat.mean(axis=0)
        self._mut_modes = None
        self._mut_coef_splines = []
        rank = min(self._MUTUAL_RANK, ny * nx - 1, nd)
        if rank >= 1 and kx >= 1 and ky >= 1:
            u, s, vt = np.linalg.svd(flat - self._mut_mean, full_matrices=False)
            coefs = (u[:, :rank] * s[:rank]).reshape(ny, nx, rank)
            self._mut_modes = vt[:rank]
            self._mut_coef_splines = [
                RectBivariateSpline(self.ys, self.xs, coefs[:, :, k], kx=ky, ky=kx)
                for k in range(rank)
            ]

    def r_self_at_many(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Interpolated peak self resistance of one die at many positions.

        Each die-center position is evaluated independently (fitpack is
        pointwise), so a result never depends on the batch size.
        """
        cx = np.clip(np.asarray(cx, dtype=np.float64), self.xs[0], self.xs[-1])
        cy = np.clip(np.asarray(cy, dtype=np.float64), self.ys[0], self.ys[-1])
        if self._self_spline is not None:
            return self._self_spline(cy, cx, grid=False)
        return np.full(cx.shape, float(self.r_self[0, 0]))

    def mutual_profiles_many(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Radial mutual profiles for sources at (n,) positions -> (n, nd).

        Combines the SVD position modes (a bilinear blend of the raw
        profiles when too few positions were sampled for splines); each
        row is aligned with :attr:`mut_distances`.
        """
        cx = np.asarray(cx, dtype=np.float64)
        cy = np.asarray(cy, dtype=np.float64)
        if self._mut_modes is None:
            return np.stack(
                [
                    _bilinear_blend(self.xs, self.ys, self.r_mutual, x, y)
                    for x, y in zip(cx, cy)
                ]
            )
        cx = np.clip(cx, self.xs[0], self.xs[-1])
        cy = np.clip(cy, self.ys[0], self.ys[-1])
        profiles = np.broadcast_to(
            self._mut_mean, (len(cx), len(self._mut_mean))
        ).copy()
        for k, spline in enumerate(self._mut_coef_splines):
            coefs = spline(cy, cx, grid=False)
            profiles += coefs[:, None] * self._mut_modes[k][None, :]
        return profiles

    def sample_offsets(self) -> np.ndarray:
        """Die-relative (dx, dy) of the profile sample cells, shape (n, 2).

        Cached after the first call (evaluators query it per placement);
        callers must treat the returned array as read-only.
        """
        cached = getattr(self, "_sample_offsets", None)
        if cached is not None:
            return cached
        nv, nu = self.profile.shape
        us = (np.arange(nu) + 0.5) / nu * self.width
        vs = (np.arange(nv) + 0.5) / nv * self.height
        mu, mv = np.meshgrid(us, vs)
        self._sample_offsets = np.column_stack([mu.ravel(), mv.ravel()])
        return self._sample_offsets


@dataclass
class ResistanceTables:
    """All characterized tables for one package geometry.

    Maps quantized die sizes to :class:`SizeTables`; carries the ambient
    and package identity so mismatched reuse fails loudly.
    """

    ambient: float
    interposer_width: float
    interposer_height: float
    tables: dict = field(default_factory=dict)
    fingerprint: str = ""

    def add(self, size_tables: SizeTables) -> None:
        self.tables[size_key(size_tables.width, size_tables.height)] = size_tables

    def for_size(self, width: float, height: float) -> SizeTables:
        key = size_key(width, height)
        try:
            return self.tables[key]
        except KeyError:
            raise KeyError(
                f"no characterization for die size {width}x{height} mm; "
                f"re-run characterize_tables including this size"
            ) from None

    @property
    def n_sizes(self) -> int:
        return len(self.tables)

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Write all tables to one sealed payload file (atomic).

        The payload holds the package metadata and one field dict per
        :class:`SizeTables`; arrays keep their dtypes bitwise.
        """
        save_payload(
            {
                "ambient": self.ambient,
                "interposer_width": self.interposer_width,
                "interposer_height": self.interposer_height,
                "fingerprint": self.fingerprint,
                "sizes": [
                    {f.name: getattr(st, f.name) for f in fields(SizeTables)}
                    for st in self.tables.values()
                ],
            },
            path,
            kind=TABLES_PAYLOAD_KIND,
        )

    @classmethod
    def load(cls, path) -> "ResistanceTables":
        """Inverse of :meth:`save`; a corrupted file raises
        :class:`~repro.nn.PayloadIntegrityError` naming it."""
        payload = load_payload(path, kind=TABLES_PAYLOAD_KIND)
        sizes = payload.pop("sizes")
        result = cls(**payload)
        for size in sizes:
            result.add(SizeTables(**size))
        return result


class FastThermalModel:
    """Superposition-based thermal evaluator (drop-in for the solver).

    Parameters
    ----------
    tables:
        Characterized :class:`ResistanceTables` for the package the
        placements will live on.
    config:
        Only ``ambient`` is consulted; defaults to the standard config.
    """

    #: Table lookups and numpy reductions on small arrays hold the GIL
    #: for the whole call, so a reward call runs it inline with bump
    #: assignment (see :class:`~repro.reward.RewardCalculator`).
    RELEASES_GIL = False

    def __init__(
        self, tables: ResistanceTables, config: ThermalConfig | None = None
    ):
        self.tables = tables
        self.config = config or ThermalConfig()
        if abs(self.tables.ambient - self.config.ambient) > 1e-6:
            raise ValueError(
                "tables were characterized at a different ambient temperature"
            )

    def evaluate(self, placement: Placement) -> ThermalResult:
        """Per-die and maximum temperature: row 0 of a batch of one."""
        return self.evaluate_batch([placement])[0]

    def evaluate_batch(self, placements) -> list:
        """Per-die and maximum temperatures of a batch of placements.

        All spline blends, radial interpolations and anisotropy lookups
        run once per (die, die) pair across the whole batch instead of
        once per placement — the terminal-reward half of the batched
        rollout engine's speedup.  Every per-placement result is
        computed elementwise along the batch axis, so it never depends
        on which other placements share the batch: a row is bitwise
        equal to :meth:`evaluate` of that placement.

        A batch whose placements differ in die *set* or system is
        evaluated as one batch of one per placement (per-die terms are
        keyed by name, so placement-dict order is free to differ).
        Per-result ``elapsed`` is the batch time divided evenly.
        """
        placements = list(placements)
        if not placements:
            return []
        start = time.perf_counter()
        core = self._batch_temps(placements)
        if core is None:
            return [self.evaluate(p) for p in placements]
        names, temps, peaks = core
        elapsed = (time.perf_counter() - start) / len(placements)
        return [
            ThermalResult(
                chiplet_temperatures={
                    name: float(temps[b, k]) for k, name in enumerate(names)
                },
                max_temperature=float(peaks[b]),
                grid_temperatures=None,
                elapsed=elapsed,
                metadata={"method": "fast_lti"},
            )
            for b in range(len(placements))
        ]

    def max_temperatures(self, placements) -> np.ndarray:
        """Peak package temperature (K) of each placement.

        The search-loop hot path: the temperatures of
        :meth:`evaluate_batch` without materializing per-die dicts or
        :class:`ThermalResult` objects.
        """
        placements = list(placements)
        if not placements:
            return np.empty(0)
        core = self._batch_temps(placements)
        if core is None:
            return np.concatenate(
                [self._batch_temps([p])[2] for p in placements]
            )
        return core[2]

    def _batch_temps(self, placements):
        """Vectorized per-die temperatures for a same-die-set batch.

        Returns ``(names, temps, peaks)``: ``temps`` of shape
        ``(n_placements, n_dies)`` and each placement's peak ``peaks`` in
        Kelvin (ambient for a placement with no dies).  Returns ``None``
        when the batch cannot vectorize (differing die sets or systems);
        a batch of one always vectorizes.
        """
        positions_list = [p.positions for p in placements]
        names = list(positions_list[0])
        system = placements[0].system
        # Powers and die sizes come from the shared system, so a batch
        # mixing systems (even with matching die names) must split into
        # batches of one rather than borrow the first system's.
        if any(p.system is not system for p in placements[1:]) or any(
            pos.keys() != positions_list[0].keys() for pos in positions_list[1:]
        ):
            return None
        n_b = len(placements)
        n_d = len(names)
        ambient = self.config.ambient
        if not n_d:
            return names, np.empty((n_b, 0)), np.full(n_b, ambient)
        chiplets = [system.chiplet(n) for n in names]
        powers = np.array([c.power for c in chiplets])

        # Footprint geometry straight from the raw (x, y, rotated)
        # triples in one bulk conversion — no Rect objects, no
        # per-element numpy writes.  (Multiplying by 0.5 and dividing by
        # 2.0 are both exact, so centers match Rect.cx/cy bitwise.)
        raw = np.array(
            [
                [positions[name] for name in names]
                for positions in positions_list
            ]
        )  # (n_b, n_d, 3): x, y, rotated-flag
        origin = raw[:, :, :2]
        rotated = raw[:, :, 2] != 0.0
        dims = np.array([(c.width, c.height) for c in chiplets])
        size = np.where(rotated[:, :, None], dims[:, ::-1][None], dims[None])
        center = origin + size * 0.5

        # Rotation can differ per placement; partition each die's batch
        # rows by orientation (usually one group — square dies share a
        # characterization table either way).
        die_groups: list = []
        all_rows = np.arange(n_b)
        for i in range(n_d):
            w, h = float(dims[i, 0]), float(dims[i, 1])
            column = rotated[:, i]
            if w == h or not column.any():
                die_groups.append([(self.tables.for_size(w, h), all_rows)])
            elif column.all():
                die_groups.append([(self.tables.for_size(h, w), all_rows)])
            else:
                die_groups.append(
                    [
                        (self.tables.for_size(w, h), np.flatnonzero(~column)),
                        (self.tables.for_size(h, w), np.flatnonzero(column)),
                    ]
                )

        # Every die's sample cells share one point axis, so orientation
        # mixes (multi-chain annealing proposes rotations independently
        # per chain) do not fragment the batch into per-pair row subsets.
        # A die's slice requires an orientation-invariant sample count
        # (profiles of rotated tables are transposed, so this always
        # holds for the bundled characterizations); bail out otherwise.
        counts = []
        for groups in die_groups:
            die_counts = {st.profile.size for st, _ in groups}
            if len(die_counts) != 1:
                return None
            counts.append(die_counts.pop())
        offsets = np.concatenate([[0], np.cumsum(counts)])
        p_tot = int(offsets[-1])

        # Dies sharing a size table and a row set form one group: the
        # table calls below are pointwise, so one call over a group's
        # stacked positions gives each die the values its own call
        # would.  Groups are keyed in die order.
        table_groups: dict = {}
        for i, groups in enumerate(die_groups):
            for st, rows in groups:
                key = (id(st), rows.tobytes())
                table_groups.setdefault(key, (st, rows, []))[2].append(i)

        points = np.empty((n_b, p_tot, 2))
        self_field = np.empty((n_b, p_tot))
        for st, rows, members in table_groups.values():
            r_self = st.r_self_at_many(
                center[rows][:, members, 0].T.ravel(),
                center[rows][:, members, 1].T.ravel(),
            ).reshape(len(members), len(rows))
            for m, i in enumerate(members):
                sl = slice(offsets[i], offsets[i + 1])
                points[rows, sl] = (
                    origin[rows, i][:, None, :]
                    + st.sample_offsets()[None, :, :]
                )
                self_field[rows, sl] = (
                    r_self[m][:, None] * powers[i] * st.profile.ravel()[None, :]
                )

        # The mutual field is computed *source-major* over one point
        # axis holding every die's sample cells: one radial
        # interpolation covers all victims at once.  Sources of a group
        # are stacked, at most _STACK_ROWS (source, placement) rows per
        # chunk, so a chunk makes one mutual_profiles_many call, one
        # hypot, one _interp_rows and one anisotropy lookup (the
        # correction does not depend on the source).  Chunks run in
        # order of their first source, and a source's contribution
        # joins ``mutual`` once every source before it has: the sum runs
        # in source order, so it is bitwise the per-source loop's, and
        # few chunks are held at a time.
        chunks = []
        for st, rows, members in table_groups.values():
            powered = [j for j in members if powers[j] > 0.0]
            size = max(1, _STACK_ROWS // len(rows))
            chunks.extend(
                (st, rows, powered[k : k + size])
                for k in range(0, len(powered), size)
            )
        chunks.sort(key=lambda chunk: chunk[2][0])
        waiting = [
            len(groups) if powers[j] > 0.0 else 0
            for j, groups in enumerate(die_groups)
        ]
        pending: dict = {}
        next_source = 0
        mutual = np.zeros((n_b, p_tot))
        stencils: dict = {}
        for st, rows, sources in chunks:
            cx = center[rows][:, sources, 0].T  # (sources, rows)
            cy = center[rows][:, sources, 1].T
            profiles = st.mutual_profiles_many(cx.ravel(), cy.ravel())
            pts = points[rows]
            dist = np.hypot(
                pts[None, :, :, 0] - cx[:, :, None],
                pts[None, :, :, 1] - cy[:, :, None],
            )
            contrib = _interp_rows(
                dist.reshape(-1, p_tot), st.mut_distances, profiles
            ).reshape(len(sources), len(rows), p_tot)
            # Anisotropy correction via a shared per-row-set stencil
            # (all sizes crop the same solver grid in practice; the
            # matches() guard rebuilds if one ever doesn't).
            key = rows.tobytes()
            stencil = stencils.get(key)
            if stencil is None or not stencil.matches(st.delta_xs, st.delta_ys):
                stencil = _BilinearStencil(
                    st.delta_xs, st.delta_ys, pts.reshape(-1, 2)
                )
                stencils[key] = stencil
            contrib += stencil.sample(st.mut_delta).reshape(len(rows), p_tot)
            # A die never couples to itself; zeroing (rather than
            # masking) keeps the accumulation elementwise and exact
            # (adding +0.0 is the identity on these fields).
            for m, j in enumerate(sources):
                contrib[m, :, offsets[j] : offsets[j + 1]] = 0.0
            contrib *= powers[sources][:, None, None]
            for m, j in enumerate(sources):
                pending.setdefault(j, []).append((rows, contrib[m]))
                waiting[j] -= 1
            while next_source < n_d and not waiting[next_source]:
                for part_rows, part in pending.pop(next_source, ()):
                    mutual[part_rows] += part
                next_source += 1

        # Each die's temperature is the hottest of its sample cells.
        temps = ambient + np.maximum.reduceat(
            self_field + mutual, offsets[:-1], axis=1
        )

        return names, temps, temps.max(axis=1)
