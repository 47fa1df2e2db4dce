"""Table II: fast thermal model accuracy and speed vs the full solver.

The paper evaluates 2,000 synthetic systems; MSE/RMSE/MAE/MAPE of the
maximum temperature plus per-inference wall clock.  The harness defaults
to a subset for runtime and exposes ``n_systems`` for the full run.

The dataset evaluation is embarrassingly parallel — every system is
solved independently — so ``jobs=N`` shards the index range into
contiguous chunks and fans them over a process pool.  Each chunk job
replays the dataset generator from index 0 (generation is seeded from
one RNG stream, so chunk ``[start, stop)`` must consume exactly the
random draws a one-chunk run consumed before ``start``; generating
a system + placement costs microseconds against the milliseconds of its
ground-truth solve), which makes sharded predictions **bitwise
identical** to the one-chunk ``jobs=1`` run at any worker count.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.experiments.runner import DEFAULT_CACHE_DIR, as_store
from repro.parallel import JobSpec, run_jobs
from repro.store import store_key
from repro.systems.synthetic import (
    DATASET_INTERPOSER,
    DATASET_SIZES,
    synthetic_thermal_dataset,
)
from repro.thermal import (
    FastThermalModel,
    GridThermalSolver,
    ThermalConfig,
    error_metrics,
)
from repro.thermal.characterize import load_or_characterize
from repro.utils import get_logger

__all__ = ["Table2Result", "run_table2", "run_table2_chunk"]

_logger = get_logger("experiments.table2")


@dataclass
class Table2Result:
    """Accuracy metrics and timing of the surrogate-vs-solver study."""

    metrics: dict
    solver_time_per_eval: float
    fast_time_per_eval: float
    characterization_time: float
    n_systems: int
    predictions: list = field(default_factory=list)
    references: list = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.solver_time_per_eval / max(self.fast_time_per_eval, 1e-12)

    def format(self) -> str:
        m = self.metrics
        return "\n".join(
            [
                "Table II — fast thermal model vs grid solver "
                f"({self.n_systems} systems)",
                f"  MSE   {m['mse']:.4f} K^2   (paper 0.1732)",
                f"  RMSE  {m['rmse']:.4f} K    (paper 0.4162)",
                f"  MAE   {m['mae']:.4f} K    (paper 0.2523)",
                f"  MAPE  {m['mape']:.4f} %   (paper 0.0726)",
                f"  solver {self.solver_time_per_eval*1e3:.1f} ms/eval, "
                f"fast {self.fast_time_per_eval*1e3:.3f} ms/eval "
                f"-> {self.speedup:.0f}x speedup (paper 127x)",
            ]
        )


def _dataset_tables(config, position_samples, cache_dir):
    """The one characterization shared by every dataset system."""
    sizes = [(w, h) for w in DATASET_SIZES for h in DATASET_SIZES]
    return load_or_characterize(
        DATASET_INTERPOSER,
        sizes,
        config,
        position_samples=position_samples,
        cache_dir=cache_dir,
    )


def run_table2_chunk(
    start: int,
    stop: int,
    seed: int,
    thermal_config: ThermalConfig,
    position_samples: tuple,
    cache_dir,
) -> dict:
    """Evaluate dataset indices ``[start, stop)`` — the shard job unit.

    Loads the (prewarmed) shared tables from the disk cache, replays the
    seeded dataset generator up to ``start`` to reproduce the sequential
    RNG state exactly, and evaluates its slice with both the ground-
    truth solver and the surrogate.
    """
    tables = _dataset_tables(thermal_config, position_samples, cache_dir)
    fast_model = FastThermalModel(tables, thermal_config)
    solver = GridThermalSolver(DATASET_INTERPOSER, thermal_config)
    predictions, references = [], []
    solver_time = fast_time = 0.0
    for index, (system, placement) in enumerate(
        synthetic_thermal_dataset(stop, seed=seed)
    ):
        if index < start:
            continue  # generated (RNG replay) but not evaluated
        ref = solver.evaluate(placement)
        fast = fast_model.evaluate(placement)
        solver_time += ref.elapsed
        fast_time += fast.elapsed
        references.append(float(ref.max_temperature))
        predictions.append(float(fast.max_temperature))
    _logger.info("table2: chunk [%d, %d) done", start, stop)
    return {
        "predictions": predictions,
        "references": references,
        "solver_time": solver_time,
        "fast_time": fast_time,
    }


def _chunk_ranges(n: int, chunks: int) -> list:
    """Contiguous, near-equal [start, stop) ranges covering range(n)."""
    chunks = max(min(chunks, n), 1)
    base, remainder = divmod(n, chunks)
    ranges, start = [], 0
    for i in range(chunks):
        stop = start + base + (1 if i < remainder else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


#: Target shard size (dataset systems per chunk) when a run store is
#: active: the chunk count becomes ``ceil(n_systems / 25)`` — a
#: function of ``n_systems`` alone, never of ``jobs`` — so chunk
#: boundaries, and therefore shard store keys, are stable across
#: resumes at any worker count.  (``_chunk_ranges`` balances the
#: chunks near-equally, so actual sizes are <= 25, not exactly 25.)
_STORE_CHUNK_SIZE = 25


def _chunk_store_key(start, stop, seed, config, position_samples) -> str:
    """Content-addressed key of one dataset shard."""
    return store_key(
        "table2_chunk",
        {
            "start": start,
            "stop": stop,
            "seed": seed,
            "thermal": asdict(config),
            "position_samples": tuple(position_samples),
        },
    )


def run_table2(
    n_systems: int = 300,
    seed: int = 7,
    thermal_config: ThermalConfig | None = None,
    cache_dir=None,
    position_samples: tuple = (7, 7),
    jobs: int = 1,
    store=None,
    policy=None,
    job_timeout: float | None = None,
    keep_going: bool = False,
    report=None,
) -> Table2Result:
    """Regenerate Table II on ``n_systems`` random systems.

    The shared characterization is prewarmed once, then the dataset is
    sharded into ``jobs`` contiguous chunks through
    :func:`repro.parallel.run_jobs`, as every other sweep is: ``jobs=1``
    evaluates one ``[0, n)`` chunk in process, ``jobs=N`` evaluates N
    chunks in worker processes.  Predictions/references (and therefore
    every accuracy metric) are bitwise identical at any ``jobs``; only
    the per-eval timings — wall clock, never deterministic — vary.

    ``store`` makes the sweep resumable: every shard publishes its
    chunk under a content-addressed key and a re-run skips published
    shards.  With a store the chunk count is derived from
    ``n_systems`` alone (``ceil(n / _STORE_CHUNK_SIZE)``, regardless of
    ``jobs`` — even at ``jobs=1``), so chunk boundaries and their keys
    are stable when a sweep is resumed at a different worker count.
    Cached chunks
    carry the *original* run's wall-clock timings; the accuracy
    metrics are bitwise reproducible, the ms/eval figures are not
    re-measured.

    ``policy``/``job_timeout``/``keep_going``/``report`` are the
    :func:`repro.parallel.run_jobs` fault-tolerance knobs.  Under
    ``keep_going`` a quarantined shard drops its slice of the dataset:
    the metrics and the recorded ``n_systems`` then cover only the
    evaluated systems (and the report flags the sweep as partial).
    """
    config = thermal_config or ThermalConfig(r_convection=0.12)
    cache_dir = DEFAULT_CACHE_DIR if cache_dir is None else Path(cache_dir)
    store = as_store(store)

    t0 = time.perf_counter()
    _dataset_tables(config, position_samples, cache_dir)  # chunks load it
    characterization_time = time.perf_counter() - t0

    specs = [
        JobSpec(
            job_id=f"table2/{start}-{stop}",
            fn=run_table2_chunk,
            kwargs=dict(
                start=start,
                stop=stop,
                seed=seed,
                thermal_config=config,
                position_samples=position_samples,
                cache_dir=cache_dir,
            ),
            store_key=(
                _chunk_store_key(
                    start, stop, seed, config, position_samples
                )
                if store is not None
                else None
            ),
        )
        for start, stop in _chunk_ranges(
            n_systems,
            -(-n_systems // _STORE_CHUNK_SIZE)  # ceil division
            if store is not None
            else max(jobs, 1),
        )
    ]
    outcome = run_jobs(
        specs,
        jobs=max(jobs, 1),
        store=store,
        policy=policy,
        job_timeout=job_timeout,
        keep_going=keep_going,
        report=report,
    )
    predictions, references = [], []
    solver_time = fast_time = 0.0
    for spec in specs:  # submission order == index order
        if spec.job_id not in outcome:
            _logger.warning(
                "table2: shard %s was quarantined; metrics cover "
                "the surviving shards only",
                spec.job_id,
            )
            continue
        chunk = outcome[spec.job_id]
        predictions.extend(chunk["predictions"])
        references.extend(chunk["references"])
        solver_time += chunk["solver_time"]
        fast_time += chunk["fast_time"]

    evaluated = len(predictions)
    metrics = error_metrics(predictions, references)
    return Table2Result(
        metrics=metrics,
        solver_time_per_eval=solver_time / max(evaluated, 1),
        fast_time_per_eval=fast_time / max(evaluated, 1),
        characterization_time=characterization_time,
        n_systems=evaluated,
        predictions=[float(p) for p in predictions],
        references=[float(r) for r in references],
    )
