"""Shared machinery for the Table I / Table III comparisons.

Four methods, as in the paper:

* ``RLPlanner``          — PPO agent, fast thermal model in the loop
* ``RLPlanner(RND)``     — same, plus the RND exploration bonus
* ``TAP-2.5D(HotSpot)``  — SA baseline evaluating with the grid solver
* ``TAP-2.5D*(FastThermal)`` — SA baseline on the fast thermal model,
  wall-clock-matched to the RL training budget (the paper's asterisk)

Budgets are scaled-down by default so the whole suite runs in minutes;
``ExperimentBudget.paper_scale()`` restores the paper's 600-epoch regime.

Every (benchmark x method) arm is a standalone, picklable job
(:func:`run_method_arm`) scheduled through :mod:`repro.parallel`:
``jobs=1`` executes them in process and in submission order — bit-for-
bit the pre-scheduler sequential harness, pinned by
``tests/data/golden_experiments.json`` — while ``jobs=N`` fans
independent arms over a process pool.  Two structural edges make that
safe:

* a per-benchmark *prewarm* job characterizes (or loads) the thermal
  tables before any arm starts, so pool workers share one on-disk
  cache entry instead of racing to recompute it (the cache itself is
  file-locked and atomically written as a second line of defense);
* the wall-clock-matched ``TAP-2.5D*(FastThermal)`` arm declares a
  dependency on its benchmark's RL arm and receives the *measured* RL
  runtime through the scheduler's parent-side injection hook, exactly
  as the sequential path threads it.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.baselines import TAP25DConfig, TAP25DPlacer
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.experiments.report import MethodResult
from repro.parallel import JobSpec, run_jobs
from repro.reward import RewardCalculator
from repro.rl import PPOConfig, RNDConfig
from repro.store import RunStore, store_key
from repro.systems import BenchmarkSpec
from repro.thermal import FastThermalModel, GridThermalSolver
from repro.thermal.characterize import load_or_characterize
from repro.utils import get_logger

__all__ = [
    "ExperimentBudget",
    "arm_store_key",
    "as_store",
    "budget_store_payload",
    "build_evaluators",
    "method_arm_jobs",
    "prewarm_thermal_tables",
    "run_all_methods",
    "run_method_arm",
    "spec_fingerprint",
    "sweep_method_arms",
]

_logger = get_logger("experiments.runner")

DEFAULT_CACHE_DIR = Path(".cache/thermal_tables")

METHOD_ORDER = (
    "RLPlanner",
    "RLPlanner(RND)",
    "TAP-2.5D(HotSpot)",
    "TAP-2.5D*(FastThermal)",
)


#: Smallest value of each integer budget field.
_BUDGET_INT_LOWER_BOUNDS = {
    "rl_epochs": 1,
    "episodes_per_epoch": 1,
    "grid_size": 2,
    "sa_iterations_hotspot": 1,
    "seed": 0,
    "rollout_batch_size": 2,
    "sa_chains": 1,
    "rl_checkpoint_every": 0,
    "sa_checkpoint_every": 0,
    "collect_jobs": 1,
    "collect_workers": 0,
}


def _check_int(name: str, value, low: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


@dataclass(frozen=True)
class ExperimentBudget:
    """Knobs that trade fidelity for runtime.

    The defaults regenerate table *shapes* in minutes on a laptop CPU.
    """

    rl_epochs: int = 30
    episodes_per_epoch: int = 8
    grid_size: int = 24
    sa_iterations_hotspot: int = 250
    sa_time_matched: bool = True
    position_samples: tuple = (7, 7)
    seed: int = 0
    # Rollout batch width for RL episode collection (>= 2): episodes
    # step in lockstep waves of this width, each on its own RNG stream,
    # so results are identical at every width.
    rollout_batch_size: int = 16
    # Lockstep annealing chains for both SA baselines: best-of-N chains
    # with one batched reward pass per step.  The fast-thermal arm
    # (TAP-2.5D*) vectorizes its table lookups across the chains; the
    # HotSpot arm (TAP-2.5D) solves all chains' candidates as one
    # multi-RHS block through a single factorization per step
    # (bitwise identical to one-chain runs), so extra chains
    # amortize — rather than multiply — its dominant factorization
    # cost.  Both arms spread their total proposal budget over the
    # chains, keeping evaluation counts comparable across chain counts.
    sa_chains: int = 16
    # Keep the grid solver's splu factorization alive across SA steps
    # in the HotSpot arm (the homogeneous conductance matrix is
    # placement-independent).  Off by default: the paper's comparison
    # charges the HotSpot arm a fresh "run the HotSpot binary" cost per
    # lockstep step, which this experiment mode would remove.
    hotspot_reuse_factorization: bool = False
    # Resume checkpoint cadences, active only when an arm runs against a
    # run store (``--resume``): full trainer state every N epochs, full
    # annealer state every N SA iterations.  Neither knob changes any
    # result — a resumed arm is bitwise identical to an uninterrupted
    # one — so they are excluded from the arm's store key.  Arms whose
    # runs are not reproducible to begin with (wall-clock-limited SA)
    # run checkpoint-free and rely on result-level caching only.
    rl_checkpoint_every: int = 5
    sa_checkpoint_every: int = 50
    # Worker processes for RL episode collection *within* one arm
    # (TrainerConfig.collect_jobs).  Orthogonal to the arm-level
    # ``jobs`` sharding: ``jobs`` spreads independent arms over cores,
    # ``collect_jobs`` spreads one arm's episodes.  Bitwise-invariant
    # by construction, so like the checkpoint cadences it never enters
    # a store key.
    collect_jobs: int = 1
    # Remote (multi-machine) episode collection within one RL arm
    # (TrainerConfig.collect_workers / collect_bind): >= 1 opens a
    # lease-based TCP coordinator and serves balanced slices to
    # whatever scripts/collect_worker.py processes lease in, degrading
    # to the local pool / in-process when none do.  Bitwise-invariant
    # like collect_jobs (slices are pure in weight bytes + seed
    # streams), so neither knob enters a store key.
    collect_workers: int = 0
    collect_bind: str = "127.0.0.1:0"
    # Pipeline episode collection with PPO updates: epoch k+1 is
    # collected with the pre-update epoch-k policy while the learner
    # runs update k (TrainerConfig.async_collect).  One epoch of policy
    # staleness changes the training trajectory, so unlike
    # ``collect_jobs`` this IS semantic and stays in store keys —
    # async and lockstep results must never alias.
    async_collect: bool = False

    def __post_init__(self) -> None:
        # Every entry point (CLI, scripts, serve requests) builds a
        # budget, so outside input is checked here, once.
        for name, low in _BUDGET_INT_LOWER_BOUNDS.items():
            _check_int(name, getattr(self, name), low)
        samples = self.position_samples
        if not (isinstance(samples, tuple) and len(samples) == 2):
            raise ValueError(
                f"position_samples must be a pair of ints >= 2, "
                f"got {samples!r}"
            )
        for value in samples:
            _check_int("position_samples", value, 2)
        for name in (
            "sa_time_matched",
            "hotspot_reuse_factorization",
            "async_collect",
        ):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(
                    f"{name} must be a bool, got {getattr(self, name)!r}"
                )

    @classmethod
    def paper_scale(cls, **fields) -> "ExperimentBudget":
        """The paper's regime (hours of CPU time).

        It fixes the epoch, episode, grid and SA-iteration budgets;
        ``fields`` set every other knob.
        """
        return cls(
            **{
                **fields,
                "rl_epochs": 600,
                "episodes_per_epoch": 16,
                "grid_size": 32,
                "sa_iterations_hotspot": 2000,
            }
        )


def _spec_sizes(spec: BenchmarkSpec) -> list:
    """Die sizes (including rotations) needing characterization."""
    sizes = []
    for chiplet in spec.system.chiplets:
        sizes.append((chiplet.width, chiplet.height))
        if chiplet.rotatable:
            sizes.append((chiplet.height, chiplet.width))
    return sizes


# ----------------------------------------------------------------------
# run-store keys
# ----------------------------------------------------------------------

ARM_JOB_KIND = "method_arm"

#: Budget knobs that cannot change an arm's result and therefore must
#: not invalidate its store key (checkpoint cadences only matter while
#: a run is in flight; a resumed run is bitwise-identical regardless).
_NON_SEMANTIC_BUDGET_FIELDS = (
    "rl_checkpoint_every",
    "sa_checkpoint_every",
    "collect_jobs",
    "collect_workers",
    "collect_bind",
)


def spec_fingerprint(spec: BenchmarkSpec) -> dict:
    """Content description of a benchmark for store-key hashing.

    Everything that can change an arm's result is included: the full
    die/netlist geometry and the thermal/reward calibration.  Free-form
    metadata and display strings are not.
    """
    system = spec.system
    return {
        "name": spec.name,
        "interposer": {
            "width": system.interposer.width,
            "height": system.interposer.height,
            "min_spacing": system.interposer.min_spacing,
        },
        "chiplets": [
            {
                "name": c.name,
                "width": c.width,
                "height": c.height,
                "power": c.power,
                "rotatable": c.rotatable,
            }
            for c in system.chiplets
        ],
        "nets": [
            {"src": n.src, "dst": n.dst, "wires": n.wires}
            for n in system.nets
        ],
        "thermal": asdict(spec.thermal_config),
        "reward": asdict(spec.reward_config),
    }


def budget_store_payload(budget: ExperimentBudget) -> dict:
    """Budget fields that participate in store keys.

    Shared by every keyed job family (method arms here, ablation
    variants in :mod:`repro.experiments.ablations`) so "which budget
    knobs invalidate cached results" has exactly one definition.
    """
    payload = asdict(budget)
    for name in _NON_SEMANTIC_BUDGET_FIELDS:
        payload.pop(name, None)
    return payload


def arm_store_key(
    spec: BenchmarkSpec,
    method: str,
    budget: ExperimentBudget,
    time_limited: bool = False,
) -> str:
    """Content-addressed store key of one (benchmark x method) arm.

    Deterministic across processes and sessions — any worker resumes or
    reuses any other worker's artifacts.  ``time_limited`` records
    *whether* the arm runs under a wall-clock cap (the time-matched
    ``TAP-2.5D*`` arm vs the same arm run unlimited in a
    methods-subset sweep) — the two produce different results and must
    not share a key.  The cap's *value* is deliberately excluded:
    time-limited results are machine-dependent by nature, so a stored
    result is preferred over re-measuring.
    """
    return store_key(
        ARM_JOB_KIND,
        {
            "spec": spec_fingerprint(spec),
            "method": method,
            "budget": budget_store_payload(budget),
            "time_limited": bool(time_limited),
        },
    )


def prewarm_thermal_tables(
    spec: BenchmarkSpec, budget: ExperimentBudget, cache_dir=None
) -> str:
    """Job function: characterize (or load) one benchmark's tables.

    Runs before any of the benchmark's method arms so pool workers find
    the tables on disk instead of recomputing them per arm; returns the
    cache fingerprint.  Prewarm jobs for different benchmarks are
    independent, so a pool parallelizes characterization itself.
    """
    cache_dir = DEFAULT_CACHE_DIR if cache_dir is None else Path(cache_dir)
    tables = load_or_characterize(
        spec.system.interposer,
        _spec_sizes(spec),
        spec.thermal_config,
        position_samples=budget.position_samples,
        cache_dir=cache_dir,
    )
    return tables.fingerprint


def build_evaluators(spec: BenchmarkSpec, budget: ExperimentBudget, cache_dir=None):
    """Characterize tables and build both thermal evaluators + rewards."""
    cache_dir = DEFAULT_CACHE_DIR if cache_dir is None else Path(cache_dir)
    tables = load_or_characterize(
        spec.system.interposer,
        _spec_sizes(spec),
        spec.thermal_config,
        position_samples=budget.position_samples,
        cache_dir=cache_dir,
    )
    fast_model = FastThermalModel(tables, spec.thermal_config)
    # Fresh factorization per call = HotSpot-like per-evaluation cost.
    # Multi-chain SA still amortizes: solve_footprints_many factorizes
    # once per batched call (one lockstep step), not once per candidate.
    # ``hotspot_reuse_factorization`` additionally keeps the LU alive
    # across steps (experiment mode; not HotSpot-cost-faithful).
    solver = GridThermalSolver(
        spec.system.interposer,
        spec.thermal_config,
        reuse_factorization=budget.hotspot_reuse_factorization,
    )
    reward_fast = RewardCalculator(fast_model, spec.reward_config)
    reward_solver = RewardCalculator(solver, spec.reward_config)
    return {
        "fast_model": fast_model,
        "solver": solver,
        "reward_fast": reward_fast,
        "reward_solver": reward_solver,
        "tables": tables,
    }


def _run_rl(
    spec,
    reward_calculator,
    budget,
    label: str,
    *,
    use_rnd: bool = False,
    grid: int | None = None,
    resume=None,
    capture=None,
) -> MethodResult:
    """Train RLPlanner once; the one RL arm of tables and ablations alike.

    ``label`` names the result row (a method or an ablation variant) and
    ``grid`` overrides the budget's placement grid.
    """
    env = BatchedFloorplanEnv(
        spec.system,
        reward_calculator,
        EnvConfig(grid_size=grid or budget.grid_size),
    )
    trainer = RLPlannerTrainer(
        env,
        TrainerConfig(
            epochs=budget.rl_epochs,
            episodes_per_epoch=budget.episodes_per_epoch,
            batch_size=budget.rollout_batch_size,
            collect_jobs=budget.collect_jobs,
            collect_workers=budget.collect_workers,
            collect_bind=budget.collect_bind,
            async_collect=budget.async_collect,
            seed=budget.seed,
            use_rnd=use_rnd,
            rnd=RNDConfig(bonus_scale=0.5),
            ppo=PPOConfig(),
            log_every=0,
            checkpoint_every=(
                budget.rl_checkpoint_every if resume is not None else 0
            ),
        ),
    )
    checkpoint_fn = None
    if resume is not None:
        state = resume.load()
        if state is not None:
            _logger.info(
                "%s: resuming from epoch %d/%d",
                spec.name,
                state["progress"]["epochs_run"],
                budget.rl_epochs,
            )
            trainer.load_state_dict(state)
        checkpoint_fn = resume.save
    result = trainer.train(checkpoint_fn=checkpoint_fn)
    if capture is not None:
        capture["placement"] = result.best_placement
    breakdown = result.best_breakdown
    extra = {"epochs": result.epochs_run, "deadlocks": result.deadlock_count}
    if breakdown is None:
        # Every episode deadlocked (possible on tight packings at very
        # small budgets); report the deadlock penalty honestly.
        return MethodResult(
            system=spec.name,
            method=label,
            reward=result.best_reward,
            wirelength=float("nan"),
            temperature_c=float("nan"),
            runtime_s=result.elapsed,
            extra={**extra, "all_deadlocked": True},
        )
    return MethodResult(
        system=spec.name,
        method=label,
        reward=breakdown.reward,
        wirelength=breakdown.wirelength,
        temperature_c=breakdown.max_temperature_c,
        runtime_s=result.elapsed,
        extra=extra,
    )


class _ResumeSlot:
    """One arm's checkpoint slot in the run store.

    Thin handle passed down into the trainer/annealer layers so they
    stay ignorant of store keys: ``load`` returns the latest in-flight
    snapshot (or ``None``), ``save`` overwrites it atomically, and
    ``clear`` drops it once the arm publishes a final result.
    """

    __slots__ = ("store", "key")

    def __init__(self, store: RunStore, key: str):
        self.store = store
        self.key = key

    def load(self):
        return self.store.load_checkpoint(self.key)

    def save(self, payload) -> None:
        self.store.save_checkpoint(self.key, payload)

    def clear(self) -> None:
        self.store.clear_checkpoint(self.key)


def _run_sa(
    spec,
    reward_calculator,
    budget,
    variant: str,
    time_limit=None,
    resume=None,
    capture=None,
) -> MethodResult:
    n_chains = budget.sa_chains
    if variant == "TAP-2.5D(HotSpot)":
        # The grid solver's multi-RHS path solves every chain's
        # candidate through one factorization per lockstep step, so the
        # HotSpot arm spreads the same total proposal budget over
        # best-of-N chains (exactly N interleaved one-chain runs,
        # bitwise) at a fraction of their separate wall clock.
        n_iterations = max(budget.sa_iterations_hotspot // n_chains, 1)
    else:
        # Fast model: spread the (cheap-evaluation) candidate budget
        # over best-of-N lockstep chains — same total proposal count,
        # one vectorized reward pass per step.
        n_iterations = max(100 * budget.sa_iterations_hotspot // n_chains, 1)
    if time_limit is not None and resume is not None:
        # A wall-clock-limited anneal stops at a scheduling-noise-
        # dependent iteration, so no run of it — resumed or not — is
        # reproducible; resuming one mid-flight would additionally mix
        # two machines' clocks.  Keep the bitwise-resume invariant
        # clean: the arm runs checkpoint-free (restarting costs at
        # most its time limit) and is still skipped once published.
        _logger.info(
            "%s: %s is wall-clock-limited; running checkpoint-free "
            "(an interrupted arm restarts, a completed arm is skipped "
            "via the run store)",
            spec.name,
            variant,
        )
        resume = None
    config = TAP25DConfig(
        n_iterations=n_iterations,
        time_limit=time_limit,
        seed=budget.seed,
        n_chains=n_chains,
        checkpoint_every=(
            budget.sa_checkpoint_every if resume is not None else 0
        ),
    )
    placer = TAP25DPlacer(spec.system, reward_calculator, config)
    resume_state = None
    checkpoint_fn = None
    if resume is not None:
        resume_state = resume.load()
        if resume_state is not None:
            _logger.info(
                "%s: %s resuming from iteration %d/%d",
                spec.name,
                variant,
                resume_state["iteration"],
                n_iterations,
            )
        checkpoint_fn = resume.save
    result = placer.run(resume_state=resume_state, checkpoint_fn=checkpoint_fn)
    if capture is not None:
        capture["placement"] = result.placement
    return MethodResult(
        system=spec.name,
        method=variant,
        reward=result.breakdown.reward,
        wirelength=result.breakdown.wirelength,
        temperature_c=result.breakdown.max_temperature_c,
        runtime_s=result.elapsed,
        extra={"evaluations": result.n_evaluations, "sa_chains": n_chains},
    )


def run_method_arm(
    spec: BenchmarkSpec,
    method: str,
    budget: ExperimentBudget,
    cache_dir=None,
    time_limit=None,
    time_matched=None,
    store_dir=None,
) -> MethodResult:
    """One standalone (benchmark x method) arm — the scheduler's job unit.

    Self-contained and deterministic given its arguments (the RNGs seed
    from ``budget.seed``; the thermal tables round-trip bit-exactly
    through the shared disk cache), so the scheduler may run it in any
    worker at any time.  ``time_limit`` carries the measured RL runtime
    into the wall-clock-matched fast-SA arm; ``time_matched`` is
    recorded into the result's ``extra`` for audit.

    ``store_dir`` makes the arm durable: a published result under the
    arm's content-addressed key short-circuits the whole run (belt and
    suspenders — the scheduler already skips keyed jobs with published
    results), an in-flight checkpoint resumes the interrupted run
    bitwise, and the trainer/annealer snapshot their full state into
    the store at the budget's checkpoint cadence while running.
    """
    resume = None
    store = None
    key = None
    if store_dir is not None:
        store = RunStore(store_dir)
        key = arm_store_key(
            spec,
            method,
            budget,
            time_limited=time_limit is not None or bool(time_matched),
        )
        hit, cached = store.fetch(key)
        if hit:
            _logger.info("%s: %s already in run store", spec.name, method)
            return cached
        resume = _ResumeSlot(store, key)
    _logger.info("%s: %s", spec.name, method)
    result = dispatch_method_arm(
        spec,
        method,
        budget,
        evaluators=build_evaluators(spec, budget, cache_dir),
        time_limit=time_limit,
        time_matched=time_matched,
        resume=resume,
    )
    if store is not None:
        # Publish from the worker too (the scheduler re-publishes the
        # same bytes in the parent): the result survives even if the
        # parent dies between the arm finishing and collecting it.
        # Publish strictly BEFORE clearing the in-flight checkpoint —
        # a kill between the two then costs at most a redundant
        # checkpoint file, never the completed arm's work.
        store.put(key, result)
        store.clear_checkpoint(key)
    return result


def dispatch_method_arm(
    spec,
    method,
    budget,
    evaluators,
    *,
    time_limit=None,
    time_matched=None,
    resume=None,
    capture=None,
) -> MethodResult:
    """Run one method arm against pre-built evaluators.

    This is the single code path both the CLI harness (via
    :func:`run_method_arm`, which builds fresh evaluators) and the serve
    layer (which keeps warm ones) execute, so a served placement is
    bitwise identical to the same (spec, method, budget) run offline:
    the thermal tables round-trip bit-exactly through the disk cache and
    every RNG seeds from ``budget.seed``.  ``capture``, when given, is a
    dict that receives the winning ``"placement"`` object — MethodResult
    itself only carries the scalar summary.
    """
    if method in ("RLPlanner", "RLPlanner(RND)"):
        return _run_rl(
            spec,
            evaluators["reward_fast"],
            budget,
            method,
            use_rnd=method == "RLPlanner(RND)",
            resume=resume,
            capture=capture,
        )
    if method == "TAP-2.5D(HotSpot)":
        return _run_sa(
            spec,
            evaluators["reward_solver"],
            budget,
            "TAP-2.5D(HotSpot)",
            resume=resume,
            capture=capture,
        )
    if method == "TAP-2.5D*(FastThermal)":
        result = _run_sa(
            spec,
            evaluators["reward_fast"],
            budget,
            "TAP-2.5D*(FastThermal)",
            time_limit=time_limit,
            resume=resume,
            capture=capture,
        )
        if time_matched is not None:
            result.extra["time_matched"] = bool(time_matched)
            result.extra["time_limit_s"] = time_limit
        return result
    raise ValueError(f"unknown method {method!r}")


def _inject_rl_runtime(dep_id: str, kwargs: dict, done: dict) -> dict:
    """Parent-side hook: feed the measured RL runtime to the fast-SA arm."""
    kwargs["time_limit"] = done[dep_id].runtime_s
    return kwargs


def arm_job_id(spec_name: str, method: str) -> str:
    return f"{spec_name}/{method}"


def as_store(store) -> RunStore | None:
    """Normalize a store argument: ``None``, a path, or a RunStore."""
    if store is None or isinstance(store, RunStore):
        return store
    return RunStore(store)


def method_arm_jobs(
    spec: BenchmarkSpec,
    budget: ExperimentBudget,
    cache_dir=None,
    methods: tuple = METHOD_ORDER,
    store=None,
) -> list:
    """Job specs for one benchmark: prewarm + one job per method arm.

    Encodes the harness's two structural dependencies: every arm needs
    the benchmark's thermal tables (prewarm job), and the wall-clock-
    matched ``TAP-2.5D*(FastThermal)`` arm needs the measured runtime of
    the RL arm (``RLPlanner``, falling back to ``RLPlanner(RND)``) when
    ``budget.sa_time_matched`` is on.  If time matching is requested but
    no RL arm is scheduled, the arm runs without a time limit — loudly,
    and flagged ``time_matched: False`` in its result ``extra``.

    With a run ``store`` each arm job also carries its content-addressed
    ``store_key`` (so the scheduler skips published arms) and the store
    root (so the worker checkpoints/resumes in-flight state).  The
    prewarm job stays unkeyed — the thermal-table cache is already
    durable on its own — and is dropped entirely when every arm's
    result is already published, so a fully cached sweep does zero
    characterization work.
    """
    ordered = [m for m in METHOD_ORDER if m in methods]
    unknown = set(methods) - set(METHOD_ORDER)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)!r}")
    store = as_store(store)
    prewarm_id = f"{spec.name}/prewarm"
    jobs = []
    rl_dep = next((m for m in METHOD_ORDER[:2] if m in ordered), None)
    for method in ordered:
        kwargs = dict(
            spec=spec, method=method, budget=budget, cache_dir=cache_dir
        )
        if store is not None:
            kwargs["store_dir"] = store.root
        needs = (prewarm_id,)
        inject = None
        if method == "TAP-2.5D*(FastThermal)" and budget.sa_time_matched:
            # time_matched lands in the result's extra only when
            # matching was *requested*: True when the RL dependency
            # feeds a limit, False for the pathological methods-subset
            # case.  With sa_time_matched off nothing is recorded —
            # deliberately unmatched runs are not audit findings.
            if rl_dep is not None:
                dep_id = arm_job_id(spec.name, rl_dep)
                needs = (prewarm_id, dep_id)
                inject = functools.partial(_inject_rl_runtime, dep_id)
                kwargs["time_matched"] = True
            else:
                _logger.warning(
                    "%s: TAP-2.5D*(FastThermal) is wall-clock-matched "
                    "to RL training, but no RLPlanner arm is scheduled "
                    "(methods=%r) — running WITHOUT a time limit and "
                    "recording time_matched=False",
                    spec.name,
                    tuple(methods),
                )
                kwargs["time_matched"] = False
        jobs.append(
            JobSpec(
                job_id=arm_job_id(spec.name, method),
                fn=run_method_arm,
                kwargs=kwargs,
                needs=needs,
                inject=inject,
                # Mirrors the worker-side key in run_method_arm: the
                # time-matched arm's limit arrives by injection, but
                # whether it WILL be limited is known here.
                store_key=(
                    arm_store_key(
                        spec,
                        method,
                        budget,
                        time_limited=bool(kwargs.get("time_matched")),
                    )
                    if store is not None
                    else None
                ),
            )
        )
    if store is not None and all(
        job.store_key is not None and store.contains(job.store_key)
        for job in jobs
    ):
        # Every arm is already published: don't pay for thermal
        # characterization no one will consume.  Arms keep only their
        # non-prewarm edges (they load tables themselves in the — here
        # unreachable — event a result vanishes before dispatch).
        for job in jobs:
            job.needs = tuple(dep for dep in job.needs if dep != prewarm_id)
        return jobs
    return [
        JobSpec(
            job_id=prewarm_id,
            fn=prewarm_thermal_tables,
            kwargs=dict(spec=spec, budget=budget, cache_dir=cache_dir),
        )
    ] + jobs


def sweep_method_arms(
    specs,
    budget: ExperimentBudget | None = None,
    cache_dir=None,
    methods: tuple = METHOD_ORDER,
    jobs: int = 1,
    store=None,
    **faults,
) -> list:
    """Run ``methods`` on every benchmark of ``specs`` as one job graph.

    Returns one list of MethodResults per spec, in ``specs`` order and
    :data:`METHOD_ORDER` within a spec.  ``jobs=1`` (default) runs the
    arms in process, bit for bit the sequential harness; ``jobs=N`` fans
    independent arms (and the per-benchmark characterization prewarms)
    over a process pool, and the time-matched arm still waits for the
    RL arm it is matched to.  ``store`` (a
    :class:`~repro.store.RunStore` or its root path) makes the sweep
    resumable: published arms are skipped, in-flight arms restart from
    their latest checkpoint.

    ``faults`` (``policy``/``job_timeout``/``keep_going``/``report``)
    are the :func:`repro.parallel.run_jobs` fault-tolerance knobs:
    transient worker failures retry with backoff, stragglers past
    ``job_timeout`` are killed and retried, and under ``keep_going`` a
    permanently failing arm is quarantined (recorded in ``report``,
    absent from the returned rows) while the other arms complete.
    """
    budget = budget or ExperimentBudget()
    store = as_store(store)
    job_specs = [
        job
        for spec in specs
        for job in method_arm_jobs(
            spec, budget, cache_dir=cache_dir, methods=methods, store=store
        )
    ]
    outcome = run_jobs(job_specs, jobs=jobs, store=store, **faults)
    return [
        [
            outcome[arm_job_id(spec.name, method)]
            for method in METHOD_ORDER
            if method in methods and arm_job_id(spec.name, method) in outcome
        ]
        for spec in specs
    ]


def run_all_methods(
    spec: BenchmarkSpec, budget: ExperimentBudget | None = None, **sweep
) -> list:
    """Run the requested methods on one benchmark; returns MethodResults.

    ``sweep`` takes the keywords of :func:`sweep_method_arms`
    (``cache_dir``, ``methods``, ``jobs``, ``store`` and the fault
    knobs).
    """
    return sweep_method_arms([spec], budget, **sweep)[0]
