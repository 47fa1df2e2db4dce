"""The one annealing path: M chains in lockstep, one reward call per step.

:class:`SimulatedAnnealing` is the generic engine.  State
representation, move proposal and cost evaluation are supplied by the
caller; the engine owns the Metropolis acceptance rule, the geometric
cooling schedule (down to :data:`FINAL_TEMPERATURE`), automatic
initial-temperature calibration (:data:`CALIBRATION_SAMPLES` probes per
chain), and budget accounting (iterations and/or wall clock).
:meth:`SimulatedAnnealing.run_chains` is its only entry point.

``n_chains=M`` independent chains advance in lockstep.  Chain ``c``
draws proposals and acceptance tests from its own RNG stream
(``seed + c``), carries its own temperature/acceptance state, and the
engine issues **one** ``evaluate_many(states)`` call per iteration so a
vectorized cost evaluator (e.g. the fast thermal model's batched path)
amortizes its work across the whole chain population.  The result is
the best state over all chains — best-of-M restarts at a fraction of
the cost of M separate runs.  ``n_chains=1`` is one chain of the same
engine (golden-pinned by ``tests/data/golden_baselines.json``).

Chain ``c`` consumes randomness exactly as a one-chain run with
``seed + c`` does, so when ``evaluate_many`` scores each state
independently of its batch the multi-chain run reproduces M
single-chain runs exactly (regression-tested).

:func:`anneal` is the one run body of both placers (TAP-2.5D and the
B*-tree), which supply only their states, moves and starting states;
every option lives in the one :class:`SAConfig`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SAConfig",
    "SAHistory",
    "SAResult",
    "SimulatedAnnealing",
    "PlacerResult",
    "WinnerScorer",
    "anneal",
]

#: End of the geometric cooling schedule.
FINAL_TEMPERATURE = 1e-3
#: Proposals per chain that calibrate an automatic initial temperature.
CALIBRATION_SAMPLES = 20


@dataclass(frozen=True)
class SAConfig:
    """Annealing schedule and budget: the one config of every annealer.

    Attributes
    ----------
    n_iterations:
        Proposal count *per chain* (one evaluation per feasible proposal).
    initial_temperature:
        ``None`` auto-calibrates so early uphill moves are accepted with
        ~50 % probability (standard practice; TAP-2.5D does the same).
        Calibration is per chain.
    time_limit:
        Optional wall-clock cap in seconds (for time-matched comparisons).
    seed:
        RNG seed for proposals and acceptance; chain ``c`` uses
        ``seed + c``.
    n_chains:
        Number of independent lockstep chains; every chain spends the
        full ``n_iterations`` budget and the best state over all chains
        wins.
    checkpoint_every:
        Snapshot cadence in iterations (0 = never).  The engine hands a
        full resumable snapshot (incumbents, costs, temperatures, RNG
        generator states, history, counters) to the ``checkpoint_fn``
        passed to :meth:`SimulatedAnnealing.run_chains` after every
        ``checkpoint_every``-th iteration; a run resumed from such a
        snapshot is bitwise identical to one that was never
        interrupted.
    """

    n_iterations: int = 2000
    initial_temperature: float | None = None
    time_limit: float | None = None
    seed: int = 0
    n_chains: int = 1
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")


class SAHistory:
    """Column-oriented annealing trace in preallocated numpy storage.

    Replaces the one-dict-per-iteration list the engine used to build
    (~4 boxed floats per iteration): rows land in a single ``(capacity,
    4)`` float64 block, and dicts are materialized only when a consumer
    actually indexes or iterates.  The sequence protocol keeps existing
    consumers (``len``, iteration, integer indexing, ``history[0]`` in
    the CSV writer) working unchanged.
    """

    FIELDS = ("iteration", "temperature", "current_cost", "best_cost")

    __slots__ = ("_rows", "_n")

    def __init__(self, capacity: int):
        self._rows = np.empty(
            (max(capacity, 0), len(self.FIELDS)), dtype=np.float64
        )
        self._n = 0

    def record(
        self,
        iteration: int,
        temperature: float,
        current_cost: float,
        best_cost: float,
    ) -> None:
        """Append one iteration's row."""
        if self._n == len(self._rows):  # time-limited reruns, safety
            grown = np.empty(
                (max(2 * len(self._rows), 16), len(self.FIELDS))
            )
            grown[: self._n] = self._rows[: self._n]
            self._rows = grown
        self._rows[self._n] = (iteration, temperature, current_cost, best_cost)
        self._n += 1

    def column(self, name: str) -> np.ndarray:
        """One recorded column as a float64 array (read-only view)."""
        view = self._rows[: self._n, self.FIELDS.index(name)]
        view.flags.writeable = False
        return view

    def state_dict(self) -> dict:
        """Recorded rows, for checkpoint snapshots."""
        return {"rows": self._rows[: self._n].copy()}

    def load_state_dict(self, state: dict) -> None:
        """Restore rows recorded before a checkpoint (bitwise)."""
        rows = np.asarray(state["rows"], dtype=np.float64)
        if len(rows) > len(self._rows):
            self._rows = np.empty(
                (len(rows), len(self.FIELDS)), dtype=np.float64
            )
        self._rows[: len(rows)] = rows
        self._n = len(rows)

    def _as_dict(self, row: np.ndarray) -> dict:
        entry = dict(zip(self.FIELDS, row))
        entry["iteration"] = int(row[0])
        return entry

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._as_dict(row) for row in self._rows[: self._n][index]]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("history index out of range")
        return self._as_dict(self._rows[index])

    def __iter__(self):
        for row in self._rows[: self._n]:
            yield self._as_dict(row)


@dataclass
class SAResult:
    """Outcome of one annealing run."""

    best_state: object
    best_cost: float
    n_evaluations: int
    n_accepted: int
    elapsed: float
    history: SAHistory | list = field(default_factory=list)
    n_chains: int = 1
    chain_best_costs: np.ndarray | None = None


class SimulatedAnnealing:
    """Metropolis annealer over caller-defined states.

    Parameters
    ----------
    propose:
        ``propose(state, rng, progress) -> new_state | None``; ``None``
        means the move was infeasible and is skipped (not evaluated).
        Must not mutate its input state (every caller in this repo
        copies before perturbing).
    evaluate_many:
        ``evaluate_many(states) -> costs``, one cost per state (lower is
        better), called once per lockstep step.
    config:
        Schedule and budget.
    """

    def __init__(self, propose, evaluate_many, config: SAConfig | None = None):
        self.propose = propose
        self.evaluate_many = evaluate_many
        self.config = config or SAConfig()

    def _should_checkpoint(self, iteration: int, checkpoint_fn) -> bool:
        every = self.config.checkpoint_every
        done = iteration + 1
        return (
            checkpoint_fn is not None
            and every > 0
            and done % every == 0
            and done < self.config.n_iterations
        )

    def _evaluate_states(self, states) -> np.ndarray:
        return np.asarray(self.evaluate_many(states), dtype=np.float64)

    def run_chains(
        self, initial_states, resume_state=None, checkpoint_fn=None
    ) -> SAResult:
        """Anneal ``len(initial_states)`` chains in lockstep.

        Each iteration proposes one move per chain, evaluates every
        feasible candidate in a single ``evaluate_many`` call, and
        applies the Metropolis rule per chain with that chain's own RNG
        and temperature.  History rows aggregate across chains:
        ``temperature`` is the chain mean, ``current_cost``/``best_cost``
        are population minima.

        ``initial_states`` holds one state per chain:
        ``len(initial_states)`` must equal ``config.n_chains``.

        ``resume_state`` is a snapshot previously handed to
        ``checkpoint_fn``; the run continues from that iteration,
        restores every chain's RNG, temperature and incumbent, and is
        bitwise identical to an uninterrupted one.  A resume reads only
        the chain count from ``initial_states``.
        """
        cfg = self.config
        chains = len(initial_states)
        if chains != cfg.n_chains:
            raise ValueError(
                f"run_chains got {chains} initial states for "
                f"n_chains={cfg.n_chains}"
            )
        rngs = [np.random.default_rng(cfg.seed + c) for c in range(chains)]
        history = SAHistory(cfg.n_iterations)

        if resume_state is None:
            start = time.perf_counter()
            current = list(initial_states)
            costs = self._evaluate_states(current)
            best = list(current)
            best_costs = costs.copy()
            n_evaluations = chains
            n_accepted = 0

            if cfg.initial_temperature is None:
                t0, calibration_evals = self._calibrate_chains(
                    current, costs, rngs
                )
                n_evaluations += calibration_evals
            else:
                t0 = np.full(chains, float(cfg.initial_temperature))
            cooling = (FINAL_TEMPERATURE / t0) ** (
                1.0 / max(cfg.n_iterations, 1)
            )
            temperature = t0.copy()
            start_iteration = 0
        else:
            engine = resume_state.get("engine")
            found = resume_state.get("n_chains")
            if engine != "chains" or found != chains:
                raise ValueError(
                    f"cannot resume a snapshot of engine {engine!r} with "
                    f"{found} chains from {chains} initial states"
                )
            for rng, state in zip(rngs, resume_state["rng_states"]):
                rng.bit_generator.state = state
            current = list(resume_state["current"])
            costs = np.array(resume_state["costs"], dtype=np.float64)
            best = list(resume_state["best"])
            best_costs = np.array(resume_state["best_costs"], dtype=np.float64)
            n_evaluations = resume_state["n_evaluations"]
            n_accepted = resume_state["n_accepted"]
            cooling = np.array(resume_state["cooling"], dtype=np.float64)
            temperature = np.array(
                resume_state["temperature"], dtype=np.float64
            )
            history.load_state_dict(resume_state["history"])
            start_iteration = resume_state["iteration"]
            start = time.perf_counter() - resume_state["elapsed"]

        for iteration in range(start_iteration, cfg.n_iterations):
            if (
                cfg.time_limit is not None
                and time.perf_counter() - start > cfg.time_limit
            ):
                break
            progress = iteration / cfg.n_iterations
            candidates = [
                self.propose(current[c], rngs[c], progress)
                for c in range(chains)
            ]
            temperature *= cooling
            live = [c for c in range(chains) if candidates[c] is not None]
            if live:
                candidate_costs = self._evaluate_states(
                    [candidates[c] for c in live]
                )
                n_evaluations += len(live)
                for k, c in enumerate(live):
                    delta = candidate_costs[k] - costs[c]
                    if delta <= 0 or rngs[c].random() < math.exp(
                        -delta / max(temperature[c], 1e-12)
                    ):
                        current[c] = candidates[c]
                        costs[c] = candidate_costs[k]
                        n_accepted += 1
                        if costs[c] < best_costs[c]:
                            best[c] = current[c]
                            best_costs[c] = costs[c]
                history.record(
                    iteration,
                    float(temperature.mean()),
                    float(costs.min()),
                    float(best_costs.min()),
                )
            if self._should_checkpoint(iteration, checkpoint_fn):
                checkpoint_fn(
                    {
                        "engine": "chains",
                        "n_chains": chains,
                        "iteration": iteration + 1,
                        "rng_states": [
                            rng.bit_generator.state for rng in rngs
                        ],
                        "current": list(current),
                        "costs": costs.copy(),
                        "best": list(best),
                        "best_costs": best_costs.copy(),
                        "n_evaluations": n_evaluations,
                        "n_accepted": n_accepted,
                        "cooling": cooling.copy(),
                        "temperature": temperature.copy(),
                        "history": history.state_dict(),
                        "elapsed": time.perf_counter() - start,
                    }
                )

        winner = int(np.argmin(best_costs))
        return SAResult(
            best_state=best[winner],
            best_cost=float(best_costs[winner]),
            n_evaluations=n_evaluations,
            n_accepted=n_accepted,
            elapsed=time.perf_counter() - start,
            history=history,
            n_chains=chains,
            chain_best_costs=best_costs,
        )

    def _calibrate_chains(self, states, costs, rngs) -> tuple:
        """Per-chain initial temperatures, with batched evaluations.

        Each chain draws :data:`CALIBRATION_SAMPLES` proposals from its own
        RNG and sets its temperature so an average uphill move is
        accepted with probability ~0.5.  The cost evaluations are
        fanned into ``evaluate_many`` (evaluation consumes no RNG, so
        the batching is unobservable to the chains).  Returns
        (per-chain temperatures, evaluations spent).
        """
        chains = len(states)
        deltas = [[] for _ in range(chains)]
        evaluations = 0
        for _ in range(CALIBRATION_SAMPLES):
            candidates = [
                self.propose(states[c], rngs[c], 0.0) for c in range(chains)
            ]
            live = [c for c in range(chains) if candidates[c] is not None]
            if not live:
                continue
            candidate_costs = self._evaluate_states(
                [candidates[c] for c in live]
            )
            evaluations += len(live)
            for k, c in enumerate(live):
                delta = candidate_costs[k] - costs[c]
                if delta > 0:
                    deltas[c].append(delta)
        t0 = np.array(
            [
                float(np.mean(d) / math.log(2.0)) if d else 1.0
                for d in deltas
            ]
        )
        return t0, evaluations


@dataclass
class PlacerResult:
    """Best floorplan found by a placer."""

    placement: object
    breakdown: object
    n_evaluations: int
    elapsed: float
    history: list = field(default_factory=list)

    @property
    def reward(self) -> float:
        return self.breakdown.reward


class WinnerScorer:
    """SA cost closures that carry the winner's breakdown out of the anneal.

    :meth:`evaluate_many` costs states (lower is better: the negated
    reward) through ``RewardCalculator.evaluate_batch`` and keeps the
    breakdown of the lowest-cost state scored.  The engine's winner is
    normally that very object (its best is the first strict minimum
    over the states it accepted), so :meth:`winner_breakdown` returns it
    without another evaluation.
    Only when it is not (the winner came from a resumed snapshot, was a
    tie, or was beaten by a calibration probe) is the winner scored
    afresh.

    Parameters
    ----------
    reward_calculator:
        The shared objective.
    to_placement:
        Maps an annealing state to the placement it scores (identity
        when the states are placements).
    """

    def __init__(self, reward_calculator, to_placement=None):
        self.reward_calculator = reward_calculator
        self.to_placement = to_placement or (lambda state: state)
        # The lowest-cost state scored so far, its cost and breakdown.
        self._state, self._cost, self._breakdown = None, np.inf, None

    def evaluate_many(self, states) -> np.ndarray:
        breakdowns = self.reward_calculator.evaluate_batch(
            [self.to_placement(state) for state in states]
        )
        costs = np.array([-b.reward for b in breakdowns], dtype=np.float64)
        k = int(np.argmin(costs))
        if costs[k] < self._cost:
            self._state, self._cost, self._breakdown = (
                states[k], costs[k], breakdowns[k]
            )
        return costs

    def winner_breakdown(self, state):
        """The :class:`RewardBreakdown` of the engine's best state."""
        if state is self._state:
            return self._breakdown
        return self.reward_calculator.evaluate(self.to_placement(state))


def anneal(
    propose,
    initial_states,
    reward_calculator,
    config: SAConfig,
    to_placement=None,
    resume_state=None,
    checkpoint_fn=None,
) -> PlacerResult:
    """Anneal placer states against the reward; the best layout found.

    ``initial_states()`` returns one starting state per chain; a resume
    never calls it (the snapshot carries the incumbents).  Every
    lockstep step's candidates are scored by one ``evaluate_batch``
    call on ``to_placement(state)``, the winner's breakdown is carried
    out of the anneal (:class:`WinnerScorer`), and
    ``resume_state``/``checkpoint_fn`` pass through to
    :meth:`SimulatedAnnealing.run_chains` (a resumed run is bitwise the
    uninterrupted one, and its ``elapsed`` includes the earlier legs).
    """
    start = time.perf_counter()
    scorer = WinnerScorer(reward_calculator, to_placement)
    engine = SimulatedAnnealing(propose, scorer.evaluate_many, config)
    resuming = resume_state is not None
    states = [None] * config.n_chains if resuming else initial_states()
    result = engine.run_chains(
        states, resume_state=resume_state, checkpoint_fn=checkpoint_fn
    )
    best = result.best_state
    prior = resume_state["elapsed"] if resuming else 0.0
    return PlacerResult(
        placement=scorer.to_placement(best),
        breakdown=scorer.winner_breakdown(best),
        n_evaluations=result.n_evaluations,
        elapsed=prior + time.perf_counter() - start,
        history=result.history,
    )
