"""Generic simulated-annealing engine: M chains in lockstep.

State representation, move proposal and cost evaluation are supplied by
the caller; the engine owns the Metropolis acceptance rule, the
geometric cooling schedule, automatic initial-temperature calibration,
and budget accounting (iterations and/or wall clock).

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
``seed + c`` does, so when ``evaluate_many`` agrees bitwise with
``evaluate`` the multi-chain run reproduces M single-chain runs exactly
(regression-tested).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SAConfig", "SAHistory", "SAResult", "SimulatedAnnealing"]


@dataclass(frozen=True)
class SAConfig:
    """Annealing schedule and budget.

    Attributes
    ----------
    n_iterations:
        Proposal count *per chain* (one evaluation per feasible proposal).
    initial_temperature:
        ``None`` auto-calibrates so early uphill moves are accepted with
        ~50 % probability (standard practice; TAP-2.5D does the same).
        Calibration is per chain.
    final_temperature:
        End of the geometric schedule.
    time_limit:
        Optional wall-clock cap in seconds (for time-matched comparisons).
    seed:
        RNG seed for proposals and acceptance; chain ``c`` uses
        ``seed + c``.
    n_chains:
        Number of independent lockstep chains.
    history_stride:
        Record every ``stride``-th iteration into the history columns.
        1 (the default) preserves the original per-iteration trace.
    checkpoint_every:
        Snapshot cadence in iterations (0 = never).  The engine hands a
        full resumable snapshot (incumbents, costs, temperatures, RNG
        generator states, history, counters) to the ``checkpoint_fn``
        passed to :meth:`SimulatedAnnealing.run` after every
        ``checkpoint_every``-th iteration; a run resumed from such a
        snapshot is bitwise identical to one that was never
        interrupted.
    """

    n_iterations: int = 2000
    initial_temperature: float | None = None
    final_temperature: float = 1e-3
    time_limit: float | None = None
    seed: int = 0
    calibration_samples: int = 20
    n_chains: int = 1
    history_stride: int = 1
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.final_temperature <= 0:
            raise ValueError("final_temperature must be positive")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.history_stride < 1:
            raise ValueError("history_stride must be >= 1")


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

    __slots__ = ("stride", "_rows", "_n")

    def __init__(self, capacity: int, stride: int = 1):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        rows = -(-max(capacity, 0) // stride)  # ceil division
        self._rows = np.empty((rows, len(self.FIELDS)), dtype=np.float64)
        self._n = 0

    def record(
        self,
        iteration: int,
        temperature: float,
        current_cost: float,
        best_cost: float,
    ) -> None:
        """Append one iteration's row (skipped when off-stride)."""
        if iteration % self.stride:
            return
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
        """Recorded rows + stride, for checkpoint snapshots."""
        return {"stride": self.stride, "rows": self._rows[: self._n].copy()}

    def load_state_dict(self, state: dict) -> None:
        """Restore rows recorded before a checkpoint (bitwise)."""
        rows = np.asarray(state["rows"], dtype=np.float64)
        self.stride = int(state["stride"])
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

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / max(self.n_evaluations, 1)


class SimulatedAnnealing:
    """Metropolis annealer over caller-defined states.

    Parameters
    ----------
    propose:
        ``propose(state, rng, progress) -> new_state | None``; ``None``
        means the move was infeasible and is skipped (not evaluated).
        Must not mutate its input state (every caller in this repo
        copies before perturbing).
    evaluate:
        ``evaluate(state) -> cost`` (lower is better).
    config:
        Schedule and budget.
    evaluate_many:
        Optional vectorized ``evaluate_many(states) -> costs``; defaults
        to mapping ``evaluate`` over the batch (bitwise-identical costs,
        no speedup).
    """

    def __init__(
        self,
        propose,
        evaluate,
        config: SAConfig | None = None,
        evaluate_many=None,
    ):
        self.propose = propose
        self.evaluate = evaluate
        self.config = config or SAConfig()
        self.evaluate_many = evaluate_many

    def run(
        self, initial_state, resume_state=None, checkpoint_fn=None
    ) -> SAResult:
        """Anneal from one initial state (replicated across chains).

        ``resume_state`` is a snapshot previously handed to
        ``checkpoint_fn``; the run continues from that iteration and is
        bitwise identical to an uninterrupted run.
        """
        return self.run_chains(
            [initial_state] * self.config.n_chains,
            resume_state=resume_state,
            checkpoint_fn=checkpoint_fn,
        )

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
        if self.evaluate_many is not None:
            return np.asarray(self.evaluate_many(states), dtype=np.float64)
        return np.array([self.evaluate(s) for s in states], dtype=np.float64)

    def run_chains(
        self, initial_states, resume_state=None, checkpoint_fn=None
    ) -> SAResult:
        """Anneal ``len(initial_states)`` chains in lockstep.

        Each iteration proposes one move per chain, evaluates every
        feasible candidate in a single ``evaluate_many`` call, and
        applies the Metropolis rule per chain with that chain's own RNG
        and temperature.  History rows aggregate across chains:
        ``temperature`` is the chain mean, ``current_cost``/``best_cost``
        are population minima.  ``resume_state``/``checkpoint_fn``
        mirror :meth:`run`: a resumed multi-chain run restores every
        chain's RNG, temperature and incumbent and is bitwise identical
        to an uninterrupted one.
        """
        cfg = self.config
        chains = len(initial_states)
        if chains < 1:
            raise ValueError("run_chains needs at least one initial state")
        rngs = [np.random.default_rng(cfg.seed + c) for c in range(chains)]
        history = SAHistory(cfg.n_iterations, cfg.history_stride)

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
            cooling = (cfg.final_temperature / t0) ** (
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

        Each chain draws ``calibration_samples`` proposals from its own
        RNG and sets its temperature so an average uphill move is
        accepted with probability ~0.5.  The cost evaluations are
        fanned into ``evaluate_many`` (evaluation consumes no RNG, so
        the batching is unobservable to the chains).  Returns
        (per-chain temperatures, evaluations spent).
        """
        chains = len(states)
        deltas = [[] for _ in range(chains)]
        evaluations = 0
        for _ in range(self.config.calibration_samples):
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
