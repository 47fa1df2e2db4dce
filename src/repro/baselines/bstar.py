"""B*-tree floorplanning with fast simulated annealing.

The classic monolithic-floorplanning baseline the paper cites as [1]
(Chen & Chang, "Modern floorplanning based on B*-tree and fast simulated
annealing", TCAD'06).  A B*-tree encodes a *compacted* floorplan: the
left child of a node sits immediately to its right, the right child
immediately above it at the same x, with y resolved by a contour.

Compacted floorplans minimize area and wirelength but concentrate heat —
exactly the failure mode the paper's introduction motivates thermal-aware
floorplanning with.  This baseline makes that trade-off measurable: run
it with the same :class:`~repro.reward.RewardCalculator` and compare its
temperature against RLPlanner's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.sa import SAConfig, SimulatedAnnealing
from repro.baselines.tap25d import PlacerResult, WinnerScorer
from repro.chiplet import ChipletSystem, Placement
from repro.chiplet.validate import placement_is_legal, placement_violations
from repro.reward import RewardCalculator

__all__ = ["BStarConfig", "BStarTree", "BStarFloorplanner"]


@dataclass(frozen=True)
class BStarConfig:
    """Annealing parameters for the B*-tree search.

    ``n_chains`` lockstep chains start from independently randomized
    initial trees and evaluate each step's packings through the batched
    reward path.
    """

    n_iterations: int = 2000
    initial_temperature: float | None = None
    final_temperature: float = 1e-3
    rotate_fraction: float = 0.3
    swap_fraction: float = 0.4
    move_fraction: float = 0.3
    time_limit: float | None = None
    seed: int = 0
    n_chains: int = 1
    history_stride: int = 1
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        mix = self.rotate_fraction + self.swap_fraction + self.move_fraction
        if abs(mix - 1.0) > 1e-9:
            raise ValueError("move fractions must sum to 1")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")


class BStarTree:
    """A B*-tree over the modules of one system.

    Nodes are indexed 0..n-1; ``module[i]`` is the chiplet name at node
    ``i``; ``left``/``right``/``parent`` hold node indices or -1.  The
    tree is kept structurally valid under every perturbation.
    """

    def __init__(self, system: ChipletSystem, rng: np.random.Generator):
        self.system = system
        names = list(system.placement_order())
        n = len(names)
        self.module = names
        self.rotated = [False] * n
        self.left = [-1] * n
        self.right = [-1] * n
        self.parent = [-1] * n
        self.root = 0
        # Initial shape: a left-leaning chain (a row that wraps via the
        # contour), randomized slightly by attaching to random nodes.
        for i in range(1, n):
            target = int(rng.integers(0, i))
            # Walk to a node with a free slot.
            while self.left[target] != -1 and self.right[target] != -1:
                target = self.left[target]
            if self.left[target] == -1:
                self.left[target] = i
            else:
                self.right[target] = i
            self.parent[i] = target

    @property
    def n_nodes(self) -> int:
        return len(self.module)

    def copy(self) -> "BStarTree":
        clone = object.__new__(BStarTree)
        clone.system = self.system
        clone.module = list(self.module)
        clone.rotated = list(self.rotated)
        clone.left = list(self.left)
        clone.right = list(self.right)
        clone.parent = list(self.parent)
        clone.root = self.root
        return clone

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------

    def _dims(self, node: int, spacing: float) -> tuple:
        chiplet = self.system.chiplet(self.module[node])
        w, h = chiplet.width, chiplet.height
        if self.rotated[node]:
            w, h = h, w
        return w + spacing, h + spacing

    def pack(self, spacing: float | None = None) -> Placement:
        """Compact the tree into a placement (lower-left packing).

        Each die is padded by the interposer's min_spacing during
        packing so the compacted layout honors the clearance rule.
        The result may exceed the interposer; the caller checks bounds.
        """
        if spacing is None:
            spacing = self.system.interposer.min_spacing
        placement = Placement(self.system)
        placed = []  # (x1, x2, y2) spans for contour queries

        def place(node: int, x: float) -> None:
            w, h = self._dims(node, spacing)
            y = 0.0
            for px1, px2, py2 in placed:
                if px1 < x + w and x < px2:
                    y = max(y, py2)
            placement.place(self.module[node], x, y, self.rotated[node])
            placed.append((x, x + w, y + h))
            if self.left[node] != -1:
                place(self.left[node], x + w)
            if self.right[node] != -1:
                place(self.right[node], x)

        place(self.root, 0.0)
        return placement

    # ------------------------------------------------------------------
    # perturbations
    # ------------------------------------------------------------------

    def rotate_random(self, rng: np.random.Generator) -> bool:
        """Toggle the rotation flag of a random rotatable module."""
        candidates = [
            i
            for i in range(self.n_nodes)
            if self.system.chiplet(self.module[i]).rotatable
        ]
        if not candidates:
            return False
        node = candidates[int(rng.integers(len(candidates)))]
        self.rotated[node] = not self.rotated[node]
        return True

    def swap_random(self, rng: np.random.Generator) -> bool:
        """Exchange the modules (not the structure) of two nodes."""
        if self.n_nodes < 2:
            return False
        i, j = rng.choice(self.n_nodes, size=2, replace=False)
        self.module[i], self.module[j] = self.module[j], self.module[i]
        self.rotated[i], self.rotated[j] = self.rotated[j], self.rotated[i]
        return True

    def move_random(self, rng: np.random.Generator) -> bool:
        """Detach a node with at most one child and reinsert elsewhere."""
        movable = [
            i
            for i in range(self.n_nodes)
            if (self.left[i] == -1 or self.right[i] == -1) and i != self.root
        ]
        if not movable:
            return False
        node = movable[int(rng.integers(len(movable)))]
        self._detach(node)
        self._insert_random(node, rng)
        return True

    def _detach(self, node: int) -> None:
        """Remove a node with <= 1 child, promoting that child."""
        child = self.left[node] if self.left[node] != -1 else self.right[node]
        parent = self.parent[node]
        if child != -1:
            self.parent[child] = parent
        if parent != -1:
            if self.left[parent] == node:
                self.left[parent] = child
            else:
                self.right[parent] = child
        self.left[node] = self.right[node] = self.parent[node] = -1

    def _insert_random(self, node: int, rng: np.random.Generator) -> None:
        """Attach ``node`` at a random free child slot."""
        slots = []
        for i in range(self.n_nodes):
            if i == node:
                continue
            if self.left[i] == -1:
                slots.append((i, "left"))
            if self.right[i] == -1:
                slots.append((i, "right"))
        target, side = slots[int(rng.integers(len(slots)))]
        if side == "left":
            self.left[target] = node
        else:
            self.right[target] = node
        self.parent[node] = target

    def validate(self) -> None:
        """Structural invariants (used by tests and after perturbations)."""
        seen = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise AssertionError("cycle in B*-tree")
            seen.add(node)
            for child in (self.left[node], self.right[node]):
                if child != -1:
                    if self.parent[child] != node:
                        raise AssertionError("parent pointer mismatch")
                    stack.append(child)
        if len(seen) != self.n_nodes:
            raise AssertionError("tree does not span all nodes")


class BStarFloorplanner:
    """SA over B*-trees, evaluated with the shared reward calculator.

    Parameters
    ----------
    system:
        The design to floorplan.
    reward_calculator:
        Same objective as every other method in the repo.
    config:
        Annealing parameters.
    """

    def __init__(
        self,
        system: ChipletSystem,
        reward_calculator: RewardCalculator,
        config: BStarConfig | None = None,
    ):
        self.system = system
        self.reward_calculator = reward_calculator
        self.config = config or BStarConfig()

    def _propose(self, tree: BStarTree, rng: np.random.Generator, progress):
        cfg = self.config
        candidate = tree.copy()
        roll = rng.random()
        if roll < cfg.rotate_fraction:
            ok = candidate.rotate_random(rng)
        elif roll < cfg.rotate_fraction + cfg.swap_fraction:
            ok = candidate.swap_random(rng)
        else:
            ok = candidate.move_random(rng)
        if not ok:
            return None
        # Reject packings that fall off the interposer.
        placement = candidate.pack()
        if not placement_is_legal(placement):
            return None
        return candidate

    def _legal_initial_tree(self, rng: np.random.Generator) -> BStarTree:
        """Find a legal initial tree (compacted layouts can overflow)."""
        for _ in range(200):
            tree = BStarTree(self.system, rng)
            if not placement_violations(tree.pack()):
                return tree
        raise RuntimeError(
            f"no legal compacted layout found for {self.system.name!r}"
        )

    def run(self, resume_state=None, checkpoint_fn=None) -> PlacerResult:
        """Anneal; returns the best legal compacted floorplan.

        Each of the ``config.n_chains`` chains draws its own random
        initial tree from the shared seed stream, then all chains
        advance in lockstep with one batched reward
        evaluation per step (every chain packs the same die set, so the
        fast thermal model vectorizes across chains).

        ``checkpoint_fn``/``resume_state`` pass through to the SA
        engine: a resumed run reproduces the uninterrupted run bitwise
        (the snapshot carries the per-chain incumbents, so the initial
        legality search is skipped entirely on resume).

        The winner's breakdown is carried out of the anneal, keyed on the
        tree the engine returns (see
        :class:`~repro.baselines.tap25d.WinnerScorer`).
        """
        cfg = self.config
        start = time.perf_counter()
        rng = np.random.default_rng(cfg.seed)

        scorer = WinnerScorer(
            self.reward_calculator, to_placement=BStarTree.pack
        )

        engine = SimulatedAnnealing(
            propose=self._propose,
            evaluate=scorer.evaluate,
            config=SAConfig(
                n_iterations=cfg.n_iterations,
                initial_temperature=cfg.initial_temperature,
                final_temperature=cfg.final_temperature,
                time_limit=cfg.time_limit,
                seed=cfg.seed,
                n_chains=cfg.n_chains,
                history_stride=cfg.history_stride,
                checkpoint_every=cfg.checkpoint_every,
            ),
            evaluate_many=scorer.evaluate_many,
        )
        # A resume only reads the chain count from the initial states
        # (the snapshot carries the incumbents); skip the per-chain
        # legality search then.
        initials = (
            [None] * cfg.n_chains
            if resume_state is not None
            else [self._legal_initial_tree(rng) for _ in range(cfg.n_chains)]
        )
        result = engine.run_chains(
            initials, resume_state=resume_state, checkpoint_fn=checkpoint_fn
        )
        best_tree = result.best_state
        placement = best_tree.pack()
        breakdown = scorer.winner_breakdown(best_tree)
        # Fold the interrupted leg's wall clock back in so a resumed
        # run reports its full runtime, not just the final leg.
        prior = resume_state["elapsed"] if resume_state is not None else 0.0
        return PlacerResult(
            placement=placement,
            breakdown=breakdown,
            n_evaluations=result.n_evaluations,
            elapsed=prior + time.perf_counter() - start,
            history=result.history,
        )
