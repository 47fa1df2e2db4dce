"""Transfer learning across chiplet systems.

The paper's introduction argues RL brings "flexibility and
transferability" that SA lacks: a policy trained on one system can warm-
start another.  This example trains on synthetic case 1, then fine-tunes
on case 2 and compares against training case 2 from scratch under the
same epoch budget.  It also estimates link delays of the final
floorplan, closing the loop on the intro's three concerns (bumps,
delays, heat).

Run:
    python examples/transfer_learning.py
"""

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.bumps import BumpAssigner, worst_net_delay
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.experiments.runner import ExperimentBudget, build_evaluators
from repro.systems import get_benchmark

EPOCHS = 20
GRID = 24


def make_trainer(spec, evaluators, seed=0):
    env = BatchedFloorplanEnv(
        spec.system, evaluators["reward_fast"], EnvConfig(grid_size=GRID)
    )
    return RLPlannerTrainer(
        env,
        TrainerConfig(
            epochs=EPOCHS, episodes_per_epoch=8, seed=seed, log_every=0
        ),
    )


def main() -> None:
    budget = ExperimentBudget(grid_size=GRID)
    source = get_benchmark("synthetic1")
    target = get_benchmark("synthetic2")
    ev_source = build_evaluators(source, budget)
    ev_target = build_evaluators(target, budget)

    print(f"source system: {source.system.n_chiplets} dies; "
          f"target system: {target.system.n_chiplets} dies")

    print(f"\n[1/3] pre-training on {source.name} ({EPOCHS} epochs)...")
    pretrainer = make_trainer(source, ev_source)
    pre = pretrainer.train()
    print(f"   source best reward {pre.best_reward:.4f}")

    print(f"[2/3] fine-tuning on {target.name} (warm start)...")
    warm = make_trainer(target, ev_target)
    # Observation channels and action grid match, so weights transfer.
    warm.network.load_state_dict(pretrainer.network.state_dict())
    warm_result = warm.train()

    print(f"[3/3] training on {target.name} from scratch...")
    cold = make_trainer(target, ev_target, seed=0)
    cold_result = cold.train()

    print(f"\nwarm-started best reward : {warm_result.best_reward:.4f}")
    print(f"from-scratch best reward : {cold_result.best_reward:.4f}")
    warm_first = warm_result.history[0]["mean_reward"]
    cold_first = cold_result.history[0]["mean_reward"]
    print(f"first-epoch mean reward  : warm {warm_first:.4f} "
          f"vs cold {cold_first:.4f}")

    # Link-delay check of the winning floorplan.
    best = max((warm_result, cold_result), key=lambda r: r.best_reward)
    assignment = BumpAssigner(wire_group_size=8).assign(best.best_placement)
    worst = worst_net_delay(assignment)
    print(
        f"\nslowest link: {worst.src} -> {worst.dst} "
        f"({worst.max_length_mm:.1f} mm, {worst.max_delay_ns:.3f} ns Elmore)"
    )


if __name__ == "__main__":
    main()
