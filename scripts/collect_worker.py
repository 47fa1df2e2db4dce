"""Remote episode-collection worker: serve slices to a coordinator.

Run one of these per core on any machine that can reach a training
run's collection coordinator (``TrainerConfig.collect_workers >= 1``
binds it at ``collect_bind``; the trainer logs — and
``RLPlannerTrainer.collector_address`` exposes — the actual address)::

    PYTHONPATH=src python scripts/collect_worker.py \
        --connect 192.168.1.10:7777 --worker-id rack2-core0

The worker registers under a time-bounded lease, heartbeats, builds its
environment+network replica from the coordinator's init payload, and
serves balanced episode slices.  Every transport failure —
connection refused, reset, checksum mismatch, a fenced lease after a
network partition — triggers a reconnect with seeded exponential
backoff; the slices it was serving are re-dispatched by the coordinator
and, being pure functions of (weight bytes, per-episode seed streams),
reproduce bitwise wherever they land.

``--persist`` keeps the worker alive across coordinator shutdowns (a
fleet worker serving many successive training runs); without it a
clean coordinator shutdown exits 0.

Exit codes: 0 = clean shutdown / signal; 1 = reconnect budget
(``--max-reconnects``) exhausted.
"""

import argparse
import signal
import sys
import threading

from repro.parallel.faults import RetryPolicy
from repro.parallel.remote import run_worker
from repro.utils import get_logger

_logger = get_logger("scripts.collect_worker")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (TrainerConfig.collect_bind's "
        "resolved host:port)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="stable name for logs and backoff seeding "
        "(default: <hostname>-<pid>)",
    )
    parser.add_argument(
        "--max-reconnects",
        type=int,
        default=None,
        metavar="N",
        help="give up after N consecutive failed connection attempts "
        "(default: retry forever — a fleet worker outlives trainer "
        "restarts)",
    )
    parser.add_argument(
        "--persist",
        action="store_true",
        help="reconnect even after a clean coordinator shutdown "
        "(serve successive training runs)",
    )
    parser.add_argument(
        "--backoff-base",
        type=float,
        default=0.25,
        help="initial reconnect backoff in seconds",
    )
    parser.add_argument(
        "--backoff-max",
        type=float,
        default=30.0,
        help="reconnect backoff ceiling in seconds",
    )
    parser.add_argument(
        "--backoff-seed",
        type=int,
        default=0,
        help="seed for the deterministic backoff jitter",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"--connect must be HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    policy = RetryPolicy(
        backoff_base=args.backoff_base,
        backoff_max=args.backoff_max,
        seed=args.backoff_seed,
    )
    stop = threading.Event()

    def handle_signal(signum, frame):
        _logger.info("signal %d: shutting down", signum)
        stop.set()

    signal.signal(signal.SIGINT, handle_signal)
    signal.signal(signal.SIGTERM, handle_signal)
    try:
        return run_worker(
            host,
            int(port),
            worker_id=args.worker_id,
            policy=policy,
            max_reconnects=args.max_reconnects,
            persist=args.persist,
            stop_event=stop,
        )
    except OSError as error:
        _logger.error("worker gave up: %r", error)
        return 1


if __name__ == "__main__":
    sys.exit(main())
