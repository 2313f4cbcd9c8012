"""CLI: regenerate paper figures.

Usage::

    python -m repro.experiments                       # list available figures
    python -m repro.experiments fig11                 # run one figure
    python -m repro.experiments all                   # run everything (slow)
    python -m repro.experiments fig13 --jobs 8        # fan out over 8 workers
    python -m repro.experiments fig13 --no-cache      # force recomputation
    python -m repro.experiments fig11 --save out/     # also archive JSON

Sweep results are memoized under ``.repro_cache/`` (see ``--cache-dir``
and ``$REPRO_CACHE_DIR``), keyed by experiment spec plus a digest of the
``repro`` sources — editing any simulator code invalidates stale
entries automatically, and a warm re-run of a figure is near-instant.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..exec import ExecContext, set_context
from . import REGISTRY
from .persist import save_result


def _each_result(res):
    if isinstance(res, tuple):
        yield from res
    else:
        yield res


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate figures of the paper's evaluation.",
    )
    parser.add_argument(
        "figure",
        nargs="?",
        help="figure id (see bare invocation for the list), or 'all'",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep fan-out (default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this run",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default: $REPRO_CACHE_DIR or .repro_cache/)",
    )
    parser.add_argument(
        "--save",
        nargs="?",
        default=None,
        const="",
        metavar="DIR",
        help="archive each result as JSON under DIR",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="append crash-safe sweep progress journals under DIR",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="serve finished tasks from an existing journal (implies --journal)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry crashed/timed-out sweep tasks up to N times (default: 0)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-task wall-clock budget in seconds (enforced when --jobs > 1)",
    )
    parser.add_argument(
        "--no-shm",
        action="store_true",
        help="disable the shared-memory artifact fabric (workers rebuild "
        "VP tables from spec; bit-identical reference mode)",
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help="disable fused batch dispatch of joint sweeps (scalar tasks "
        "only; bit-identical reference mode)",
    )
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv[1:])
    if args.save == "":
        print("--save requires a directory argument")
        return 1
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}")
        return 1
    if args.retries < 0:
        print(f"--retries must be >= 0, got {args.retries}")
        return 1
    if args.resume and args.journal is None:
        print("--resume requires --journal DIR (the journal to resume from)")
        return 1
    if args.figure is None:
        print("Available figures:", ", ".join(sorted(REGISTRY)))
        print("Usage: python -m repro.experiments <figure|all> "
              "[--jobs N] [--no-cache] [--cache-dir DIR] [--save DIR]")
        return 0

    set_context(
        ExecContext(
            jobs=args.jobs,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
            journal_dir=args.journal,
            resume=args.resume,
            max_retries=args.retries,
            timeout_s=args.task_timeout,
            shm=not args.no_shm,
            batch=not args.no_batch,
        )
    )

    names = sorted(REGISTRY) if args.figure == "all" else [args.figure]
    for name in names:
        fn = REGISTRY.get(name)
        if fn is None:
            print(f"Unknown figure {name!r}. Available: {', '.join(sorted(REGISTRY))}")
            return 1
        t0 = time.time()
        result = fn()
        for r in _each_result(result):
            print(r)
            print()
            if args.save is not None:
                path = save_result(r, args.save)
                print(f"[saved {path}]")
        # Timing goes to stderr so stdout (the rows) is deterministic
        # and two runs can be diffed byte for byte.
        print(f"[{name} completed in {time.time() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
