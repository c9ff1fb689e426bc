"""Command line entry point: mg-audit <stage> --config <path>."""

from __future__ import annotations

import argparse
import logging
import sys

from .config import load_config
from .stages import STAGES, StageError, run_all, run_stage
from .transport import AuthenticationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mg-audit",
        description=(
            "Audit masculine-generics bias in French corpora and LLM responses. "
            "A stage runs once the stages it reads are complete; 'all' runs every "
            "stage that is not complete."
        ),
    )
    parser.add_argument("stage", choices=STAGES + ("all",), help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument(
        "--force",
        action="store_true",
        help="adopt a changed config (required after a config change); 'all --force' "
        "then re-runs only the stale stages, '<stage> --force' re-runs that stage "
        "and invalidates its dependents",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--target", type=int, default=None, help="override the narrowing target"
    )
    parser.add_argument(
        "--mock-transport",
        default=None,
        help="directory of <model_id>.jsonl fixture files; replaces live providers",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config, seed_override=args.seed, target_override=args.target)
        runner = run_all if args.stage == "all" else (
            lambda cfg, **kw: run_stage(args.stage, cfg, **kw)
        )
        manifest = runner(config, force=args.force, mock_transport=args.mock_transport)
    except (StageError, AuthenticationError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    done = [s for s in STAGES if s in manifest.stages]
    print(f"completed stages: {', '.join(done) if done else '(none)'}")
    print(f"manifest: {manifest.path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
