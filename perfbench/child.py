"""One mg-audit pipeline run in a fresh process.

    python3 perfbench/child.py --config C --out DIR --result R.json --spawned-at T
        [--mock FIXTURES] [--trace] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports,
``load_config`` and ``validate_paths``. The run itself is
``mg_audit.stages.run_all`` into ``--out``. With ``--trace`` the public
functions of each module are wrapped first and the per-layer summary is
added to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mock")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    from mg_audit import stages
    from mg_audit.config import load_config

    config = load_config(args.config)
    config.output_dir = Path(args.out)
    config.validate_paths()
    result: dict = {"setup_s": time.monotonic() - args.spawned_at}

    if not args.setup_only:
        if args.trace:
            from tracer import Tracer, summarize

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        stages.run_all(config, mock_transport=args.mock)
        result["wall_s"] = time.perf_counter() - start
        if args.trace:
            result["layers"] = summarize(tracer.spans, [m.model_id for m in config.models])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tmp = Path(args.result + ".tmp")
    tmp.write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, args.result)


if __name__ == "__main__":
    main()
