"""One benchmark repetition, in a fresh process.

Runs ``edgegate run`` and then ``edgegate replay`` through
``edgegate.cli.main`` and writes a JSON result. A replay shorter than
``REPLAY_MIN_S`` is repeated, up to ``REPLAY_MAX`` times, until that much
replay time has passed, and ``replay_s`` is their median, so short replays
get more samples. Untraced,
only the two set-up calls are wrapped, to time set-up. With ``--trace``
every function in ``tracer.SPANNED`` is wrapped, the per-name aggregates of
the run and of the first replay are added to the result, and the spans go
to ``spans_run.tsv`` and ``spans_replay.tsv``.

    python3 bench/child.py SCENARIO OUT_DIR RESULT_JSON [--trace]

The parent puts the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracer_mod

REPLAY_MIN_S = 0.5
REPLAY_MAX = 5


def main(argv: list[str]) -> int:
    scenario, out_dir, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    from edgegate import cli  # imports every edgegate module

    tracer = tracer_mod.Tracer()
    if traced:
        tracer.install()
    else:
        tracer.install(tracer_mod.SETUP, counted=())
    out = Path(out_dir)
    result: dict = {}

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        start = time.perf_counter()
        result["rc_run"] = cli.main(["run", scenario, "--out", str(out)])
        result["wall_s"] = time.perf_counter() - start
    run_agg = tracer.aggregate()
    result["setup_s"] = sum(
        run_agg.get(tracer_mod.span_name(m, p), {}).get("total_s", 0.0)
        for m, p in tracer_mod.SETUP
    )
    result["pending_at_start"] = tracer.values.get("sim.pending_at_start")
    if traced:
        tracer.write_spans(out / "spans_run.tsv")
    tracer.reset()

    replays: list[float] = []
    rc = 0
    while rc == 0 and len(replays) < REPLAY_MAX and sum(replays) < REPLAY_MIN_S:
        # A replay normally starts in a fresh process; free the run's cyclic
        # garbage first so a collection of it does not land inside the replay.
        gc.collect()
        start = time.perf_counter()
        rc = cli.main(["replay", str(out / "trace.jsonl"), "--out", str(out / "replay.json")])
        replays.append(time.perf_counter() - start)
        if traced:
            result["replay"] = tracer.aggregate()
            tracer.write_spans(out / "spans_replay.tsv")
            break
    result["rc_replay"] = rc
    result["replay_s"] = statistics.median(replays)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result["bad_roots"] = list(tracer.bad_roots)
    if traced:
        result["run"] = run_agg
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
