"""One benchmark pass in a fresh process.

Usage: python3 child.py '<json spec>'. The spec names the experiments, the
artifact directory, the seed, optional config files, whether to trace, and
where to write the result. The pass imports `edl.cli`, resolves each
experiment's config (together: the set-up time), then runs the experiments
one after another through `edl.cli.main` (the wall time) and records its own
peak resident set. With "setup_only" it stops after set-up.
"""
from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
import traceback


def _write(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(obj, handle)


def main(spec):
    t0 = time.perf_counter()
    import edl.cli

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from edl.config import build_config, load_config, with_overrides

    configs = {}
    for command in spec["experiments"]:
        path = spec["configs"].get(command)
        cfg = load_config(path, experiment=command) if path else build_config(command)
        configs[command] = with_overrides(cfg, out_dir=spec["out"], seed=spec["seed"])
    setup_s = time.perf_counter() - t0
    if spec["setup_only"]:
        _write(spec["result"], {"setup_s": setup_s})
        return

    ops = []
    w0 = time.perf_counter()
    for command in spec["experiments"]:
        argv = [command, "--out", spec["out"], "--seed", str(spec["seed"])]
        if spec["configs"].get(command):
            argv += ["--config", spec["configs"][command]]
        try:
            rc, error = edl.cli.main(argv), None
        except (Exception, SystemExit):
            rc, error = None, traceback.format_exc()
        ops.append({"experiment": command, "rc": rc, "error": error})
    wall_s = time.perf_counter() - w0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "configs": {c: dataclasses.asdict(cfg) for c, cfg in configs.items()},
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, wall_s)
        tracer.write(spec["spans"])
    _write(spec["result"], result)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
