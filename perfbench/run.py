"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each timed pass of the workload runs in a child process of its own
(``workloads.py``), one at a time, until ``--seconds`` have gone by.  With
``--trace 0`` the result carries the end-to-end metrics (medians over the
passes); with ``--trace 1`` one untraced pass is followed by traced passes,
and the result carries the per-layer metrics (medians over the traced
passes) and the tracing overhead.  Every output of every pass is checked
(pinned values, invariants, and agreement between passes); a failed check
makes the command exit with code 1.  The last line of standard output is
the JSON result.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_S, reference_s  # noqa: E402
from schema import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: a run must end within 180 s; passes stop being started past this
RUN_LIMIT_S = 170.0
#: reference timings taken between two passes
REFERENCE_RUNS = 2
#: the host-speed reference each workload is scaled by (hostspeed.py)
REFERENCE_OF = {
    "des-spst-e": "objects", "des-flood": "objects",
    "rounds-deep": "arrays", "campaign-store": "objects",
}


class PassFailed(RuntimeError):
    """A pass died or printed no result."""


def run_pass(
    workload: str, seed: int, trace: bool, index: int, tiny: bool, timeout: float
) -> dict:
    """Run one pass in a child process and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--pass-index", str(index),
    ]
    if tiny:
        cmd.append("--tiny")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {index} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _canonical(output: dict) -> str:
    # text, so that NaN equals NaN
    return json.dumps(output, sort_keys=True)


def unit_failures(passes: List[dict]) -> List[List[str]]:
    """Failures per operation, including outputs that differ between passes
    (every pass of a run has the same inputs, so its outputs must agree)."""
    first = passes[0]["units"]
    out = []
    for p in passes:
        keys = [u["key"] for u in p["units"]]
        if keys != [u["key"] for u in first]:
            raise PassFailed("passes ran different operations")
        for unit, ref in zip(p["units"], first):
            failures = list(unit["failures"])
            if _canonical(unit["output"]) != _canonical(ref["output"]):
                failures.append(f"{unit['key']}: output differs from pass 0")
            out.append(failures)
    return out


def summarize(passes: List[dict], trace: bool) -> dict:
    """The result object of a run from its passes' results."""
    failures = unit_failures(passes)
    failed = sum(1 for f in failures if f)
    metrics: Dict[str, dict] = {}
    if trace:
        untraced, traced = passes[0], passes[1:]
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in PER_LAYER
        }
        values.update(untraced["rates"])
        values["host.reference_s"] = statistics.median(
            p["reference_s"] for p in passes
        )
        events = values["sim.events"]
        values["sim.events_per_s"] = events / untraced["wall_s"] if events else 0.0
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        values["trace.overhead_frac"] = traced_wall / untraced["wall_s"] - 1.0
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        for name, unit in END_TO_END.items():
            # times are scaled to the nominal host speed (hostspeed.py)
            scaled = name in ("setup_s", "wall_s")
            value = statistics.median(
                p[name] * p["scale"] if scaled else p[name]
                for p in passes
            )
            metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": metrics,
        "_failures": [msg for f in failures for msg in f],
    }


def measure(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> dict:
    """Run passes for ``seconds`` and summarize them."""
    start = time.perf_counter()
    passes: List[dict] = []
    longest = 0.0
    minimum = 2 if trace else 1
    kind = REFERENCE_OF[workload]
    references = 1 if tiny else REFERENCE_RUNS
    before = [reference_s(kind) for _ in range(references)]
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= minimum and elapsed >= seconds:
            break
        if elapsed + longest > RUN_LIMIT_S:
            raise PassFailed(f"no time left for pass {len(passes)}")
        p = run_pass(
            workload, seed, trace and len(passes) > 0, len(passes), tiny,
            timeout=RUN_LIMIT_S - elapsed,
        )
        after = [reference_s(kind) for _ in range(references)]
        p["reference_s"] = statistics.median(before + after)
        p["scale"] = NOMINAL_S[kind] / p["reference_s"]
        passes.append(p)
        before = after
        longest = max(longest, time.perf_counter() - start - elapsed)
    result = summarize(passes, trace)
    result["_raw"] = {
        name: statistics.median(p[name] for p in passes)
        for name in ("setup_s", "wall_s")
    }
    result["_passes"] = len(passes)
    result["_kernel"] = passes[0]["kernel"]
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every workload (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    try:
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
        )
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for msg in result.pop("_failures"):
        print(f"FAILED {msg}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    raw = result.pop("_raw")
    print(
        f"# {args.workload} seed={args.seed} passes={result.pop('_passes')} "
        f"REPRO_KERNEL={result.pop('_kernel')} "
        f"failed_frac={failed / attempted:.4f} ({failed}/{attempted}) "
        f"unscaled setup_s={raw['setup_s']:.4f} wall_s={raw['wall_s']:.4f}"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
