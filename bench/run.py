"""Wall-clock benchmark of the GPS reproduction.

Usage, from the repository root::

    python3 bench/run.py --workload fig08-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload service-mix --trace 1     # per-layer ledger
    python3 bench/run.py --workload gps-sweep --smoke         # sanity size only
    python3 bench/run.py --workload fig08-cold --update-golden

A run repeats *rounds* of one workload for ``--seconds`` (at least three),
each in a fresh child interpreter with the persistent result cache pointed
at an empty directory under ``.bench_out/``. ``wall_s`` is the fastest
round's wall time; ``setup_s`` and ``peak_rss_mb`` are medians over the
rounds. With ``--trace 1`` every second round records layer spans; the
run then reports the per-layer ledger (medians over traced rounds) instead
of the end-to-end metrics, writes a Perfetto JSON and a self-time table to
``.bench_out/``, and never mixes traced time into end-to-end numbers.

Every round's results are digested and compared with ``bench/golden.json``;
a mismatch or a failed job makes ``correct`` false and the exit code 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import workloads  # noqa: E402
from bench.ledger import METRICS as LEDGER_METRICS  # noqa: E402
from bench.ledger import tail_percentile  # noqa: E402

#: End-to-end metrics every workload reports with tracing off.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

GOLDEN = ROOT / "bench" / "golden.json"
OUT_DIR = ROOT / ".bench_out"

#: Rounds a run always makes, whatever ``--seconds`` says: enough for a
#: median, and in a traced run two untraced and two traced rounds.
MIN_ROUNDS = 3
MIN_TRACED_RUN_ROUNDS = 4

#: Seconds one child may take before the run is abandoned.
CHILD_TIMEOUT_S = 120


class RoundFailed(RuntimeError):
    """A child process crashed or timed out; the run prints no result."""


def _child_env(workdir: Path, cache_dir: Path) -> dict:
    # Inherited REPRO_* knobs would change what is measured; drop them all.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(workdir)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _run_child(argv: "list[str]", env: dict) -> "dict | None":
    """Run ``python -m bench.rounds`` in its own session; return its JSON line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.rounds", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The session holds the child and anything it started (the server).
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"round child timed out after {CHILD_TIMEOUT_S}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RoundFailed(f"round child exited with code {proc.returncode}")
    if stderr:
        sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def measure(args, workdir: Path) -> "list[dict]":
    """Run rounds until the next one would overrun ``args.seconds``."""
    common = ["--workload", args.workload, "--size", args.size, "--seed", str(args.seed)]
    seed_dir = workdir / "seed-cache"
    if workloads.WORKLOADS[args.workload] == "service":
        seed_dir.mkdir()
        _run_child(
            ["--prepare-seed", "--size", args.size, "--workdir", str(workdir)],
            _child_env(workdir, seed_dir),
        )
    if args.trace:
        min_rounds = MIN_TRACED_RUN_ROUNDS
    else:
        min_rounds = 1 if args.smoke else MIN_ROUNDS
    rounds: "list[dict]" = []
    durations: "list[float]" = []
    started = time.perf_counter()
    while True:
        index = len(rounds)
        # A traced run alternates untraced and traced rounds, so both see
        # the same host conditions and their ratio is the tracing overhead.
        traced = bool(args.trace) and index % 2 == 1
        round_dir = workdir / f"round{index}"
        cache_dir = round_dir / "cache"
        if seed_dir.exists():
            shutil.copytree(seed_dir, cache_dir)
        else:
            cache_dir.mkdir(parents=True)
        argv = common + [
            "--round", str(index), "--trace", str(int(traced)), "--workdir", str(round_dir),
        ]
        if traced:
            argv += ["--trace-out", str(_artifact(args, "trace.json"))]
        t0 = time.perf_counter()
        record = _run_child(argv, _child_env(round_dir, cache_dir))
        durations.append(time.perf_counter() - t0)
        shutil.rmtree(round_dir)
        record["traced"] = traced
        rounds.append(record)
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and elapsed + statistics.median(durations) > args.seconds:
            return rounds


def _artifact(args, suffix: str) -> Path:
    return OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}.{suffix}"


def _src_lines() -> int:
    total = 0
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def _check_digests(args, rounds: "list[dict]") -> int:
    """Compare each round with the golden digest; returns the mismatch count."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    observed = {r["digest"] for r in rounds}
    if args.update_golden:
        if len(observed) != 1 or any(r["failed"] for r in rounds):
            print(f"not updating golden: rounds disagree or failed ({sorted(observed)})")
            return len(rounds)
        golden.setdefault(args.size, {})[args.workload] = observed.pop()
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"golden digest for {args.size}/{args.workload} updated")
        return 0
    expected = golden.get(args.size, {}).get(args.workload)
    mismatches = sum(1 for r in rounds if r["digest"] != expected)
    if mismatches:
        print(f"digest mismatch: expected {expected}, observed {sorted(observed)}")
    return mismatches


def summarize(args, rounds: "list[dict]") -> "dict[str, dict]":
    """The metrics the run reports: end-to-end untraced, per-layer traced."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if not args.trace:
        # Interference from other tenants of a shared host only ever slows
        # a round down, so the fastest round is the steadiest estimate of
        # the code's own wall time (the ``timeit`` convention). Set-up and
        # memory are medians.
        return {
            name: {
                "value": (min if name == "wall_s" else statistics.median)(r[name] for r in plain),
                "unit": unit,
            }
            for name, unit in END_TO_END
        }
    values = {
        name: statistics.median(r["ledger"][name] for r in traced) for name in traced[0]["ledger"]
    }
    values["trace_overhead_ratio"] = min(r["wall_s"] for r in traced) / min(
        r["wall_s"] for r in plain
    )
    values["src.lines"] = _src_lines()
    return {name: {"value": values[name], "unit": unit} for name, unit in LEDGER_METRICS}


def report(args, rounds: "list[dict]", metrics: dict) -> None:
    """Human-readable lines printed before the JSON result."""
    print(f"workload {args.workload} ({args.size}), seed {args.seed}, {len(rounds)} rounds")
    for r in rounds:
        mode = "traced" if r["traced"] else "untraced"
        print(f"  round {mode}: setup {r['setup_s']:.3f}s wall {r['wall_s']:.3f}s")
    latencies = [x for r in rounds if not r["traced"] for x in r.get("latency_s", [])]
    if latencies:
        line = f"  request latency p50 {1e3 * statistics.median(latencies):.2f} ms"
        tail = tail_percentile(latencies)
        if tail is not None:
            line += f", p{tail[0]:g} {1e3 * tail[1]:.2f} ms"
        print(line + f" over {len(latencies)} requests")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    traced = [r for r in rounds if r["traced"]]
    if traced:
        table = traced[-1]["table"]
        _artifact(args, "layers.txt").write_text(table + "\n")
        print(table)
        print(f"perfetto trace: {_artifact(args, 'trace.json').relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring window (default 30, smoke 2)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, sanity only")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    args.size = "smoke" if args.smoke else "full"
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else 30.0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        rounds = measure(args, workdir)
    except RoundFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatches = _check_digests(args, rounds)
    failed = sum(r["failed"] for r in rounds) + mismatches
    metrics = summarize(args, rounds)
    report(args, rounds, metrics)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
