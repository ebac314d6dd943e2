"""Command-line interface: run simulations and regenerate paper artifacts.

Usage (after ``pip install -e .``)::

    python -m repro run jacobi --paradigm gps --gpus 4 --link pcie6
    python -m repro compare ct --gpus 4 --scale 0.5
    python -m repro figure fig8 --scale 0.5 --iterations 8 --json out.json
    python -m repro figure all --json paper.json             # the whole paper, one grid
    python -m repro trace stencil --gpus 2 --out trace.json   # Perfetto trace
    python -m repro profile jacobi --paradigm gps --top 10
    python -m repro serve --port 8787                         # simulation service
    python -m repro submit stencil --gpus 4                   # job via the service
    python -m repro verify --cases 25 --seed 0                # conformance harness
    python -m repro cache show
    python -m repro list

Everything the CLI does goes through the same public API the examples use;
it exists so that a reproduction run is one shell command per figure, or one
(``figure all``) for the whole paper.
"""

from __future__ import annotations

import argparse
import sys

from .config import LINKS_BY_NAME, default_system
from .errors import ReproError
from .names import DEFAULT_VERIFY_PARADIGMS, FIGURES, PARADIGM_NAMES, WORKLOAD_NAMES
from .units import fmt_bytes, fmt_time

# Only the stdlib and the modules above load at import: the client verbs
# (submit/status/result) never touch the simulator, and every handler that
# simulates imports what it needs itself.


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPS multi-GPU memory management — trace-driven reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload under one paradigm")
    run.add_argument("workload", choices=WORKLOAD_NAMES)
    run.add_argument("--paradigm", default="gps", choices=sorted(PARADIGM_NAMES))
    run.add_argument("--gpus", type=int, default=4)
    run.add_argument("--link", default="pcie6", choices=sorted(LINKS_BY_NAME))
    run.add_argument("--scale", type=float, default=0.5)
    run.add_argument("--iterations", type=int, default=8)

    compare = sub.add_parser("compare", help="all six paradigms on one workload")
    compare.add_argument("workload", choices=WORKLOAD_NAMES)
    compare.add_argument("--gpus", type=int, default=4)
    compare.add_argument("--link", default="pcie6", choices=sorted(LINKS_BY_NAME))
    compare.add_argument("--scale", type=float, default=0.5)
    compare.add_argument("--iterations", type=int, default=8)

    figure = sub.add_parser("figure", help="regenerate paper figures/tables ('all': one grid)")
    figure.add_argument("names", nargs="+", metavar="NAME", choices=[*FIGURES, "all"])
    figure.add_argument("--scale", type=float, help="default: each figure's paper setting")
    figure.add_argument("--iterations", type=int, help="default: each figure's paper setting")
    figure.add_argument("--json", metavar="PATH", help="also write the result(s) as JSON")
    figure.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="simulation worker processes (default: REPRO_MAX_WORKERS or all cores)",
    )
    figure.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent result cache for this invocation",
    )

    cache = sub.add_parser("cache", help="inspect or clear the persistent result cache")
    cache.add_argument("action", nargs="?", choices=("show", "clear"), default="show")

    sub.add_parser("list", help="list workloads, paradigms, and interconnects")

    trace = sub.add_parser(
        "trace",
        help="run one workload and export a Perfetto/Chrome-trace span trace",
        description=(
            "Simulate one workload under one paradigm with span tracing forced "
            "on, then export the schedule as Chrome trace-event JSON (openable "
            "at https://ui.perfetto.dev) with a provenance manifest."
        ),
    )
    trace.add_argument("workload", help="workload name (or alias, e.g. 'stencil')")
    trace.add_argument("--paradigm", default="gps", choices=sorted(PARADIGM_NAMES))
    trace.add_argument("--gpus", type=int, default=4)
    trace.add_argument("--link", default="pcie6", choices=sorted(LINKS_BY_NAME))
    trace.add_argument("--scale", type=float, default=0.5)
    trace.add_argument("--iterations", type=int, default=8)
    trace.add_argument("--out", metavar="PATH", help="trace JSON output (default: <workload>.trace.json)")
    trace.add_argument("--metrics", metavar="PATH", help="also write flat counter metrics (.json or .csv)")
    trace.add_argument(
        "--top", type=_non_negative_int, default=10, help="profile rows to print (0 = none)"
    )
    trace.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the emitted trace and fail on any problem",
    )

    profile = sub.add_parser(
        "profile",
        help="run one workload and print a top-N self-time profile",
    )
    profile.add_argument("workload", help="workload name (or alias, e.g. 'stencil')")
    profile.add_argument("--paradigm", default="gps", choices=sorted(PARADIGM_NAMES))
    profile.add_argument("--gpus", type=int, default=4)
    profile.add_argument("--link", default="pcie6", choices=sorted(LINKS_BY_NAME))
    profile.add_argument("--scale", type=float, default=0.5)
    profile.add_argument("--iterations", type=int, default=8)
    profile.add_argument("--top", type=_non_negative_int, default=15, help="rows to print")

    export_trace = sub.add_parser(
        "export-trace", help="export a workload's trace *program* to JSON"
    )
    export_trace.add_argument("workload")
    export_trace.add_argument("path", help="output JSON file")
    export_trace.add_argument("--gpus", type=int, default=4)
    export_trace.add_argument("--scale", type=float, default=0.5)
    export_trace.add_argument("--iterations", type=int, default=8)

    run_trace = sub.add_parser("run-trace", help="simulate a saved trace file")
    run_trace.add_argument("path")
    run_trace.add_argument("--paradigm", default="gps", choices=sorted(PARADIGM_NAMES))
    run_trace.add_argument("--link", default="pcie6", choices=sorted(LINKS_BY_NAME))
    run_trace.add_argument(
        "--no-analyze",
        action="store_true",
        help="skip the pre-simulation static analysis gate",
    )

    lint = sub.add_parser(
        "lint",
        help="statically analyze a trace for memory-model and hygiene issues",
        description=(
            "Run the repro.analysis static analyzer over saved trace files, "
            "registered workloads' generated traces, or (with target 'all') every "
            "registered workload. Exit code: 2 on error-severity findings or "
            "a bad target or rule code, 1 on warnings under --strict, 0 "
            "otherwise."
        ),
    )
    lint.add_argument(
        "target",
        nargs="+",
        help="trace JSON files, registered workload names, or 'all'",
    )
    lint.add_argument("--gpus", type=int, default=4, help="workload targets only")
    lint.add_argument("--scale", type=float, default=0.5, help="workload targets only")
    lint.add_argument("--iterations", type=int, default=8, help="workload targets only")
    lint.add_argument(
        "--format",
        dest="format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings, not just errors",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only run these rule codes/prefixes (comma-separated, repeatable)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="suppress these rule codes/prefixes (comma-separated, repeatable)",
    )
    lint.add_argument(
        "--portability",
        action="store_true",
        help="print the paradigm-portability matrix (text format; JSON/SARIF always embed it)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the simulation service (JSON over HTTP)",
        description=(
            "Host the asyncio simulation service: a bounded priority job "
            "queue with request coalescing. The scheduler dispatches each "
            "queued job at once on its own call to the harness runner, one "
            "per worker of the service's pool. REPRO_SERVICE_HOST and "
            "REPRO_SERVICE_PORT set the bind address; flags override. "
            "See docs/SERVICE.md."
        ),
    )
    serve.add_argument("--host", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, help="bind port (default 8787; 0 = ephemeral)")
    serve.add_argument("--queue-depth", type=int, help="max queued simulations before 429s")
    serve.add_argument(
        "--workers", type=int,
        help="width of the service's worker pool: jobs in flight at once (1 = in-process)",
    )
    def _add_client_args(p) -> None:
        p.add_argument(
            "--url",
            help="service URL (default: REPRO_SERVICE_URL or http://127.0.0.1:8787)",
        )
        p.add_argument("--json", action="store_true", help="print the raw JSON payload")

    submit = sub.add_parser(
        "submit", help="submit one simulation to a running service"
    )
    submit.add_argument("workload", help="workload name (or alias, e.g. 'stencil')")
    submit.add_argument("--paradigm", default="gps", choices=sorted(PARADIGM_NAMES))
    submit.add_argument("--gpus", type=int, default=4)
    submit.add_argument("--link", default="pcie6", choices=sorted(LINKS_BY_NAME))
    submit.add_argument("--scale", type=float, default=0.5)
    submit.add_argument("--iterations", type=int, default=8)
    submit.add_argument("--priority", type=int, default=0, help="higher runs earlier")
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id immediately instead of waiting for the result",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, help="seconds to wait for the result"
    )
    _add_client_args(submit)

    status = sub.add_parser("status", help="show one submitted job's status")
    status.add_argument("id", help="job id returned by 'repro submit'")
    _add_client_args(status)

    result = sub.add_parser("result", help="fetch one completed job's result")
    result.add_argument("id", help="job id returned by 'repro submit'")
    _add_client_args(result)

    verify = sub.add_parser(
        "verify",
        help="fuzz + invariant oracle + differential conformance harness",
        description=(
            "Generate analyzer-clean random trace programs, check every "
            "simulation against the invariant oracle, and assert that the "
            "direct, disk-cache, process-pool, and live-service "
            "execution paths agree byte-for-byte. Failures write machine-readable "
            "repro artifacts with greedily minimised programs. Exit code: "
            "0 when every case passes, 1 otherwise. See docs/VERIFY.md."
        ),
    )
    verify.add_argument("--seed", type=int, default=0, help="first fuzz seed")
    verify.add_argument("--cases", type=int, default=10, help="number of fuzz cases")
    verify.add_argument(
        "--paradigms",
        default=",".join(DEFAULT_VERIFY_PARADIGMS),
        help="comma-separated paradigm list, or 'all' "
        f"(default: {','.join(DEFAULT_VERIFY_PARADIGMS)})",
    )
    verify.add_argument("--gpus", type=int, default=4)
    verify.add_argument("--link", default="pcie6", choices=sorted(LINKS_BY_NAME))
    verify.add_argument("--scale", type=float, default=0.25)
    verify.add_argument("--iterations", type=int, default=2)
    verify.add_argument(
        "--no-service",
        action="store_true",
        help="skip the live-service execution path",
    )
    verify.add_argument(
        "--out",
        metavar="DIR",
        default="verify-artifacts",
        help="directory for failure-repro artifacts (default: verify-artifacts/)",
    )
    verify.add_argument(
        "--list-checks",
        action="store_true",
        help="print the oracle check catalogue and exit",
    )
    verify.add_argument(
        "--sanitizer",
        action="store_true",
        help=(
            "run the sanitizer self-validation harness instead: fuzz clean "
            "programs, inject known defects, and assert the analyzer and "
            "portability gate catch each one"
        ),
    )
    return parser


def _speedup_jobs(args, paradigms) -> list:
    """One job per paradigm on ``args.gpus`` GPUs, then the one-GPU baseline.

    The baseline is ``memcpy`` on one GPU over the same link: the paper's
    "well-optimized single GPU implementation" (section 7.1).
    """
    from .harness.runner import SimJob

    jobs = [
        SimJob(args.workload, paradigm, args.gpus, args.link, args.scale, args.iterations)
        for paradigm in paradigms
    ]
    return [*jobs, SimJob(args.workload, "memcpy", 1, args.link, args.scale, args.iterations)]


def _cmd_run(args) -> int:
    from . import LABELS, get_workload
    from .harness.runner import run_many

    jobs = _speedup_jobs(args, [args.paradigm])
    result, single = run_many(jobs)
    config = jobs[0].resolved_config()
    speedup = single.total_time / result.total_time
    print(f"workload      : {args.workload} ({get_workload(args.workload).info.comm_pattern})")
    print(f"paradigm      : {LABELS[args.paradigm]}")
    print(f"system        : {args.gpus}x {config.gpu.name} over {config.link.name}")
    print(f"simulated time: {fmt_time(result.total_time)}")
    print(f"1-GPU baseline: {fmt_time(single.total_time)}  -> speedup {speedup:.2f}x")
    print(f"interconnect  : {fmt_bytes(result.interconnect_bytes)}")
    if result.fault_count:
        print(f"faults        : {result.fault_count} ({result.pages_migrated} pages migrated)")
    if result.subscriber_histogram:
        print(f"subscribers   : {dict(sorted(result.subscriber_histogram.items()))}")
    return 0


def _cmd_compare(args) -> int:
    from . import FIGURE8_ORDER, LABELS
    from .harness.ascii_plot import bar_chart
    from .harness.runner import run_many

    jobs = _speedup_jobs(args, FIGURE8_ORDER)
    *results, single = run_many(jobs)
    speedups = {
        LABELS[job.paradigm]: single.total_time / result.total_time
        for job, result in zip(jobs[:-1], results)
    }
    print(
        bar_chart(
            speedups,
            title=(
                f"{args.workload} on {args.gpus} GPUs over {LINKS_BY_NAME[args.link].name} "
                f"(speedup vs 1 GPU)"
            ),
        )
    )
    return 0


def _cmd_figure(args) -> int:
    import os

    from .harness.experiments import run_figures
    from .harness.export import to_json
    from .harness.report import format_speedup_matrix, format_table
    from .obs.host import HOST

    if args.no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"
    if args.workers is not None:
        os.environ["REPRO_MAX_WORKERS"] = str(args.workers)
    names = list(FIGURES) if "all" in args.names else list(dict.fromkeys(args.names))
    payloads = run_figures(names, scale=args.scale, iterations=args.iterations)
    for name, result in payloads.items():
        if "speedups" in result and "paradigms" in result:
            print(format_speedup_matrix(result, title=name))
        elif "rows" in result:
            rows = result["rows"]
            headers = list(rows[0].keys())
            print(format_table(headers, [[r[h] for h in headers] for r in rows], title=name))
        else:
            print(to_json(result))
    if args.json:
        to_json(payloads[names[0]] if len(names) == 1 else payloads, path=args.json)
        print(f"(wrote {args.json})")
    for line in _host_report(HOST.as_dict()):
        print(line)
    return 0


def _host_report(snapshot: dict) -> "list[str]":
    """The ``cache:`` line and ``fleet:`` block ``figure`` prints after its grid.

    Built from a ``host.*`` snapshot; a line whose counts are all zero is left out.
    """
    def count(name: str):
        return snapshot.get(f"host.{name}", 0)

    lines = []
    hits = count("results.memory_hits") + count("results.disk_hits")
    lookups = hits + count("results.misses")
    if lookups:
        lines.append(
            f"cache: {hits}/{lookups} hits ({count('results.memory_hits')} memory, "
            f"{count('results.disk_hits')} disk, {count('results.misses')} misses; "
            f"{100.0 * hits / lookups:.0f}% hit rate)"
        )
    if count("fleet.runs"):
        failed = count("fleet.jobs_failed")
        failed_note = f", {failed} failed" if failed else ""
        lines.append(
            f"fleet: {count('fleet.runs')} run_many call(s), "
            f"{count('fleet.jobs_submitted')} jobs submitted "
            f"({count('fleet.jobs_cached')} cached, {count('fleet.jobs_computed')} computed"
            f"{failed_note}, {count('fleet.wall_s'):.2f}s compute wall-clock)"
        )
        head, tail = "host.fleet.workers.", ".jobs"
        workers = [name[len(head):-len(tail)] for name in snapshot
                   if name.startswith(head) and name.endswith(tail)]
        for worker in sorted(workers):
            jobs = count(f"fleet.workers.{worker}.jobs")
            if jobs:  # a worker zeroed by clear_run_cache has no row
                wall = count(f"fleet.workers.{worker}.wall_s")
                lines.append(f"  {worker}: {jobs} job(s), {wall:.2f}s")
    return lines


def _cmd_cache(args) -> int:
    """Inspect or clear the persistent cache; always exits 0.

    ``show`` prints fixed-order ``label : value`` columns; an empty or
    missing cache directory is a normal state (0 entries), not an error.
    """
    from .harness.runner import clear_disk_cache, disk_cache_info

    info = disk_cache_info()
    if args.action == "clear":
        if not info["enabled"]:
            print("persistent cache disabled (REPRO_NO_CACHE is set); nothing to clear")
            return 0
        removed = clear_disk_cache()
        print(f"removed {removed} cached results from {info['directory']}")
        return 0
    if not info["enabled"]:
        print("persistent cache  : disabled (REPRO_NO_CACHE is set)")
        return 0
    rows = [
        ("persistent cache", info["directory"]),
        ("model fingerprint", info["model"]),
        ("entries", f"{info['entries']} ({fmt_bytes(info['size_bytes'])})"),
    ]
    for label, value in rows:
        print(f"{label:<18}: {value}")
    return 0


def _traced_run(args):
    """Run one job through the runner's compute path, keeping its engine spans.

    Returns ``(job, result, spans, wall_clock_seconds)``. The job passes the
    analyzer gate like any other but skips the result cache: a cached
    result has no engine to derive spans from.
    """
    import time as _time

    from .harness.runner import SimJob
    from .harness.runner.parallel import compute_job

    job = SimJob(args.workload, args.paradigm, args.gpus, args.link, args.scale, args.iterations)
    t0 = _time.perf_counter()
    result, spans = compute_job(job, traced=True)
    return job, result, spans, _time.perf_counter() - t0


def _cmd_trace(args) -> int:
    import json as _json

    from .obs import (
        format_profile,
        metrics_csv,
        metrics_json,
        run_manifest,
        self_time_profile,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from .workloads.registry import resolve_workload_name

    job, result, spans, wall = _traced_run(args)
    out = args.out or f"{resolve_workload_name(args.workload)}.trace.json"
    manifest = run_manifest(result, job.resolved_config(), wall_clock=wall)
    payload = write_chrome_trace(out, spans, manifest)
    print(f"simulated time: {fmt_time(result.total_time)}")
    print(f"wrote {out}: {len(spans)} spans on "
          f"{len({span.track for span in spans})} tracks "
          f"(open at https://ui.perfetto.dev)")
    if args.metrics:
        if args.metrics.endswith(".csv"):
            with open(args.metrics, "w") as fh:
                fh.write(metrics_csv(result))
        else:
            with open(args.metrics, "w") as fh:
                _json.dump(metrics_json(result), fh, indent=2, sort_keys=True)
        print(f"wrote {args.metrics}: {len(result.counters)} counters")
    if args.top:
        print(format_profile(self_time_profile(spans, top=args.top)))
    if args.validate:
        problems = validate_chrome_trace(payload)
        if problems:
            for problem in problems:
                print(f"trace validation: {problem}", file=sys.stderr)
            return 2
        print(f"trace validation: OK ({len(spans)} spans)")
    return 0


def _cmd_profile(args) -> int:
    from .obs import format_profile, self_time_profile
    from .workloads.registry import resolve_workload_name

    _job, result, spans, _wall = _traced_run(args)
    print(f"simulated time: {fmt_time(result.total_time)}")
    title = (
        f"self-time profile: {resolve_workload_name(args.workload)} / {args.paradigm} "
        f"on {args.gpus} GPUs"
    )
    print(format_profile(self_time_profile(spans, top=args.top), title))
    return 0


def _cmd_export_trace(args) -> int:
    from . import get_workload
    from .trace.io import save_program

    program = get_workload(args.workload).build(
        args.gpus, scale=args.scale, iterations=args.iterations
    )
    save_program(program, args.path)
    print(
        f"wrote {args.path}: {len(program.phases)} phases, "
        f"{sum(1 for _ in program.iter_kernels())} kernels, "
        f"{len(program.buffers)} buffers"
    )
    return 0


def _cmd_run_trace(args) -> int:
    from . import LABELS, simulate
    from .analysis import check_program
    from .errors import AnalysisError
    from .trace.io import load_program

    try:
        program = load_program(args.path)
    except OSError as exc:
        print(f"run-trace: {exc}", file=sys.stderr)
        return 2
    config = default_system(program.num_gpus, LINKS_BY_NAME[args.link])
    if not args.no_analyze:
        # The runner's gate: only errors that make this paradigm unsafe block.
        blocked = False
        try:
            diagnostics = check_program(
                program, page_size=config.page_size, paradigm=args.paradigm
            )
        except AnalysisError as exc:
            diagnostics, blocked = exc.diagnostics, True
        for diagnostic in diagnostics:
            print(diagnostic)
        if blocked:
            print(f"{program.name}: refusing to simulate a trace with errors under "
                  f"{args.paradigm} (rerun with --no-analyze to override)")
            return 2
    result = simulate(program, args.paradigm, config)
    print(f"program       : {program.name} ({program.num_gpus} GPUs)")
    print(f"paradigm      : {LABELS[args.paradigm]}")
    print(f"simulated time: {fmt_time(result.total_time)}")
    print(f"interconnect  : {fmt_bytes(result.interconnect_bytes)}")
    return 0


def _lint_programs(args) -> "list":
    """Resolve the lint targets to a program list ('all' expands in place)."""
    from pathlib import Path

    from . import get_workload
    from .trace.io import load_program

    programs = []
    for target in args.target:
        if target == "all":
            programs.extend(
                get_workload(name).build(
                    args.gpus, scale=args.scale, iterations=args.iterations
                )
                for name in WORKLOAD_NAMES
            )
        elif target in WORKLOAD_NAMES or not Path(target).exists():
            programs.append(
                get_workload(target).build(
                    args.gpus, scale=args.scale, iterations=args.iterations
                )
            )
        else:
            programs.append(load_program(target))
    return programs


def _cmd_lint(args) -> int:
    from .analysis import (
        Severity,
        analyze_program,
        max_severity,
        portability_report,
        render_json_dict,
        render_portability_text,
        render_sarif_runs,
        render_text,
        sarif_run,
    )

    try:
        results = [
            (program, analyze_program(program, select=args.select, ignore=args.ignore))
            for program in _lint_programs(args)
        ]
    except (OSError, ValueError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "text":
        chunks = []
        for program, diags in results:
            chunk = render_text(program, diags)
            if args.portability:
                chunk += "\n" + render_portability_text(
                    portability_report(program, diags)
                )
            chunks.append(chunk)
        print("\n".join(chunks))
    elif args.format == "json":
        import json

        reports = [render_json_dict(program, diags) for program, diags in results]
        payload = reports[0] if len(reports) == 1 else {"programs": reports}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_sarif_runs([sarif_run(program, diags) for program, diags in results]))
    worst = max_severity([d for _, diags in results for d in diags])
    if worst is Severity.ERROR:
        return 2
    if worst is Severity.WARNING and args.strict:
        return 1
    return 0


def _cmd_serve(args) -> int:
    from .service import ServiceSettings, serve

    try:
        settings = ServiceSettings.from_env(
            host=args.host,
            port=args.port,
            queue_depth=args.queue_depth,
            max_workers=args.workers,
        )
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    return serve(settings)


def _print_result_payload(payload: dict, as_json: bool) -> None:
    import json as _json

    if as_json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return
    result = payload["result"]
    job = payload.get("job", {})
    print(f"job           : {payload['id']} ({payload['state']})")
    print(f"workload      : {result['program_name']} / {result['paradigm']} "
          f"on {result['num_gpus']} GPUs over {job.get('link', '?')}")
    print(f"simulated time: {fmt_time(result['total_time'])}")
    interconnect = sum(sum(row) for row in result["traffic"])
    print(f"interconnect  : {fmt_bytes(interconnect)}")


def _cmd_submit(args) -> int:
    import json as _json

    from .service import ClientError, JobFailed, ServiceClient

    client = ServiceClient(args.url)
    try:
        job = client.submit(
            args.workload,
            paradigm=args.paradigm,
            gpus=args.gpus,
            link=args.link,
            scale=args.scale,
            iterations=args.iterations,
            priority=args.priority,
        )
        if args.no_wait:
            if args.json:
                print(_json.dumps(job, indent=2, sort_keys=True))
            else:
                print(f"submitted {job['id']} ({job['state']}"
                      f"{', coalesced' if job['coalesced'] else ''}"
                      f"{', cache hit' if job['cache_hit'] else ''})")
            return 0
        payload = client.wait(job["id"], timeout=args.timeout)
    except JobFailed as exc:
        print(f"job failed: {exc}", file=sys.stderr)
        return 3
    except ClientError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    _print_result_payload(payload, args.json)
    return 0


def _cmd_status(args) -> int:
    import json as _json

    from .service import ClientError, ServiceClient

    try:
        payload = ServiceClient(args.url).status(args.id)
    except ClientError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        wait_s = payload["wait_s"]
        run_s = payload["run_s"]
        print(f"job           : {payload['id']} ({payload['state']})")
        print(f"submission    : {payload['job']['workload']} / {payload['job']['paradigm']} "
              f"on {payload['job']['num_gpus']} GPUs over {payload['job']['link']}")
        print(f"flags         : coalesced={payload['coalesced']} "
              f"cache_hit={payload['cache_hit']} attempts={payload['attempts']}")
        print(f"latency       : wait {wait_s:.3f}s" if wait_s is not None else
              "latency       : still queued")
        if run_s is not None:
            print(f"run           : {run_s:.3f}s")
        if payload.get("error"):
            print(f"error         : {payload['error']}")
    return 0


def _cmd_result(args) -> int:
    from .service import ClientError, JobFailed, ServiceClient

    client = ServiceClient(args.url)
    try:
        payload = client.result(args.id)
    except JobFailed as exc:
        print(f"job failed: {exc}", file=sys.stderr)
        return 3
    except ClientError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    if payload is None:
        print(f"job {args.id} is still pending", file=sys.stderr)
        return 1
    _print_result_payload(payload, args.json)
    return 0


def _cmd_verify(args) -> int:
    from . import simulate
    from .harness.report import format_table
    from .verify import (
        build_artifact,
        generate_program,
        minimize_program,
        oracle_catalogue,
        run_differential,
        shrink_stats,
        write_artifact,
    )
    from .verify.oracle import check_result

    if args.list_checks:
        rows = [[name, layer, summary] for name, layer, summary in oracle_catalogue()]
        print(format_table(["check", "layer", "invariant"], rows, title="Oracle checks"))
        return 0
    if args.sanitizer:
        from .verify.sanitizer import run_sanitizer

        print(
            f"verify --sanitizer: {args.cases} fuzz cases "
            f"(seeds {args.seed}..{args.seed + args.cases - 1}) on {args.gpus} GPUs"
        )
        sanitizer_report = run_sanitizer(
            seed=args.seed,
            cases=args.cases,
            num_gpus=args.gpus,
            scale=args.scale,
            iterations=args.iterations,
            link=args.link,
            progress=lambda message: print(f"  {message}"),
        )
        for failure in sanitizer_report.failures:
            print(f"FAIL {failure}", file=sys.stderr)
        counts = ", ".join(
            f"{name}={count}" for name, count in sorted(sanitizer_report.mutants.items())
        )
        print(
            f"verify --sanitizer: {sanitizer_report.cases} clean case(s), "
            f"{sanitizer_report.mutants_checked} mutant(s) [{counts}], "
            f"{len(sanitizer_report.failures)} failure(s)"
        )
        if sanitizer_report.failures:
            return 1
        print(
            "verify --sanitizer: OK — clean programs pass the oracle and "
            "every injected defect is flagged and gated"
        )
        return 0
    if args.paradigms.strip() == "all":
        paradigms = tuple(sorted(PARADIGM_NAMES))
    else:
        paradigms = tuple(p.strip() for p in args.paradigms.split(",") if p.strip())
    seeds = range(args.seed, args.seed + args.cases)
    print(
        f"verify: {args.cases} fuzz cases (seeds {args.seed}..{args.seed + args.cases - 1}) "
        f"x {len(paradigms)} paradigms on {args.gpus} GPUs over {args.link}"
    )
    report = run_differential(
        seeds,
        num_gpus=args.gpus,
        scale=args.scale,
        iterations=args.iterations,
        paradigms=paradigms,
        link=args.link,
        use_service=not args.no_service,
        progress=lambda message: print(f"  {message}"),
    )
    failures = [case for case in report.cases if not case.ok]
    for case in failures:
        for violation in case.violations:
            print(f"FAIL seed {case.spec.seed}: {violation}", file=sys.stderr)
        # Minimise against the oracle's result checks (the cheap,
        # process-local predicate); differential failures keep the full
        # generated program, whose seed already reproduces them.
        program = generate_program(
            case.spec.seed, case.spec.num_gpus,
            scale=case.spec.scale, iterations=case.spec.iterations,
        )
        config = default_system(args.gpus, LINKS_BY_NAME[args.link])

        def _oracle_fails(candidate) -> bool:
            return bool(check_result(simulate(candidate, paradigms[0], config), config))

        minimized = program
        if any(not v.check.startswith("differential") for v in case.violations):
            minimized = minimize_program(program, _oracle_fails)
        path = write_artifact(
            args.out,
            build_artifact(
                case, paradigms, args.link,
                program=minimized, shrink=shrink_stats(program, minimized),
            ),
        )
        print(f"wrote {path}", file=sys.stderr)
    summary = report.summary()
    print(
        f"verify: {summary['cases']} cases, {summary['violations']} violations, "
        f"paths: {', '.join(summary['paths'])}"
    )
    if failures:
        print(f"verify: {len(failures)} case(s) FAILED", file=sys.stderr)
        return 1
    print("verify: OK — all paths byte-identical, all invariants hold")
    return 0


def _cmd_list(_args) -> int:
    from . import get_workload
    from .harness.report import format_table

    rows = [
        [name, get_workload(name).info.comm_pattern, get_workload(name).info.description]
        for name in WORKLOAD_NAMES
    ]
    print(format_table(["workload", "pattern", "description"], rows, title="Workloads"))
    print()
    print("Paradigms     :", ", ".join(sorted(PARADIGM_NAMES)))
    print("Interconnects :", ", ".join(sorted(LINKS_BY_NAME)))
    return 0


def main(argv=None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "figure": _cmd_figure,
        "list": _cmd_list,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "export-trace": _cmd_export_trace,
        "run-trace": _cmd_run_trace,
        "lint": _cmd_lint,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "result": _cmd_result,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        # A bad argument (unknown workload, out-of-range config) is a usage
        # error, not a crash: one line on stderr, exit status 2.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
