"""The repository's benchmark: one command for the estimators, the sweep
engine and ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-sweep --seed 0 --seconds 35 --trace 0

Workloads: ``fit-sweep`` and ``serve-mix`` (see README.md).
Every run drives all three paths on the workload's inputs, in rounds,
until ``--seconds`` have passed (at least ``MIN_ROUNDS`` rounds), checks
every output, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, and the spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl`` (render it with
``python -m repro report FILE``). The first line of output is a stamp
of the environment.
"""

import os

# one BLAS/OpenMP thread, set before NumPy loads: OpenBLAS otherwise
# starts one thread per core and the fits contend with the server
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

# the benchmark's own modules (next to this file); none imports repro
# at import time, so a checkout without sources still fails cleanly
import grid  # noqa: E402
import inputs  # noqa: E402
import mix  # noqa: E402
import spans as spans_mod  # noqa: E402
import zoo  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_ROUNDS = 2


def stamp():
    """Environment stamp: commit, interpreter, NumPy and BLAS, CPUs."""
    import numpy as np

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # a plain checkout: the source hash identifies it
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu_count": os.cpu_count()}


PR_SET_CHILD_SUBREAPER = 36
REAP_GRACE_SECONDS = 20.0


def adopt_orphans():
    """Make this process the subreaper of everything it starts (Linux).

    A process a stopped server leaves behind (its ``multiprocessing``
    resource tracker, which exits only once it reads EOF) is then
    re-parented here instead of to init, so :func:`reap_children` can
    wait for it.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # no prctl: this process's own children are still reaped


def _children():
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children",
                      encoding="ascii") as fh:
                pids += [int(pid) for pid in fh.read().split()]
        except OSError:
            continue
    return pids


def reap_children():
    """Stop every child (started or adopted) and wait until none is left.

    This process's own resource tracker (started by the sweep's shared
    memory) is told to exit by closing its pipe; children still alive
    after ``REAP_GRACE_SECONDS`` are killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = tracker._pid = None
    deadline = time.monotonic() + REAP_GRACE_SECONDS
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def setup_once(workload, seed, workdir, rep):
    """Boot a server and prepare the run's inputs; returns the pieces.

    The server boots (a fresh interpreter importing ``repro``) while
    this process generates the inputs and warms every code path on
    tiny ones; set-up ends when ``/healthz`` answers.
    """
    server = mix.Server(ROOT, workdir / f"cache-{rep}",
                        workdir / f"server-{rep}.log")
    try:
        data = {
            "zoo": inputs.zoo_inputs(workload.zoo_rows),
            "grid": inputs.grid_inputs(workload.grid_keys, seed),
        }
        tiny = inputs.warmup_inputs()
        off = spans_mod.SpanLog(False)
        zoo.run_zoo(tiny, off)
        warm_grid = inputs.grid_inputs(4, seed)
        grid.run_grid(warm_grid, workdir / f"warm-{rep}", off)
        server.wait_ready()
        from repro.serve import ServeClient

        ServeClient(server.url, seed=0).fit(
            inputs.SMALL_ESTIMATOR, tiny["X"].tolist(),
            params={"n_clusters": 2, "n_init": 1}, seed=0,
            poll=mix.POLL_SECONDS)
    except BaseException:
        server.stop()
        raise
    return server, data


def run(args):
    workload = inputs.WORKLOADS[args.workload]
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spans = spans_mod.SpanLog(args.trace)
    setup_times = []
    server = None
    try:
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            server, data = setup_once(workload, args.seed, workdir, rep)
            setup_times.append(time.perf_counter() - start)
            if rep < SETUP_REPEATS - 1:
                server.stop()
        traffic = mix.Traffic(server, args.seed, workload.mix, spans)
        rounds = []
        problems = []
        attempted = failed = 0
        zoo_data = data["zoo"]
        start = time.perf_counter()
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - start < args.seconds):
            index = len(rounds)
            # each timed phase starts with no garbage left by the one
            # before, so the collector's pauses fall alike in every run
            gc.collect()
            with spans.span("zoo", round=index):
                times, fitted, failures = zoo.run_zoo(zoo_data, spans)
            attempted += len(times) + len(failures)
            failed += len(failures)
            problems += [f"{name}: {err}" for name, err in failures.items()]
            problems += zoo.check_zoo(zoo_data, fitted)
            del fitted
            gc.collect()
            sweep_seconds, outcomes, grid_problems = grid.run_grid(
                data["grid"], workdir / f"grid-{index}", spans)
            problems += grid_problems
            for phase_outcomes in outcomes.values():
                attempted += 2 * len(phase_outcomes)  # the run and resume
                failed += sum(o.status != "ok" for o in phase_outcomes)
            traffic.round()
            rounds.append({"zoo": times, "sweep": sweep_seconds})
        elapsed = time.perf_counter() - start
        if spans.enabled:
            traffic.replay(workdir)
    finally:
        if server is not None:
            server.stop()
    attempted += traffic.attempted
    failed += traffic.failed
    problems += traffic.problems
    e2e = end_to_end(rounds, traffic, setup_times)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed}
    print(f"rounds {len(rounds)} in {elapsed:.2f}s; end-to-end "
          f"{json.dumps({k: round(v, 4) for k, (v, _) in e2e.items()})}")
    if spans.enabled:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        n = spans.write(trace_path)
        print(f"{n} spans written to {trace_path.relative_to(ROOT)}")
        metrics = per_layer(rounds, traffic, spans)
    else:
        metrics = e2e
    shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    return result


def _geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def fit_seconds(rounds):
    """``{estimator: s}``: the median of every fit of it in the run."""
    return {name: statistics.median(t for r in rounds
                                    for t in r["zoo"].get(name, ()))
            for name in rounds[0]["zoo"]}


def end_to_end(rounds, traffic, setup_times):
    """``{name: (value, unit)}`` of every end-to-end metric."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    fits = fit_seconds(rounds)
    out = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "fit_s": (sum(fits.values()), "s"),
        "fit_geomean_ms": (_geomean([1e3 * t for t in fits.values()]), "ms"),
        "sweep_s": (statistics.median(
            r["sweep"]["serial"] for r in rounds), "s"),
        "sweep_pool_s": (statistics.median(
            r["sweep"]["pool"] for r in rounds), "s"),
    }
    for name, value in mix.latency_metrics(traffic.latency).items():
        out[name] = (value, "ms")
    out["server_cpu_s"] = (statistics.median(traffic.cpu), "s")
    return out


def per_layer(rounds, traffic, spans):
    """``{name: (value, unit)}`` of every per-layer metric (traced run).

    Sums are per round; per-call times are medians.
    """
    n = len(rounds)
    counts = spans.counts
    fits = fit_seconds(rounds)
    out = {}
    packages = {}
    for package, name, _ in zoo.estimators():
        packages.setdefault(package, []).append(name)
        out[f"fit.{name}_ms"] = (1e3 * fits[name], "ms")
    for package, names in packages.items():
        out[f"fit.{package}_s"] = (sum(fits[name] for name in names), "s")
    out.update({
        "numpy.histogram_calls": (
            counts.get("numpy.histogram_calls", 0) / n, "count"),
        "journal.record_s": (sum(spans.durations("journal.record")) / n,
                             "s"),
        "journal.bytes_written": (
            counts.get("journal.bytes_written", 0) / n, "bytes"),
        "journal.load_ms": (
            1e3 * statistics.median(spans.durations("journal.load")), "ms"),
        "guard.run_s": (counts.get("guard.run_s", 0) / n, "s"),
        "body.fit_s": (sum(spans.durations("body.fit")) / n, "s"),
        "pool.task_s": (counts.get("pool.task_s", 0) / n, "s"),
        "pool.workers_spawned": (
            counts.get("pool.workers_spawned", 0) / n, "count"),
    })
    by_id = {r["span_id"]: r for r in spans.records}
    for cls, layers in traffic.layers.items():
        for call in ("http.submit", "http.model_fetch"):
            layers[f"{call}_ms"] = [
                1e3 * r["duration"] for r in spans.records
                if r["name"] == call and by_id.get(r["parent_id"], {}).get(
                    "name") == f"request.{cls}.cold"]
        for name in LAYER_NAMES:
            unit = ("count" if name == "client.polls" else
                    "bytes" if name == "io.model_bytes" else "ms")
            out[f"{cls}.{name}"] = (statistics.median(layers[name]), unit)
    return out


LAYER_NAMES = (
    "scheduler.dispatch_ms", "scheduler.queue_ms", "job.fit_ms",
    "job.run_ms", "io.encode_ms", "io.checksum_ms", "io.decode_ms",
    "io.model_bytes", "registry.fingerprint_ms", "registry.put_ms",
    "registry.verify_ms", "registry.get_ms", "http.submit_ms",
    "http.model_fetch_ms", "client.polls", "client.poll_slack_ms",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = inputs.DEFAULT_SEED
    print("stamp " + json.dumps(stamp(), sort_keys=True), flush=True)
    # a terminated run still stops its server (run() cleans up in
    # finally) and every process it started or adopted (reap_children)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    adopt_orphans()
    try:
        result = run(args)
    finally:
        reap_children()
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
