"""Layered polygonize benchmark: one workload, one seed, one fresh Ray session.

    python3 polybench/run.py --workload grid_tiled --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run

1. builds its own temp dir inside the checkout (inputs, spill dirs, span
   files and Ray's session dir), removed at exit;
2. starts its own Ray session with ``num_cpus`` = the CPUs in
   ``os.sched_getaffinity``;
3. sets up: Ray start, seeded input generation (repeated, median kept) and
   untimed warm-up jobs;
4. drives a closed loop for ``--seconds``: one client thread submits one job,
   waits for the result, checks it against values derived from how the input
   was built, then submits the next;
5. stops Ray and confirms that no Ray process it started outlives it.

The Ray driver runs in a spawned measuring process; this process only
supervises it.  On a timeout or SIGTERM the supervisor kills the driver, then
every process the run started (it is their subreaper, so Ray processes left
by the killed driver stay its descendants), and removes the run dir.  Killing
Ray from inside its own driver would not work: the driver's core worker exits
the process as soon as its raylet dies.

It prints one run-context line and then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs span wrappers in the driver and in
every Ray worker, alternates traced and untraced jobs and reports the
per-layer metrics of ``layers.PER_LAYER``.

Exit codes: 0 with a result; 2 when the engine cannot be imported from the
checkout; 3 on a timeout or a signal; 4 when Ray processes survive shutdown.
No result is printed unless the code is 0.

``--size smoke`` and ``--corrupt`` exist for ``smoke_test.py`` only: tiny
inputs, and a job output damaged before its check.
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
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 3  # input generations per run; setup_s keeps their median
WARMUP_JOBS = 2
HARD_LIMIT_S = 165.0  # whole-run watchdog (the contract allows 180 s)
OBJECT_STORE_BYTES = 512 << 20
# Ray's socket paths live under its temp dir; unix sockets allow ~107 bytes
MAX_RAY_TMP_LEN = 42

# set only in the measuring process: its run dir and Ray temp dir, as JSON
CHILD_ENV = "POLYBENCH_MEASURE"

END_TO_END = {
    "job_s_p50": "s",
    "job_s_tail": "s",
    "polys_per_s": "1/s",
    "setup_s": "s",
    "driver_rss_mb": "MB",
    "worker_rss_mb": "MB",
}


# --- processes ----------------------------------------------------------------


def _proc_table() -> dict[int, tuple[int, str]]:
    """pid -> (ppid, cmdline) for every live, non-zombie process."""
    out = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                stat = f.read()
            with open(f"/proc/{p}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] == "Z":
            continue
        out[int(p)] = (int(fields[1]), cmd)
    return out


def run_processes(marker: str) -> dict[int, str]:
    """Processes this run started: descendants of this process, plus any
    process whose command line names this run's Ray session dir (in case it
    was re-parented)."""
    table = _proc_table()
    me = os.getpid()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    found, todo = set(), [me]
    while todo:
        for c in kids.get(todo.pop(), []):
            if c not in found:
                found.add(c)
                todo.append(c)
    found |= {pid for pid, (_, cmd) in table.items() if marker in cmd}
    found.discard(me)
    return {pid: table[pid][1] for pid in found if pid in table}


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def stop_processes(marker: str, grace_s: float) -> dict[int, str]:
    """Wait for this run's processes to end, then SIGKILL what is left.
    Returns the processes still alive afterwards."""
    end = time.monotonic() + grace_s
    while time.monotonic() < end:
        _reap()
        if not run_processes(marker):
            return {}
        time.sleep(0.2)
    for pid in run_processes(marker):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 5.0
    while time.monotonic() < end:
        _reap()
        alive = run_processes(marker)
        if not alive:
            return {}
        time.sleep(0.2)
    return alive


def peak_rss_mb(pid: int | str = "self") -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def host_probe_ms() -> float:
    """Fixed single-core probe: median time to sort 2^20 seeded doubles."""
    import numpy as np

    data = np.random.default_rng(0).random(1 << 20)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        np.sort(data)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1000.0


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile of ``values`` with at least ten samples beyond it:
    (value, percentile).  Below 11 samples it is the maximum (100)."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(base, f))
            except OSError:
                pass
    return total


# --- the run --------------------------------------------------------------------


def measure(args, run_dir: str, ray_tmp: str) -> tuple[dict, dict]:
    """The Ray driver: set up, run the closed loop, return (context,
    result).  Runs in its own process, whose main thread is the client."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from polybench.layers import PER_LAYER, plan_summary, run_metrics
    from polybench.spans import SPAN_DIR_ENV, JobFlag, Recorder, install, read_spans
    from polybench.workloads import SIZES, WORKLOADS

    wl = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    cpus = len(os.sched_getaffinity(0))
    probe_ms = host_probe_ms()

    span_dir = os.path.join(run_dir, "spans")
    flag = None
    runtime_env = None
    if args.trace:
        os.makedirs(span_dir)
        flag = JobFlag(span_dir)
        os.environ[SPAN_DIR_ENV] = span_dir
        runtime_env = {"worker_process_setup_hook": "polybench.spans.install_from_env"}
        install(Recorder(span_dir))

    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=ray_tmp,
        runtime_env=runtime_env,
    )
    try:
        ray_s = time.perf_counter() - t0
        rd.DataContext.get_current().enable_progress_bars = False
        ray_cpus = int(ray.cluster_resources().get("CPU", 0))

        input_dir = os.path.join(run_dir, "input")
        os.makedirs(input_dir)
        gen_s = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            state = wl.build(args.seed, size, input_dir)
            gen_s.append(time.perf_counter() - t)

        attempted = failed = 0
        errors: list[str] = []

        def job(k: int, traced: bool):
            """One closed-loop job: (seconds, polygons, ok, Dataset, job dir)."""
            job_dir = os.path.join(run_dir, f"job-{k}")
            if traced:
                flag.set(k)
            try:
                t = time.perf_counter()
                ds = wl.job(state, job_dir)
                tables = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
                secs = time.perf_counter() - t
            finally:
                if traced:
                    flag.set(0)
            out = pa.concat_tables(tables) if tables else None
            if args.corrupt and out is not None:
                out = wl.corrupt(out)
            ok = wl.check(state, out)
            return secs, (wl.count(out) if out is not None else 0), ok, ds, job_dir

        def attempt(k: int, traced: bool):
            nonlocal attempted, failed
            attempted += 1
            try:
                res = job(k, traced)
            except Exception as e:
                failed += 1
                errors.append(f"job {k}: {type(e).__name__}: {e}")
                traceback.print_exc()
                return None
            if not res[2]:
                failed += 1
                errors.append(f"job {k}: output failed its check")
            return res

        t = time.perf_counter()
        for k in range(WARMUP_JOBS):
            res = attempt(k + 1, False)
            if res:
                shutil.rmtree(res[4], ignore_errors=True)
        warm_s = time.perf_counter() - t
        setup_s = ray_s + statistics.median(gen_s) + warm_s

        job_s: list[float] = []
        traced_s: list[float] = []
        untraced_s: list[float] = []
        traced_jobs: dict[int, dict] = {}
        polys = verified = 0
        k = WARMUP_JOBS
        deadline = time.perf_counter() + args.seconds
        while True:
            k += 1
            traced = bool(args.trace) and k % 2 == 1
            res = attempt(k, traced)
            if res is not None:
                secs, n, ok, ds, job_dir = res
                job_s.append(secs)
                (traced_s if traced else untraced_s).append(secs)
                if ok:
                    polys += n
                    verified += 1
                    if traced:
                        traced_jobs[k] = {
                            "wall_s": secs,
                            "plan": plan_summary(ds),
                            "spill_bytes": dir_bytes(job_dir),
                        }
                shutil.rmtree(job_dir, ignore_errors=True)
            if time.perf_counter() >= deadline:
                break

        driver_rss = peak_rss_mb()
        worker_rss = max(
            (peak_rss_mb(pid) for pid, cmd in run_processes(ray_tmp).items()
             if cmd.startswith("ray::")),
            default=0.0,
        )
    finally:
        ray.shutdown()
        if flag is not None:
            flag.close()

    if not job_s:
        raise RuntimeError("no measured job completed")
    tail_s, tail_pct = tail(job_s)
    if args.trace:
        layer = run_metrics(
            read_spans(span_dir), traced_jobs, ray_cpus or cpus, traced_s, untraced_s
        )
        metrics = {k: {"value": layer[k], "unit": u} for k, (u, _) in PER_LAYER.items()}
    else:
        e2e = {
            "job_s_p50": statistics.median(job_s),
            "job_s_tail": tail_s,
            "polys_per_s": polys / sum(job_s),
            "setup_s": setup_s,
            "driver_rss_mb": driver_rss,
            "worker_rss_mb": worker_rss,
        }
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "trace": args.trace,
        "host_probe_sort_ms": round(probe_ms, 3),
        "affinity_cpus": cpus,
        "ray_num_cpus": ray_cpus,
        "attempted": attempted,
        "failed": failed,
        "jobs_measured": len(job_s),
        "job_s": [round(x, 4) for x in job_s],
        "tail_percentile": round(tail_pct, 2),
        "setup_parts_s": {
            "ray_start": round(ray_s, 4),
            "input_gen_median": round(statistics.median(gen_s), 4),
            "warmup": round(warm_s, 4),
        },
        "errors": errors[:5],
    }
    if args.workload == "image_roundtrip" and not args.trace:
        context["images_per_s"] = verified * len(state["captions"]) / sum(job_s)
    result = {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return context, result


def measuring_main(args, dirs: dict) -> int:
    """Entry of the measuring process: write (context, result) to
    ``result.json`` in the run dir for the supervisor."""
    import logging

    logging.getLogger("ray").setLevel(logging.ERROR)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    context, result = measure(args, dirs["run_dir"], dirs["ray_tmp"])
    with open(os.path.join(dirs["run_dir"], "result.json"), "w") as f:
        json.dump({"context": context, "result": result}, f)
    return 0


def parse_args(argv=None):
    from polybench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--corrupt", action="store_true")
    return ap.parse_args(argv)


def engine_in_checkout() -> bool:
    """Whether ``geo_polygonize_ray`` resolves to this checkout's copy."""
    import importlib.util

    spec = importlib.util.find_spec("geo_polygonize_ray")
    if spec is None or spec.origin is None:
        print(f"polybench: engine not importable from {ROOT}", file=sys.stderr)
        return False
    where = os.path.dirname(os.path.dirname(os.path.abspath(spec.origin)))
    if where != ROOT:
        print(f"polybench: engine found in {where}, not in this checkout", file=sys.stderr)
        return False
    return True


def become_subreaper() -> None:
    """Adopt this run's orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``),
    so Ray processes left by a killed driver stay visible and reapable."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # descendants are then also found by their session dir


def main(argv=None) -> int:
    """Supervisor: start the measuring process, enforce the time limit, stop
    every process the run started, remove the run dir, print the result."""
    start = time.monotonic()
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if CHILD_ENV in os.environ:
        return measuring_main(args, json.loads(os.environ[CHILD_ENV]))
    if not engine_in_checkout():
        return 2
    os.environ.pop("RAY_ADDRESS", None)
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    pp = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + pp if pp else "")
    become_subreaper()

    run_dir = tempfile.mkdtemp(prefix=".pbrun-", dir=ROOT)
    ray_tmp = os.path.join(run_dir, "r")
    if len(ray_tmp) > MAX_RAY_TMP_LEN:
        # a deep checkout path would overflow Ray's unix socket paths
        ray_tmp = tempfile.mkdtemp(prefix="pbray-")

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    message = None
    code = 0
    child = None
    try:
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv],
            env={**os.environ, CHILD_ENV: json.dumps({"run_dir": run_dir, "ray_tmp": ray_tmp})},
        )
        child.wait(max(1.0, HARD_LIMIT_S - (time.monotonic() - start)))
        if child.returncode == 0:
            with open(os.path.join(run_dir, "result.json")) as f:
                message = json.load(f)
    except subprocess.TimeoutExpired:
        print(f"polybench: run exceeded {HARD_LIMIT_S:.0f} s", file=sys.stderr)
        code = 3
    except (SystemExit, KeyboardInterrupt) as e:
        print(f"polybench: interrupted ({e!r})", file=sys.stderr)
        code = 3
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait(10.0)
        survivors = stop_processes(ray_tmp, grace_s=0.0 if code else 15.0)
        shutil.rmtree(run_dir, ignore_errors=True)
        if not ray_tmp.startswith(run_dir):
            shutil.rmtree(ray_tmp, ignore_errors=True)
    if survivors:
        print(f"polybench: processes outlived the run: {survivors}", file=sys.stderr)
        return 4
    if code:
        return code
    if message is None:
        print("polybench: run failed before producing a result", file=sys.stderr)
        return 1
    message["context"]["leftover_processes"] = 0
    print(json.dumps({"context": message["context"]}))
    print(json.dumps(message["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
