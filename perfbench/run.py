"""Encode / scan / select benchmark over the package's public Ray Data entry points.

    python3 perfbench/run.py --workload {tokens,tables,orc} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The benchmark starts one Ray session with
``num_cpus`` = ``nproc`` (1), so one task runs at a time. It acts as a single
closed-loop client: every operation is issued serially and fully consumed
before the next one.

Each operation runs with this process and the Ray workers on one CPU, the
next CPU for each operation in turn; Ray's other processes (GCS, raylet,
agents) stay free to run beside them. An operation's time is its wall time
minus the time the hypervisor held that CPU back during it (steal, from
/proc/stat). On a shared 4-vCPU VM (``nproc`` reads 1 only because
``OMP_NUM_THREADS=1``) steal comes in waves, and each vCPU's speed also
varies by up to 1.8x over seconds, independently of the others: turning
through the CPUs gives every run the same mix of them, and pinned steal can
be read exactly.

``--trace 0`` prints the end-to-end metrics. Set-up (Ray start, input
preparation, one warm-up write, scan and select) is timed first; input preparation
is repeated ``SETUP_PREPS`` times and its median taken. Then, for about
``--seconds`` and at least ``MIN_CYCLES`` cycles, each cycle does one full
scan and ``SELECTS_PER_CYCLE`` selective reads, and every ``WRITE_EVERY``-th
cycle first does one write into an empty directory. Throughputs are the
input's raw bytes over the median time of the run's writes, or scans.

``--trace 1`` prints the per-layer metrics: after the same set-up it runs a
pass (one write, one scan, ``TRACE_SELECTS`` selects) with the timing
wrappers off, then on, twice, and reports the traced passes' spans per
pass (per select for select-phase counts).

``peak_rss_mb`` is the largest ``VmHWM`` among the Ray worker processes,
whose high-water marks are reset after set-up: they hold only the program's
work. This process's own peak, reset at the same point, is kept in the
context line: it holds the inputs and the checks' copies of every result.

Every operation is checked against the input. The next-to-last line of
standard output is a JSON object with the run context (versions, load,
input sizes, the sha256 of the written bytes); the last line is the result.
Metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "apacheorcdotnet_ray"

MIN_CYCLES = 5
SELECTS_PER_CYCLE = 10  # 5 cycles give 50 reads: 10 lie beyond p80
WRITE_EVERY = 2  # a write costs several scans: cycles 0, 2, 4, ... write
SETUP_PREPS = 3
TRACE_SELECTS = 10
OBJECT_STORE_BYTES = 256 * 1024 * 1024


def _nproc() -> int:
    out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    return int(out.stdout.strip())


def _steal_s(cpu: int | None = None) -> float:
    """Time the hypervisor held back from this VM's CPUs (or from one CPU)
    since boot, from /proc/stat."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields[0] == label:
                return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    raise RuntimeError(f"no {label} line in /proc/stat")


def _pin(pids: list[int], cpu: int) -> None:
    """Move every thread of the processes onto one CPU."""
    for p in pids:
        try:
            for t in os.listdir(f"/proc/{p}/task"):
                os.sched_setaffinity(int(t), {cpu})
        except OSError:
            continue


def _cpu_ref() -> float:
    """Iterations per second of a fixed pure-Python loop over 0.25 s: how
    fast this process's CPU was at that moment, to attribute outlier runs."""
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < 0.25:
        for _ in range(1000):
            pass
        n += 1
    return n / (time.perf_counter() - t0)


def _worker_hook(root: str, trace_dir: str | None):
    """Runs first in every Ray worker. Defined in ``__main__``, so Ray ships
    it by value: the workers cannot import this directory before it runs."""
    def hook():
        import sys

        if root not in sys.path:
            sys.path.insert(0, root)
        if trace_dir:
            from perfbench import spans

            spans.install(trace_dir, "worker")
    return hook


def _ray_temp() -> str:
    """This run's Ray temp dir, removed whole when the run ends. Ray's unix
    sockets live under it and their paths must fit in 107 bytes, of which
    the session and socket names take up to 64: a checkout too deep for
    that gets a directory in /tmp instead."""
    inside = os.path.join(ROOT, ".perfbench", f"ray{os.getpid()}")
    return inside if len(inside) <= 43 else f"/tmp/perfbench-{os.getpid()}"


def _start_ray(num_cpus: int, trace_dir: str | None, temp_dir: str) -> None:
    import ray

    ray.init(num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             runtime_env={"worker_process_setup_hook": _worker_hook(ROOT, trace_dir)},
             _temp_dir=temp_dir)
    import logging

    from ray.data import DataContext

    from apacheorcdotnet_ray.raylog import suppress_empty_schema_warnings

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    suppress_empty_schema_warnings()


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def _workers() -> list[int]:
    """This process's Ray worker processes: they retitle themselves
    ``ray::<task>`` (the raylet's own command line names default_worker.py)."""
    out = []
    for p in _descendants(os.getpid()):
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    out.append(p)
        except OSError:
            continue
    return out


def _reset_peaks(pids: list[int]) -> None:
    """Reset the processes' VmHWM to their current RSS."""
    for p in pids:
        try:
            with open(f"/proc/{p}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            continue


def _peaks_mb(pids: list[int]) -> dict[int, float]:
    """VmHWM of each process still alive, in MB."""
    out = {}
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        out[p] = int(line.split()[1]) * 1024 / 1e6
        except OSError:
            continue
    return out


class Client:
    """The closed-loop client: issues operations serially, times and checks
    each one, and counts the failures."""

    def __init__(self, wl, work: str, rng):
        self.wl, self.work, self.rng = wl, work, rng
        self.attempted = self.failed = 0
        self.n_out = 0
        self.digests: set[str] = set()
        self.written_bytes = 0
        self.rows_returned = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def _op(self, fn, check) -> float | None:
        cpu = self.cpus[self.attempted % len(self.cpus)]
        _pin([os.getpid(), *_workers()], cpu)
        self.attempted += 1
        s0 = _steal_s(cpu)
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception as e:  # noqa: BLE001 — a failed operation is counted, not fatal
            print(f"operation failed: {e!r}", file=sys.stderr)
            self.failed += 1
            return None
        dt = time.perf_counter() - t0 - (_steal_s(cpu) - s0)
        try:
            ok = check(res)
        except Exception as e:  # noqa: BLE001 — a result the check cannot read is wrong
            print(f"result check raised: {e!r}", file=sys.stderr)
            ok = False
        if not ok:
            print("operation returned a wrong result", file=sys.stderr)
            self.failed += 1
        return dt

    def fresh_out(self) -> str:
        old = os.path.join(self.work, f"out{self.n_out}")
        shutil.rmtree(old, ignore_errors=True)
        self.n_out += 1
        out = os.path.join(self.work, f"out{self.n_out}")
        os.makedirs(out)  # empty: encode_corpus resumes into a full directory
        return out

    def write(self, out: str) -> float | None:
        from perfbench.workloads import written

        def check(res) -> bool:
            size, digest = written(out, self.wl.pattern)
            self.written_bytes = size
            self.digests.add(digest)
            return self.wl.check_write(out, res) and len(self.digests) == 1
        return self._op(lambda: self.wl.write(out), check)

    def scan(self, out: str) -> float | None:
        return self._op(lambda: self.wl.scan(out), self.wl.check_scan)

    def select(self, out: str) -> float | None:
        def check(res) -> bool:
            got, want = res
            self.rows_returned += got.num_rows if got is not None else 0
            return self.wl.check_select(got, want)
        return self._op(lambda: self.wl.select(out, self.rng), check)


def _setup(args, wl_cls, work: str, trace_dir: str | None, ray_temp: str):
    import numpy as np

    t0 = time.perf_counter()
    _start_ray(_nproc(), trace_dir, ray_temp)
    ray_s = time.perf_counter() - t0
    preps = []
    for i in range(SETUP_PREPS):
        shutil.rmtree(os.path.join(work, "input"), ignore_errors=True)
        wl = wl_cls(args.seed)
        t0 = time.perf_counter()
        wl.prepare(os.path.join(work, "input"))
        preps.append(time.perf_counter() - t0)
    # the first write, scan and select in a session start the worker and
    # import the read path: measured here, once, not in the timed cycles
    t0 = time.perf_counter()
    warm = os.path.join(work, "warm")
    wl.write(warm)
    wl.scan(warm)
    wl.select(warm, np.random.default_rng((args.seed, 2)))
    warm_s = time.perf_counter() - t0
    shutil.rmtree(warm, ignore_errors=True)
    parts = {"ray_s": ray_s, "prepare_s": preps, "warm_pass_s": warm_s}
    return wl, ray_s + statistics.median(preps) + warm_s, parts


def _measure(client: Client, seconds: float) -> dict:
    writes, scans, selects = [], [], []
    start = time.perf_counter()
    cycles = 0
    # whole cycles only, and none that would end well past the deadline
    while cycles < MIN_CYCLES or (
            time.perf_counter() - start) * (cycles + 0.5) / cycles < seconds:
        if cycles % WRITE_EVERY == 0:
            out = client.fresh_out()
            writes.append(client.write(out))
        scans.append(client.scan(out))
        selects.extend(client.select(out) for _ in range(SELECTS_PER_CYCLE))
        cycles += 1
    # failed operations have no time; the result then reads "correct": false
    ok = lambda xs: [x for x in xs if x is not None] or [0.0, 0.0]  # noqa: E731
    writes, scans, selects = ok(writes), ok(scans), ok(selects)
    raw_mb = client.wl.raw_bytes / 1e6

    def per_s(times: list[float]) -> float:
        # over the median operation: one operation slowed by a busy host
        # moves a sum, not a median
        return raw_mb / statistics.median(times) if any(times) else 0.0

    return {
        "encode_mb_per_s": per_s(writes),
        "size_ratio": client.written_bytes / client.wl.raw_bytes,
        "scan_mb_per_s": per_s(scans),
        "select_p50_ms": 1e3 * statistics.median(selects),
        "select_p80_ms": 1e3 * statistics.quantiles(selects, n=10)[7],
        "_samples": {"cycles": cycles, "write_s": writes, "scan_s": scans,
                     "select_s": selects},
    }


def _traced(client: Client, trace_dir: str, main_tracer) -> dict:
    from perfbench import spans

    flag = os.path.join(trace_dir, spans.FLAG)
    windows: list[tuple[str, float, float]] = []
    walls = {False: 0.0, True: 0.0}
    rows_returned = 0
    for traced in (False, True, False, True):
        if traced:
            open(flag, "w").close()
        rows_before = client.rows_returned
        out = client.fresh_out()
        for phase, fn in (("encode", client.write), ("scan", client.scan),
                          *[("select", client.select)] * TRACE_SELECTS):
            t0 = time.time()
            walls[traced] += fn(out) or 0.0
            if traced:
                windows.append((phase, t0, time.time()))
        if traced:
            os.remove(flag)
            rows_returned += client.rows_returned - rows_before
    main_tracer.flush()
    stripes = len([f for f in os.listdir(client.wl.select_target(out))
                   if f.endswith(".oray")]) if os.path.isdir(client.wl.select_target(out)) else 0
    return spans.summarize(
        spans.load_spans(trace_dir), windows, main_pid=os.getpid(), passes=2,
        stripes_per_select=stripes, rows_returned=rows_returned / 2,
        overhead_frac=walls[True] / walls[False] - 1)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, work: str, ray_temp: str) -> tuple[dict, dict]:
    import numpy as np
    import pyarrow
    import ray

    from perfbench.workloads import WORKLOADS

    trace_dir = os.path.join(work, "trace") if args.trace else None
    if trace_dir:
        os.makedirs(trace_dir)
    load_before, steal_before = os.getloadavg(), _steal_s()
    wl, setup_s, setup_parts = _setup(args, WORKLOADS[args.workload], work, trace_dir,
                                      ray_temp)
    client = Client(wl, work, np.random.default_rng((args.seed, 1)))
    cpu_ref = [_cpu_ref()]
    spec = _spec()
    if trace_dir:
        from perfbench import spans

        main_tracer = spans.install(trace_dir, "main")
        m = _traced(client, trace_dir, main_tracer)
        listed = spec["per_layer"]
        samples = {"passes": 4, "selects_per_pass": TRACE_SELECTS}
        peaks = {}
    else:
        workers = _workers()
        _reset_peaks([os.getpid(), *workers])
        m = _measure(client, args.seconds)
        samples = m.pop("_samples")
        workers = sorted(set(workers) | set(_workers()))
        peaks = {"driver_mb": _peaks_mb([os.getpid()])[os.getpid()],
                 "workers_mb": _peaks_mb(workers)}
        m["setup_s"] = setup_s
        m["peak_rss_mb"] = max(peaks["workers_mb"].values(), default=0.0)
        listed = spec["end_to_end"]
    metrics = {e["name"]: {"value": m[e["name"]], "unit": e["unit"]} for e in listed}
    cpu_ref.append(_cpu_ref())
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": _nproc(), "cpu_count": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "steal_s": _steal_s() - steal_before, "cpu_ref_loops_per_s": cpu_ref,
        "versions": {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
                     "numpy": np.__version__, "python": sys.version.split()[0]},
        "input": wl.context(), "written_bytes": client.written_bytes,
        "written_sha256": sorted(client.digests), "samples": samples,
        "setup": setup_parts, "peak_rss": peaks,
        "fail_frac": client.failed / max(client.attempted, 1),
    }
    result = {"correct": client.failed == 0, "attempted": client.attempted,
              "failed": client.failed, "metrics": metrics}
    return result, context


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("tokens", "tables", "orc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, PKG)):
        print(f"{PKG}/ not found next to perfbench/: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # library prints, Ray's progress output and subprocess output all go to
    # stderr; only the two result lines reach stdout
    stdout = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work)
    ray_temp = _ray_temp()
    os.makedirs(ray_temp)
    try:
        result, context = run(args, work, ray_temp)
    finally:
        import ray

        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_temp, ignore_errors=True)
    os.write(stdout, (json.dumps({"context": context}) + "\n"
                      + json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
