"""Span tracing for the traced benchmark run.

``install`` replaces the package's layer functions with timing wrappers,
under every name a caller looks them up by: ``stripe.container`` imports
``encode_column`` and ``compress`` by name, ``rlev2`` imports the bitpack
kernels by name, and the codecs are reached through their modules, so every
module attribute bound to the original function is rebound. Each wrapper
records one span: name, parent span name, wall start/end, thread CPU
start/end, self CPU (span CPU minus its wrapped children) and counters.

Spans stay in memory per process. A Ray worker appends them to
``spans-<pid>.jsonl`` when its outermost span closes, i.e. when the task
body returns; the benchmark process writes its own at the end of the run. The wrappers
are switched on and off by the presence of a flag file, checked when an
outermost span opens, so one Ray session can time the same pass with
tracing off and on.
"""

from __future__ import annotations

import importlib
import json
import os
import struct
import sys
import threading
import time

PKG = "apacheorcdotnet_ray"
FLAG = "ON"

# codecs whose module entry points are plain ``encode`` / ``decode``; bitpack
# and fsst name theirs differently and are listed one by one in ``targets``
_CODECS = ("rlev2", "intdict", "for_", "bss", "byte_rle", "bool_rle", "varint")


def _len0(a, k, res):
    return {"values": len(a[0])}


def _bytes_io(a, k, res):
    return {"bytes_in": len(a[0]), "bytes_out": len(res)}


def _bytes_out(a, k, res):
    return {"bytes_out": len(res)}


def _footer_bytes(a, k, res):
    buf = res[0]
    return {"footer_bytes": struct.unpack("<I", buf[-8:-4])[0]}


def _streams(a, k, res):
    return {"streams": len(res[1])}


def _strides(a, k, res):
    return {"strides_total": len(a[0].get("stride_rows", [])), "strides_read": len(res)}


def _probe(a, k, res):
    return {"probes": len(res), "hits": int(res.sum())}


def _file_size(a, k, res):
    return {"bytes_out": os.path.getsize(a[1])}


def _rows_out(a, k, res):
    return {"rows": res.num_rows}


def _decode_stripe_counts(read_footer):
    def count(a, k, res):
        footer = read_footer(a[0])
        rows = footer["rows"]
        io = k.get("io_stats") or {}
        if io.get("strides_total"):
            # strides are equal-sized but for the last, so this is the
            # rows in the strides read, to within one stride
            rows = rows * io["strides_read"] / io["strides_total"]
        return {"rows_decoded": rows}
    return count


def targets(role: str) -> list[tuple[str, str, str, object]]:
    """(span name, module, attribute, counter) for every wrapped function.

    The benchmark process only wraps what it runs itself: a wrapper captured by a
    closure that Ray pickles would be shipped by value."""
    t = [
        ("sources.stripes.footer", "sources.stripes", "read_stripe_footer", None),
        ("sources.orc_reader.tail", "sources.orc_reader", "read_file_stats", None),
    ]
    if role == "main":
        return t
    container = importlib.import_module(f"{PKG}.stripe.container")
    t += [
        ("pipelines.encode.task", "pipelines.encode", "_EncodePartition.__call__", None),
        ("stages.decode", "stages.decode", "StripeDecoder.__call__", None),
        ("stripe.container.encode", "stripe.container", "encode_stripe", _footer_bytes),
        ("stripe.container.decode", "stripe.container", "decode_stripe",
         _decode_stripe_counts(container.read_footer)),
        ("stripe.container.strides", "stripe.container", "qualifying_strides", _strides),
        ("stripe.columns.encode", "stripe.columns", "encode_column", _streams),
        ("stripe.columns.decode", "stripe.columns", "decode_column", None),
        ("stripe.columns.decode", "stripe.columns", "column_predicate_mask", None),
        ("stripe.stats", "stripe.stats", "column_stats", None),
        ("stripe.framing.compress", "stripe.framing", "compress", _bytes_io),
        ("stripe.framing.decompress", "stripe.framing", "decompress", _bytes_out),
        ("stripe.framing.decompress", "stripe.framing", "decompress_range", _bytes_out),
        ("codecs.rlev2.decode", "codecs.rlev2", "decode_from", None),
        ("codecs.bitpack.encode", "codecs.bitpack", "pack_bits", None),
        ("codecs.bitpack.encode", "codecs.bitpack", "zigzag_encode", None),
        ("codecs.bitpack.encode", "codecs.bitpack", "bit_widths", None),
        ("codecs.bitpack.decode", "codecs.bitpack", "unpack_bits", None),
        ("codecs.bitpack.decode", "codecs.bitpack", "zigzag_decode", None),
        ("codecs.fsst.encode", "codecs.fsst", "encode_chunk", None),
        ("codecs.fsst.decode", "codecs.fsst", "decode_chunk", None),
        ("codecs.fsst.train", "codecs.fsst", "train", None),
        ("sources.orc_writer", "sources.orc_writer", "write_orc", _file_size),
        ("codecs.orc_bloom.build", "codecs.orc_bloom", "bloom_build", None),
        ("codecs.orc_bloom.build", "codecs.orc_bloom", "hash_arrow_values", None),
        ("codecs.orc_bloom.probe", "codecs.orc_bloom", "bloom_might_contain", _probe),
        ("codecs.orc_bloom.probe", "codecs.orc_bloom", "hash_literal", None),
        ("sources.orc_reader.tail", "sources.orc_reader", "OrcFile.__init__", None),
        ("sources.orc_reader.read", "sources.orc_reader", "OrcFile.read_table", _rows_out),
    ]
    for c in _CODECS:
        t.append((f"codecs.{c}.encode", f"codecs.{c}", "encode",
                  _len0 if c == "rlev2" else None))
        t.append((f"codecs.{c}.decode", f"codecs.{c}", "decode", None))
    return t


class Tracer:
    def __init__(self, out_dir: str, flush_on_root: bool):
        self.out_dir = out_dir
        self.flag = os.path.join(out_dir, FLAG)
        self.flush_on_root = flush_on_root
        self.enabled = False
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, count=None):
        def traced(*a, **k):
            st = self._stack()
            if not st:
                self.enabled = os.path.exists(self.flag)
            if not self.enabled:
                st.append(None)
                try:
                    return fn(*a, **k)
                finally:
                    st.pop()
            if name == "stripe.container.decode" and k.get("io_stats") is None:
                k["io_stats"] = {}  # decode_stripe reports strides read only here
            frame = [name, 0.0]  # [name, CPU of wrapped children]
            parent = st[-1] if st else None
            st.append(frame)
            t0, c0 = time.time(), time.thread_time()
            try:
                res = fn(*a, **k)
            finally:
                c1, t1 = time.thread_time(), time.time()
                st.pop()
            counts = None
            if count is not None:
                counts = count(a, k, res)
                # counting is trace overhead: keep it out of the parent's self CPU
                c1b = time.thread_time()
            else:
                c1b = c1
            if parent is not None:
                parent[1] += c1b - c0
            self.spans.append([name, parent[0] if parent else None, t0, t1,
                               c0, c1, (c1 - c0) - frame[1], counts])
            if not st and self.flush_on_root:
                self.flush()
            return res

        traced.__wrapped__ = fn
        return traced

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
        self.spans = []


def install(out_dir: str, role: str) -> Tracer:
    """Wrap the package's layer functions in this process."""
    tracer = Tracer(out_dir, flush_on_root=(role == "worker"))
    wanted = targets(role)
    mods = {sub: importlib.import_module(f"{PKG}.{sub}") for _, sub, _, _ in wanted}
    # every package module imported so far: any of them may hold a name
    # bound to a wrapped function
    loaded = [m for n, m in list(sys.modules.items())
              if n == PKG or n.startswith(PKG + ".")]
    for name, sub, attr, count in wanted:
        owner = mods[sub]
        if "." in attr:  # a method: rebind it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), count))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, orig, count)
        for m in loaded:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
    return tracer


def load_spans(out_dir: str) -> list[tuple[int, list]]:
    spans = []
    for fn in os.listdir(out_dir):
        if fn.startswith("spans-") and fn.endswith(".jsonl"):
            pid = int(fn[len("spans-"):-len(".jsonl")])
            with open(os.path.join(out_dir, fn)) as f:
                spans.extend((pid, json.loads(line)) for line in f)
    return spans


CODEC_NAMES = ("rlev2", "bitpack", "intdict", "for_", "fsst", "bss", "byte_rle",
               "bool_rle", "varint")


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans: list[tuple[int, list]], windows: list[tuple[str, float, float]],
              main_pid: int, passes: int, stripes_per_select: int,
              rows_returned: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the traced passes' spans.

    CPU, byte and call figures are per pass (one write, one scan and the
    pass's selects); select-phase figures (stripes, strides, rows decoded)
    are per select; ``wait_s`` is per operation of its phase: the part of
    its wall time during which no wrapped span was open in any process."""
    def phase_of(t0: float) -> str | None:
        for ph, a, b in windows:
            if a <= t0 <= b:
                return ph
        return None

    selects = sum(1 for w in windows if w[0] == "select")
    cpu: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    sel_counts: dict[str, float] = {}
    sel_calls: dict[str, int] = {}
    trials = streams = 0
    by_pid: dict[int, list] = {}
    intervals = []
    for pid, (name, parent, t0, t1, c0, c1, self_cpu, cnt) in spans:
        ph = phase_of(t0)
        if ph is None:
            continue
        intervals.append((t0, t1))
        cpu[name] = cpu.get(name, 0.0) + self_cpu
        calls[name] = calls.get(name, 0) + 1
        for key, v in (cnt or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + v
            if ph == "select":
                sel_counts[f"{name}.{key}"] = sel_counts.get(f"{name}.{key}", 0) + v
        if ph == "select":
            sel_calls[name] = sel_calls.get(name, 0) + 1
        if (parent == "stripe.columns.encode" and name.startswith("codecs.")
                and name.endswith(".encode")):
            trials += 1
        if name == "stripe.columns.encode" and parent != name:
            streams += cnt["streams"]
        if parent is None and pid != main_pid:
            by_pid.setdefault(pid, []).append((t0, t1, c0, c1))

    def per_pass(v: float) -> float:
        return v / passes

    def per_select(v: float) -> float:
        return v / selects if selects else 0.0

    m: dict[str, float] = {}
    for ph in ("encode", "scan", "select"):
        ws = [(a, b) for p, a, b in windows if p == ph]
        wait = 0.0
        for a, b in ws:
            inside = [(max(t0, a), min(t1, b)) for t0, t1 in intervals if t1 > a and t0 < b]
            wait += (b - a) - _union(inside)
        m[f"pipelines.{ph}.wait_s"] = wait / len(ws) if ws else 0.0
    m["pipelines.encode.other_cpu_s"] = per_pass(cpu.get("pipelines.encode.task", 0.0))
    m["stages.decode.self_cpu_s"] = per_pass(cpu.get("stages.decode", 0.0))
    m["sources.stripes.footer_cpu_s"] = per_pass(cpu.get("sources.stripes.footer", 0.0))
    read = per_select(sel_calls.get("stripe.container.decode", 0))
    m["sources.stripes.stripes_read"] = read
    m["sources.stripes.stripes_pruned"] = max(stripes_per_select - read, 0.0)
    m["stripe.container.encode.self_cpu_s"] = per_pass(cpu.get("stripe.container.encode", 0.0))
    m["stripe.container.decode.self_cpu_s"] = per_pass(cpu.get("stripe.container.decode", 0.0))
    m["stripe.container.footer_bytes"] = per_pass(
        counts.get("stripe.container.encode.footer_bytes", 0))
    m["stripe.container.strides_read"] = per_select(
        sel_counts.get("stripe.container.strides.strides_read", 0))
    m["stripe.container.strides_total"] = per_select(
        sel_counts.get("stripe.container.strides.strides_total", 0))
    returned = max(rows_returned, 1.0)
    m["stripe.container.rows_decoded_per_row_returned"] = (
        sel_counts.get("stripe.container.decode.rows_decoded", 0) / passes / returned)
    m["stripe.columns.encode.self_cpu_s"] = per_pass(cpu.get("stripe.columns.encode", 0.0))
    m["stripe.columns.decode.self_cpu_s"] = per_pass(cpu.get("stripe.columns.decode", 0.0))
    m["stripe.columns.codec_trials"] = per_pass(trials)
    m["stripe.columns.useful_ratio"] = streams / trials if trials else 0.0
    m["stripe.stats.cpu_s"] = per_pass(cpu.get("stripe.stats", 0.0))
    m["stripe.framing.compress.cpu_s"] = per_pass(cpu.get("stripe.framing.compress", 0.0))
    for key in ("bytes_in", "bytes_out"):
        m[f"stripe.framing.compress.{key}"] = per_pass(
            counts.get(f"stripe.framing.compress.{key}", 0))
    m["stripe.framing.decompress.cpu_s"] = per_pass(cpu.get("stripe.framing.decompress", 0.0))
    m["stripe.framing.decompress.bytes_out"] = per_pass(
        counts.get("stripe.framing.decompress.bytes_out", 0))
    for c in CODEC_NAMES:
        for op in ("encode", "decode"):
            m[f"codecs.{c}.{op}.cpu_s"] = per_pass(cpu.get(f"codecs.{c}.{op}", 0.0))
        m[f"codecs.{c}.encode.calls"] = per_pass(calls.get(f"codecs.{c}.encode", 0))
    m["codecs.fsst.train.cpu_s"] = per_pass(cpu.get("codecs.fsst.train", 0.0))
    m["codecs.rlev2.encode.values"] = per_pass(counts.get("codecs.rlev2.encode.values", 0))
    m["sources.orc_writer.self_cpu_s"] = per_pass(cpu.get("sources.orc_writer", 0.0))
    m["sources.orc_writer.bytes_out"] = per_pass(counts.get("sources.orc_writer.bytes_out", 0))
    m["codecs.orc_bloom.build.cpu_s"] = per_pass(cpu.get("codecs.orc_bloom.build", 0.0))
    m["codecs.orc_bloom.probe.cpu_s"] = per_pass(cpu.get("codecs.orc_bloom.probe", 0.0))
    m["codecs.orc_bloom.probes"] = per_pass(counts.get("codecs.orc_bloom.probe.probes", 0))
    m["codecs.orc_bloom.probe_hits"] = per_pass(counts.get("codecs.orc_bloom.probe.hits", 0))
    m["sources.orc_reader.tail_cpu_s"] = per_pass(cpu.get("sources.orc_reader.tail", 0.0))
    m["sources.orc_reader.read.self_cpu_s"] = per_pass(cpu.get("sources.orc_reader.read", 0.0))
    m["sources.orc_reader.rows_decoded_per_row_returned"] = (
        sel_counts.get("sources.orc_reader.read.rows", 0) / passes / returned)
    m["trace.overhead_frac"] = overhead_frac
    # worker main-thread CPU between a window's first and last task span
    # that no span accounts for: Ray's own per-task and per-block work
    thread_cpu = unattributed = 0.0
    for roots in by_pid.values():
        for _, a, b in windows:
            inside = sorted(r for r in roots if a <= r[0] <= b)
            if not inside:
                continue
            total = inside[-1][3] - inside[0][2]
            thread_cpu += total
            unattributed += total - sum(r[3] - r[2] for r in inside)
    m["trace.unattributed_cpu_frac"] = unattributed / thread_cpu if thread_cpu else 0.0
    return m
