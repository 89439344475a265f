#!/usr/bin/env python3
"""The repository benchmark: the shipped `linkcluster` binary on four workloads.

  run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is {"correct",
      "attempted", "failed", "metrics"}: every end-to-end metric with
      --trace 0, every per-layer metric with --trace 1. Set-up, the output
      check, the timed cycles and the traced passes all count against
      --seconds; only the last cycle or round started may overrun it.
  run.py --seed 7 --out FILE [--sets N]
      Every workload once end to end and once traced, per set. Prints every
      metric with its unit and sample count, and writes FILE plus the spans
      to FILE.trace.json.
  run.py --smoke
      Tiny inputs and one cycle through every path, digests and a trace
      included.

Unless --linkcluster and --lc-suite name prebuilt binaries, the benchmark
builds bench/suite (its own CMake project, Release) into .bench_build/suite.
Exit status: 0 when every output checks out, 1 when an operation failed or
an output is wrong, 2 when the benchmark cannot run at all (no sources, a
failed or non-Release build, fault injection armed, fewer than 4 CPUs).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_DIR = ROOT / ".bench_build" / "suite"
CHECKPOINT_EVERY_MS = 100  # kCheckpointEveryMs in suite.hpp
BATCH_THREADS = 4
# `lc_suite calib` on the quiet host the bounds were measured on; timed
# end-to-end metrics are reported at that host's speed (see Session.scale).
CALIB_REF_MS = 40.0
# There, the timed work slowed by about the 1.5th power of the loop's
# slowdown (README, "Speed correction").
SPEED_EXPONENT = 1.5
# Reported with the end-to-end metrics but not bounded: on the host the
# bounds were measured on, their spread over ten seeds came as close to the
# largest bound BENCHMARK.json may set as to be no guard (README, "Bounds").
TAIL_METRICS = (("lookup_p90_us", "us"), ("cut_p90_us", "us"))


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str  # lc_suite gen --graph
    mode: str  # fine | coarse
    threads: int  # cluster --threads, or serve --threads
    checkpoint: bool = False
    serve: bool = False


# Why each exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("er_fine", "er", "fine", BATCH_THREADS),
        Workload("words_coarse", "words", "coarse", BATCH_THREADS),
        Workload("rmat_ckpt", "rmat", "fine", BATCH_THREADS, checkpoint=True),
        Workload("serve_mixed", "er", "fine", 2, serve=True),
    )
}


@dataclass(frozen=True)
class Plan:
    setups: int  # set-ups per end-to-end run; the median is reported
    read_queries: int  # batch workloads: idle queries per cycle on the result
    serve_queries: int  # serve_mixed: queries per cycle during a rerun, and again idle
    trace_queries: int  # the trace's serve cycle: queries during a rerun, and again idle


FULL = Plan(setups=3, read_queries=200, serve_queries=300, trace_queries=400)
SMOKE = Plan(setups=1, read_queries=40, serve_queries=20, trace_queries=30)


class RunFailed(Exception):
    """A helper failed mid-run: the run reports correct=false."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def fatal(message):
    log(f"run.py: {message}")
    sys.exit(2)


def median(values):
    return statistics.median(values)


def quartiles(values):
    if not values:
        raise RunFailed("a metric has no samples")
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    """Nearest-rank percentile."""
    if not values:
        raise RunFailed("a latency percentile has no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def summary(values, scale=None):
    """Median, quartiles and n; with `scale` (Session.scale), scaled to the
    reference host speed and the raw median kept."""
    q1, q3 = quartiles(values)
    record = {"value": median(values), "q1": q1, "q3": q3, "n": len(values)}
    if scale is not None:
        record["raw"] = record["value"]
        for key in ("value", "q1", "q3"):
            record[key] *= scale
    return record


def merge_list_fnv(path):
    with open(path, "rb") as f:
        f.seek(max(0, os.path.getsize(path) - 64))
        tail = f.read().decode("ascii", "replace")
    at = tail.rfind("# fnv=")
    return tail[at + 6:].strip() if at >= 0 else ""


def spawn_timed(argv, log_path):
    """Runs argv with stdin and stdout on /dev/null and stderr appended to
    log_path. Returns (exit code, wall ms from spawn to reap, ru_maxrss MiB)."""
    with open(os.devnull, "r+b") as null, open(log_path, "ab") as err:
        actions = [(os.POSIX_SPAWN_DUP2, null.fileno(), 0),
                   (os.POSIX_SPAWN_DUP2, null.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        elapsed_ms = (time.perf_counter() - start) * 1e3
    return os.waitstatus_to_exitcode(status), elapsed_ms, usage.ru_maxrss / 1024


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


class Tools:
    def __init__(self, linkcluster, lc_suite):
        self.linkcluster = str(linkcluster)
        self.lc_suite = str(lc_suite)

    def suite(self, *args):
        """Runs an lc_suite command and returns its JSON result line."""
        proc = subprocess.run([self.lc_suite, *map(str, args)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise RunFailed(f"lc_suite {args[0]} exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


class ServeClient:
    """An `lc_suite serve-client` coprocess driving one `linkcluster serve`.
    Its set-ups run when it starts; cycle() runs one cycle of its script;
    finish() ends the session and returns its JSON result."""

    def __init__(self, session, setups, timed_runs, busy, idle):
        s = session
        argv = [s.tools.lc_suite, "serve-client", "--linkcluster", s.tools.linkcluster,
                "--input", s.input, "--mode", s.w.mode, "--threads", s.w.threads,
                "--setups", setups, *(["--timed-runs"] if timed_runs else []),
                "--busy-queries", busy, "--idle-queries", idle, "--seed", s.seed,
                "--work-dir", s.work]
        self.log_path = s.work / "serve-client.log"
        with open(self.log_path, "ab") as err:
            self.proc = subprocess.Popen(list(map(str, argv)), stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            self.expect("ready")
        except RunFailed:
            self.finish()  # raises with the client's own error when it has one
            raise

    def expect(self, word):
        line = self.proc.stdout.readline().strip()
        if line != word:
            raise RunFailed(f"serve-client answered {line!r} where {word!r} was due")

    def cycle(self):
        try:
            self.proc.stdin.write("cycle\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the client exited; expect() reports it
        self.expect("done")

    def finish(self):
        """Closes the client's input, which shuts its server down, and waits
        for both to exit. Every session ends here, on error paths too."""
        try:
            out, _ = self.proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RunFailed("serve-client did not exit")
        if self.proc.returncode != 0 or not out.strip():
            raise RunFailed(f"serve-client exited {self.proc.returncode}: "
                            f"{self.log_path.read_text().strip()[-500:]}")
        return json.loads(out.strip().splitlines()[-1])


def guard_environment():
    for var in ("LC_FAULT_PLAN", "LC_FAULT_POINT"):
        if os.environ.get(var):
            fatal(f"{var} is set; armed fault injection would void the measurement")
    if len(os.sched_getaffinity(0)) < BATCH_THREADS:
        fatal(f"needs at least {BATCH_THREADS} CPUs; batch runs use --threads {BATCH_THREADS}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fatal(f"no linkcluster sources at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_log, "w") as out:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                      "--target", "linkcluster_cli", "lc_suite"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fatal(f"build failed; see {build_log}")
    if "CMAKE_BUILD_TYPE:STRING=Release" not in (BUILD_DIR / "CMakeCache.txt").read_text():
        fatal(f"{BUILD_DIR} is not a Release build")
    return Tools(BUILD_DIR / "lc" / "tools" / "linkcluster", BUILD_DIR / "lc_suite")


def machine_info(tools):
    info = tools.suite("info")
    if not info["optimized"] or not info["ndebug"]:
        fatal("lc_suite was not built optimised with NDEBUG (Release)")
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


class Session:
    """One run of one workload: its operations, samples and checks, within a
    time budget that starts when the session does."""

    def __init__(self, tools, workload, seed, seconds, plan, smoke, work_root, pins):
        self.deadline = time.perf_counter() + seconds
        self.tools = tools
        self.w = workload
        self.seed = seed
        self.plan = plan
        self.smoke = smoke
        self.pin = pins.get(str(seed), {}).get(workload.name)
        self.work = work_root / workload.name
        self.input = self.work / "input.edges"
        self.samples = defaultdict(list)
        self.queries = defaultdict(int)  # latency samples per query class
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = []  # (source, fnv)
        self.reference = None  # digest of an in-process single-thread run
        self.fingerprint = None
        self.layers = {}
        self.spans = []

    def remaining(self):
        return max(0.0, self.deadline - time.perf_counter())

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)
        log(f"{self.w.name}: FAILED {problem}")

    def calib(self):
        self.samples["calib_ms"].append(self.tools.suite("calib")["calib_ms"])

    def setup(self, count):
        """Generates the input and, for a batch workload, clusters it once
        (cold), `count` times. A serve workload's server start, load and
        first run follow in cycles()."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for _ in range(count):
            self.calib()
            start = time.perf_counter()
            info = self.tools.suite("gen", "--graph", self.w.graph, "--seed", self.seed,
                                    *(["--smoke"] if self.smoke else []), "--out", self.input)
            if not self.w.serve:
                self.cluster("cold")
            self.samples["setup_s"].append(time.perf_counter() - start)
        self.fingerprint = info["fingerprint"]

    def cluster(self, name):
        """One `linkcluster cluster` process; returns (ms, peak RSS MiB), or
        None when it failed."""
        merges = self.work / f"{name}.merges"
        argv = [self.tools.linkcluster, "cluster", "--input", self.input, "--mode", self.w.mode,
                "--threads", self.w.threads, "--merges", merges]
        if self.w.checkpoint:
            argv += ["--checkpoint-dir", self.work / "ckpt",
                     "--checkpoint-every-ms", CHECKPOINT_EVERY_MS]
        self.attempted += 1
        code, ms, rss = spawn_timed(list(map(str, argv)), self.work / "processes.log")
        if code != 0:
            self.fail(f"linkcluster cluster exited {code}")
            return None
        self.digests.append((f"cluster {name}", merge_list_fnv(merges)))
        return ms, rss

    def check(self):
        """Reclusters the input in-process at one thread (the reference
        digest), scores the best cut, and validates the cold merge list."""
        args = ["check", "--input", self.input, "--mode", self.w.mode]
        if not self.w.serve:
            args += ["--merges", self.work / "cold.merges"]
        self.attempted += 1
        out = self.tools.suite(*args)
        self.samples["partition_density"].append(out["density"])
        self.reference = out["reference_fnv"]
        self.digests.append(("single-thread reference", self.reference))
        if "fnv" in out:
            self.digests.append(("check", out["fnv"]))
        if out["density"] <= 0:
            self.fail("best cut has zero partition density")

    def cycles(self, setups, busy, idle):
        """The timed cycles, with a serve-client session open: one, then
        more while the next is expected to end within the budget.
        serve_mixed: timed server set-ups, then cycles of a timed `run` +
        `wait`, a rerun with `busy` queries and `idle` queries. Batch
        workloads: an untimed server on the workload's own result answers
        `idle` queries, then a timed `linkcluster cluster` process runs,
        every cycle."""
        serve = self.w.serve
        client = ServeClient(self, setups, serve, busy, idle)
        try:
            cycle_s = 0.0
            count = 0
            while count == 0 or self.remaining() >= cycle_s:
                start = time.perf_counter()
                client.cycle()
                result = None if serve else self.cluster("rep")
                if result is not None:
                    self.samples["cluster_ms"].append(result[0])
                    self.samples["peak_rss_mib"].append(result[1])
                cycle_s = time.perf_counter() - start
                count += 1
        finally:
            out = client.finish()
        self.attempted += out["attempted"]
        for error in out["errors"]:
            self.fail(f"serve-client: {error}")
        self.digests += [("serve-client", d) for d in out["digests"]]
        self.samples["calib_ms"] += out["calib_ms"]
        if serve:
            self.samples["serve_setup_s"] += [ms / 1e3 for ms in out["setup_ms"]]
            self.samples["cluster_ms"] += out["run_ms"]
            self.samples["peak_rss_mib"].append(out["server_rss_mib"])
        # One p50 and one p90 per cycle and query class, so a run reports
        # the spread of its percentiles and not only their pooled value.
        cycles = defaultdict(lambda: ([], []))
        for cycle, kind, us in zip(out["query_cycle"], out["query_kind"], out["query_us"]):
            cycles[cycle][kind > 0].append(us)
        for lookups, cuts in cycles.values():
            for name, values in (("lookup", lookups), ("cut", cuts)):
                self.queries[name] += len(values)
                for p in (50, 90):
                    self.samples[f"{name}_p{p}_us"].append(percentile(values, p))

    def trace(self):
        spans_path = self.work / "spans.json"
        args = ["trace", "--linkcluster", self.tools.linkcluster, "--input", self.input,
                "--workload", self.w.name, "--mode", self.w.mode, "--threads", self.w.threads,
                "--merges-out", self.work / "trace.merges", "--spans-out", spans_path,
                "--queries", self.plan.trace_queries, "--seconds", self.remaining(),
                "--seed", self.seed]
        if self.w.checkpoint:
            args += ["--checkpoint-dir", self.work / "ckpt"]
        out = self.tools.suite(*args)
        self.digests += [("trace round", d) for d in out["round_digests"]]
        self.digests.append(("trace serve", out["serve_digest"]))
        self.reference = out["serial_digest"]
        self.digests.append(("single-thread reference", self.reference))
        self.attempted += len(out["round_digests"]) + 2  # every pass and the serve cycle
        self.spans = json.loads(spans_path.read_text())
        self.layers = layer_metrics(self.spans, out, self.w)

    def verify_digests(self):
        """Every output must equal the pinned digest (when the seed has one),
        else the single-thread in-process reference. Each mismatch is a
        failed operation."""
        expected = self.pin["fnv"] if self.pin else self.reference
        if self.pin and self.fingerprint != self.pin["graph"]:
            self.fail(f"input fingerprint {self.fingerprint} != pinned {self.pin['graph']}")
        for source, fnv in self.digests:
            if fnv != expected:
                self.fail(f"{source} digest {fnv or '(none)'} != {expected}")

    @property
    def speed(self):
        """Host speed relative to the reference: CALIB_REF_MS / median calib_ms."""
        return CALIB_REF_MS / median(self.samples["calib_ms"])

    @property
    def scale(self):
        """What timed end-to-end metrics are multiplied by: speed **
        SPEED_EXPONENT. Neighbours on a shared host slow it by tens of
        percent for minutes at a time, and the calibration loop, sampled
        between the timed operations, slows with them (README, "Speed
        correction"). The raw value is kept beside the scaled one."""
        return self.speed ** SPEED_EXPONENT

    def end_to_end(self):
        """Every end-to-end record: the metrics BENCHMARK.json bounds, plus
        the p90 latencies (TAIL_METRICS), which are reported only."""
        s = self.samples
        setup = s["setup_s"]
        if self.w.serve:
            setup = [g + t for g, t in zip(s["setup_s"], s["serve_setup_s"])]
        metrics = {
            "setup_s": summary(setup, self.scale),
            "cluster_ms": summary(s["cluster_ms"], self.scale),
            "peak_rss_mib": summary(s["peak_rss_mib"]),
            "partition_density": summary(s["partition_density"]),
        }
        for name in ("lookup", "cut"):
            for p in (50, 90):
                record = summary(s[f"{name}_p{p}_us"], self.scale)
                record["samples"] = self.queries[name]
                metrics[f"{name}_p{p}_us"] = record
        return metrics


def run_workload(tools, workload, seed, seconds, trace, plan, smoke, work_dir, pins):
    """One run of one workload within `seconds`. End to end: set-up, the
    output check, then timed cycles until the budget is spent. Traced: one
    set-up, then `lc_suite trace` until it is spent."""
    session = Session(tools, workload, seed, seconds, plan, smoke, work_dir, pins)
    if trace:
        session.setup(1)
        session.trace()
        log(f"{workload.name}: span coverage {span_coverage(session.spans):.4f}")
    else:
        session.setup(plan.setups)
        session.check()
        if workload.serve:
            session.cycles(plan.setups, plan.serve_queries, plan.serve_queries)
        else:
            session.cycles(1, 0, plan.read_queries)
    session.verify_digests()
    log(f"{workload.name}: calib_ms median {median(session.samples['calib_ms']):.2f} "
        f"(n={len(session.samples['calib_ms'])}), speed {session.speed:.4f}, "
        f"{seconds - (session.deadline - time.perf_counter()):.1f} s of {seconds:g}")
    return session


def layer_metrics(spans, trace_out, workload):
    """The per-layer metrics, derived from the spans of one trace run."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)

    def ms(span):
        return (span["end_ns"] - span["start_ns"]) / 1e6

    def child(root, name):
        return next((c for c in children[root["id"]] if c["name"] == name), None)

    roots = [s for s in spans if s["name"] == "pipeline"]
    paired = [r for r in roots if r["attrs"]["paired"]]
    serial = next(r for r in roots if not r["attrs"]["paired"])

    def med(fn):
        """Median over the rounds' traced passes of fn(root)."""
        return median([fn(r) for r in paired])

    def span_ms(name):
        return lambda r: ms(child(r, name)) if child(r, name) else 0.0

    def attr(name, key, root_attr=False):
        def get(r):
            span = r if root_attr else child(r, name)
            return span["attrs"].get(key, 0.0) if span else 0.0
        return get

    m = {}
    m["graph.load_ms"] = med(span_ms("graph.load"))
    m["graph.edges"] = med(attr("graph.load", "edges"))

    build = "similarity.build"
    m["similarity.build_ms"] = med(span_ms(build))
    for p in ("pass1", "pass2", "pass3"):
        m[f"similarity.{p}_ms"] = med(attr(build, f"{p}_ms"))
    m["similarity.keys"] = med(attr(build, "keys"))
    m["similarity.incident_pairs"] = med(attr(build, "incident_pairs"))
    m["similarity.exact_frac"] = med(attr(build, "pairs_exact")) / max(1.0, m["similarity.keys"])
    m["similarity.peak_mib"] = med(attr(build, "peak_mib"))
    m["similarity.speedup"] = span_ms(build)(serial) / m["similarity.build_ms"]

    stats = "sweep_source.stats"
    m["sweep_source.partition_ms"] = med(span_ms("sweep_source.partition"))
    m["sweep_source.bucket_sort_ms"] = med(attr(stats, "bucket_sort_ms"))
    m["sweep_source.blocked_ms"] = med(attr(stats, "blocked_ms"))
    m["sweep_source.buckets"] = med(attr(stats, "buckets"))
    m["sweep_source.sorted_frac"] = med(
        lambda r: attr(stats, "buckets_sorted")(r) / max(1.0, attr(stats, "buckets")(r)))
    m["sweep_source.speedup"] = (span_ms("sweep_source.partition")(serial)
                                 / max(1e-9, m["sweep_source.partition_ms"]))

    # The sweep stage is core/sweep on fine workloads and core/coarse on
    # words_coarse. Bucket sorts, prefetch stalls and snapshot writes run on
    # its thread inside its span; they belong to their own layers.
    stage = "sweep" if workload.mode == "fine" else "coarse"
    m["sweep.self_ms"] = med(lambda r: span_ms(stage)(r) - attr(stage, "blocked_ms")(r)
                             - attr(stage, "checkpoint_write_ms")(r))
    for key in ("merges", "c_accesses", "c_changes"):
        m[f"sweep.{key}"] = med(attr("sweep", key))

    m["coarse.levels"] = med(attr("coarse", "levels"))
    m["coarse.epochs"] = med(attr("coarse", "epochs"))
    m["coarse.rollbacks"] = med(attr("coarse", "rollbacks"))
    m["coarse.pairs_frac"] = med(
        lambda r: attr("coarse", "pairs_processed")(r) / max(1.0, attr("coarse", "pairs_total")(r)))
    m["coarse.accepted_frac"] = m["coarse.levels"] / max(1.0, m["coarse.epochs"])
    m["coarse.peak_mib"] = med(attr("coarse", "peak_mib"))

    m["checkpoint.writes"] = med(attr(None, "checkpoint_writes", root_attr=True))
    m["checkpoint.write_frac"] = med(
        lambda r: attr(stage, "checkpoint_write_ms")(r) / span_ms(stage)(r))
    m["checkpoint.bytes"] = med(attr(None, "checkpoint_bytes", root_attr=True))
    m["checkpoint.retries"] = med(attr(None, "checkpoint_retries", root_attr=True))
    m["checkpoint.failures"] = med(attr(None, "checkpoint_failures", root_attr=True))

    m["dendrogram_io.format_ms"] = med(span_ms("dendrogram_io.format"))
    m["dendrogram_io.write_ms"] = med(span_ms("dendrogram_io.write"))
    m["dendrogram_io.bytes"] = med(attr("dendrogram_io.format", "bytes"))

    queries = {s["id"]: s for s in spans if s["name"] == "serve.query"}
    direct = {int(s["attrs"]["query"]): s for s in spans if s["name"].startswith("dendrogram.cut")}

    def us_median(values):
        return median(values) * 1e3

    m["dendrogram.cut_threshold_us"] = us_median(
        [ms(s) for s in direct.values() if s["name"] == "dendrogram.cut_threshold"])
    m["dendrogram.cut_k_us"] = us_median(
        [ms(s) for s in direct.values() if s["name"] == "dendrogram.cut_k"])

    def query_ms(kind_is_cut, busy):
        return [ms(q) for q in queries.values()
                if (q["attrs"]["kind"] > 0) == kind_is_cut and q["attrs"]["busy"] == busy]

    m["serve.lookup_us"] = us_median(query_ms(False, 0.0))
    m["serve.cut_self_us"] = us_median(
        [ms(queries[qid]) - ms(d) for qid, d in direct.items()])
    serve_run = next(s for s in spans if s["name"] == "serve.run")
    direct_run = next(s for s in spans if s["name"] == "serve.direct_run")
    m["serve.run_overhead_ms"] = ms(serve_run) - ms(direct_run)
    m["serve.cut_busy_us"] = us_median(query_ms(True, 1.0))
    m["serve.cut_idle_us"] = us_median(query_ms(True, 0.0))

    # Paired within each round, so drift between rounds cancels.
    rounds = list(zip(trace_out["untraced_ms"], trace_out["traced_ms"], trace_out["process_ms"]))
    m["process.other_ms"] = median([p - u for u, _, p in rounds])
    m["trace.gap_pct"] = median([(t - u) / u * 100 for u, t, _ in rounds])
    return m


def span_coverage(spans):
    """The smallest share of a traced pass that its layer spans cover."""
    children = defaultdict(float)
    for span in spans:
        children[span["parent"]] += span["end_ns"] - span["start_ns"]
    roots = [s for s in spans if s["name"] == "pipeline"]
    return min(children[r["id"]] / (r["end_ns"] - r["start_ns"]) for r in roots)


def pins_for(smoke):
    baseline = json.loads((HERE / "baseline.json").read_text())
    return baseline["digests"]["smoke" if smoke else "full"]


def metric_specs(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def run_one(tools, args):
    """One workload, reported as one JSON line."""
    workload = WORKLOADS[args.workload]
    session = run_workload(tools, workload, args.seed, args.seconds, args.trace, FULL, False,
                           args.work_dir, pins_for(False))
    if args.trace:
        metrics, kind = session.layers, "per_layer"
    else:
        records = session.end_to_end()
        metrics, kind = {name: rec["value"] for name, rec in records.items()}, "end_to_end"
        log(f"{workload.name}: raw " + ", ".join(
            f"{name} {rec['raw']:.6g}" for name, rec in records.items() if "raw" in rec))
    return session, {name: {"value": metrics[name], "unit": unit}
                     for name, unit in metric_specs(kind)}


def run_set(tools, args, plan, index):
    """Every workload once end to end, then once traced."""
    pins = pins_for(args.smoke)
    steal = steal_ticks()
    workloads, calib, spans = {}, [], []
    for workload in WORKLOADS.values():
        e2e = run_workload(tools, workload, args.seed, args.seconds, False, plan, args.smoke,
                           args.work_dir, pins)
        traced = run_workload(tools, workload, args.seed, args.seconds, True, plan, args.smoke,
                              args.work_dir, pins)
        attempted = e2e.attempted + traced.attempted
        failed = e2e.failed + traced.failed
        workloads[workload.name] = {
            "metrics": e2e.end_to_end(),
            "layers": traced.layers,
            "span_coverage": span_coverage(traced.spans),
            "speed": e2e.speed,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "problems": e2e.problems + traced.problems,
            "fingerprint": e2e.fingerprint,
            "digests": sorted({d for _, d in e2e.digests + traced.digests}),
        }
        calib += e2e.samples["calib_ms"] + traced.samples["calib_ms"]
        spans += [dict(span, set=index) for span in traced.spans]
    return {"calib_ms": calib, "steal_ticks": steal_ticks() - steal,
            "workloads": workloads}, spans


def print_set(record, index):
    e2e = metric_specs("end_to_end")
    layers = metric_specs("per_layer")
    print(f"== set {index}: calib_ms median {median(record['calib_ms']):.2f} "
          f"(n={len(record['calib_ms'])}), steal ticks {record['steal_ticks']}")
    for name, w in record["workloads"].items():
        print(f"-- {name}: attempted {w['attempted']}, failed {w['failed']}, "
              f"failed_frac {w['failed_frac']:.4f}, speed {w['speed']:.4f}, span coverage "
              f"{w['span_coverage']:.4f}, digest {' '.join(w['digests'])}")
        for metric, unit in e2e + [(m, u + " (not bounded)") for m, u in TAIL_METRICS]:
            rec = w["metrics"][metric]
            samples = f" ({rec['samples']} queries)" if "samples" in rec else ""
            raw = f"  raw {rec['raw']:.6g}" if "raw" in rec else ""
            print(f"   {metric:<20} {rec['value']:>14.6g} {unit:<6} n={rec['n']}{samples}"
                  f"  q1 {rec['q1']:.6g}  q3 {rec['q3']:.6g}{raw}")
        for metric, unit in layers:
            print(f"   {metric:<30} {w['layers'][metric]:>14.6g} {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="budget of one run, set-up and checks included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="full-set mode: write the record here")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--linkcluster", type=Path, help="prebuilt binary (skips the build)")
    parser.add_argument("--lc-suite", type=Path, help="prebuilt helper (skips the build)")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".bench_build" / "work")
    args = parser.parse_args()

    guard_environment()
    if args.linkcluster and args.lc_suite:
        tools = Tools(args.linkcluster.resolve(), args.lc_suite.resolve())
    else:
        tools = build()
    info = machine_info(tools)
    args.work_dir = args.work_dir.resolve()

    if args.workload:
        try:
            session, metrics = run_one(tools, args)
            attempted, failed = session.attempted, session.failed
        except RunFailed as error:
            log(f"run.py: {error}")
            metrics, attempted, failed = {}, 1, 1
        result = {"correct": failed == 0, "attempted": max(1, attempted), "failed": failed,
                  "metrics": metrics}
        print(json.dumps(result))
        return 0 if failed == 0 else 1

    plan = SMOKE if args.smoke else FULL
    if args.smoke:
        args.seconds = 0.0
    sets, spans = [], []
    try:
        for index in range(args.sets):
            record, set_spans = run_set(tools, args, plan, index)
            sets.append(record)
            spans += set_spans
            print_set(record, index)
    except RunFailed as error:
        log(f"run.py: {error}")
        return 1
    if args.out:
        args.out.write_text(json.dumps({"seed": args.seed, "smoke": args.smoke, "machine": info,
                                        "sets": sets}, indent=1) + "\n")
        Path(f"{args.out}.trace.json").write_text(json.dumps(spans) + "\n")
    failed = sum(w["failed"] for record in sets for w in record["workloads"].values())
    print(f"{'FAILED' if failed else 'ok'}: {failed} failed operation(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
