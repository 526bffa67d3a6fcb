#!/usr/bin/env python3
"""End-to-end sweep benchmark for reldiv.

Builds the library, the shipped ``reldiv_sweep`` CLI and the benchmark's own
``perfbench_trace`` helper (Release, from source), then drives one workload
through the CLI the way an operator would -- subcommand spellings only
(submit, serve, worker, merge, drain, single) -- verifies every merged table,
and prints each metric by name and unit.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload scenario_grid --seed 2026 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics (untraced runs, medians over the
repetitions that fit in --seconds).  --trace 1 reports the per-layer metrics
of the traced in-process replay (perfbench_trace replay).  METRICS.md defines
every workload and metric; results with their context (CPU count, SIMD level,
compiler, build type, filesystem, commit) are written under
.bench_out/results/ and compared with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("scenario_grid", "experiment_rare", "service_small_cells")
DEFAULT_SEED = 2026
WORKERS = 4
CPUS = sorted(os.sched_getaffinity(0))  # run-directory worker i runs on CPUS[i % len]
POLL_MIN_MS = 1  # pinned poll schedule for `serve` and `submit --wait`
POLL_MAX_MS = 8
SETUP_TRIALS = 15  # extra set-up-only trials per run (besides each repetition)
DIR_HITS = 10  # cache-hit resubmissions after each run-directory job
SERVICE_HITS = 3  # resubmissions of every service job
Z_99 = 2.5758293035489004  # two-sided 99 % normal quantile
Z_BOUND = 5.0  # |z| bound of the experiment_rare moment checks

# sha256 of the merged CSV / JSON at the default seed (for the service
# workload: sha256 over the per-job digests, in job order).
PINNED = {
    "scenario_grid": {
        "csv": "3b09a6e60c3d9edca62193775ce0ffc29ab6a8e921ec92e5d60ec52da8344578",
        "json": "bb610cf3f5f3d1e9fda3caa0cfec3b2690acf66f324ad61f760486deff41831d"},
    "experiment_rare": {
        "csv": "35afd4ffce60e18d54f175b07bcab37f56d90de6960510263350db4d4a641ff1",
        "json": "9ca37406649e22a1cee5055b5ed6169c4dd4dd18dba42d8021c253040bcad07f"},
    "service_small_cells": {
        "csv": "dcbf8c7005ed0507a50ea80aed79b2f63acaa4016abd37384485aaffb655e13c",
        "json": "6c2fc09bbedb003dec8c2ea37d443e895d4eedd3a6769090fd5d021b0f1f57a2"},
}

# End-to-end metrics of the result line (BENCHMARK.json "end_to_end").
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "cpu_s_per_mpair": "s",
    "peak_rss_mb": "MiB",
}
# Printed and recorded, not in the result line (see METRICS.md): their
# run-to-run spread on a shared host exceeds any useful regression bound
# (theta2_work_norm_var also varies ~10 % from seed to seed by itself), or,
# for submit_to_merged on the run-directory workloads, they restate wall_s.
E2E_INFO_UNITS = {
    "theta2_work_norm_var": "1",
    "submit_to_merged_ms.p50": "ms",
    "submit_to_merged_ms.tail": "ms",
    "cache_hit_ms.p50": "ms",
    "cache_hit_ms.tail": "ms",
}

# Per-layer metrics reported on every workload (the traced run), with units.
LAYER_UNITS = {
    "spec.parse_ms": "ms",
    "kernel.mixture.ns_per_version": "ns",
    "kernel.aliased.ns_per_version": "ns",
    "kernel.simd.ns_per_pair": "ns",
    "kernel.simd.plan_ms": "ms",
    "cell.compute_s.sum": "s",
    "cell.compute_s.p50": "s",
    "cell.compute_s.max": "s",
    "cell.skew": "1",
    "cell.ns_per_pair": "ns",
    "dist.parallel_eff": "1",
    "shard.window_ms.p50": "ms",
    "shard.window_ms.max": "ms",
    "shard.mpairs_per_s": "Mpair/s",
    "fold.us": "us",
    "demand.window_ms.p50": "ms",
    "demand.mdemands_per_s": "Mdemand/s",
    "state.encode_us": "us",
    "state.decode_us": "us",
    "state.bytes_per_cell": "bytes",
    "io.read.count": "count",
    "io.read.us": "us",
    "io.write.count": "count",
    "io.write.us": "us",
    "io.fsync_dir.count": "count",
    "io.fsync_dir.us": "us",
    "io.rename.count": "count",
    "io.rename.us": "us",
    "io.claim.count": "count",
    "io.claim.us": "us",
    "io.read.bytes": "bytes",
    "io.write.bytes": "bytes",
    "io.ops_per_cell": "count",
    "worker.loop_s": "s",
    "worker.self_s": "s",
    "merge.ms": "ms",
    "missing_cells.ms": "ms",
    "queue.submit_us": "us",
    "cache.lookup_us.hit": "us",
    "cache.lookup_us.miss": "us",
    "cache.store_us": "us",
    "status.ms": "ms",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
    "share.compute": "1",
    "share.io": "1",
    "share.worker": "1",
    "share.merge": "1",
    "share.service": "1",
    "share.spec": "1",
}


class BenchError(Exception):
    """Set-up failure: the benchmark cannot produce a result."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def become_subreaper() -> None:
    """Orphaned grandchildren (a killed fleet's workers) re-parent to us, so
    every process the benchmark starts can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


LIVE: set["Proc"] = set()  # started, not yet waited for


class Proc:
    """A child process whose CPU time and peak RSS (its own plus its reaped
    descendants') come from wait4.  With `cpu`, it is pinned to that CPU."""

    def __init__(self, argv: list[str], logfile: Path, new_session: bool = False,
                 cpu: int | None = None):
        self.new_session = new_session
        with open(logfile, "ab") as out:
            self.popen = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                          stdin=subprocess.DEVNULL, cwd=REPO,
                                          start_new_session=new_session)
        LIVE.add(self)
        if cpu is not None:
            try:
                os.sched_setaffinity(self.popen.pid, {cpu})
            except OSError:
                pass  # already exited; its exit code tells
        self.code: int | None = None
        self.cpu_s = 0.0
        self.maxrss_kb = 0

    def wait(self) -> int:
        if self.code is None:
            _, status, ru = os.wait4(self.popen.pid, 0)
            self.code = os.waitstatus_to_exitcode(status)
            self.popen.returncode = self.code
            self.cpu_s = ru.ru_utime + ru.ru_stime
            self.maxrss_kb = ru.ru_maxrss
            LIVE.discard(self)
        return self.code

    def kill(self) -> None:
        if self.code is None:
            try:
                if self.new_session:
                    os.killpg(self.popen.pid, signal.SIGKILL)
                else:
                    self.popen.kill()
            except ProcessLookupError:
                pass
            self.wait()


def stop_all() -> None:
    """Kill whatever is still running and wait for every descendant,
    including workers re-parented to us after their fleet was killed."""
    for p in list(LIVE):
        p.kill()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


class Tally:
    """Processes of one repetition: CPU and peak RSS over the tree."""

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.maxrss_kb = 0

    def add(self, p: Proc) -> None:
        p.wait()
        self.cpu_s += p.cpu_s
        self.maxrss_kb = max(self.maxrss_kb, p.maxrss_kb)


def run(argv: list[str], logfile: Path, tally: Tally | None = None) -> Proc:
    p = Proc(argv, logfile)
    p.wait()
    if tally is not None:
        tally.add(p)
    return p


# ---------------------------------------------------------------------------
# Build and context
# ---------------------------------------------------------------------------

def build() -> Path:
    if not (REPO / "src").is_dir() or not (REPO / "tools" / "reldiv_sweep.cpp").is_file():
        raise BenchError("library sources (src/, tools/) not found next to perfbench/")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = REPO / build_dir
    build_dir.mkdir(parents=True, exist_ok=True)
    blog = build_dir / "perfbench-build.log"
    with open(blog, "wb") as out:
        steps = []
        if not (build_dir / "build.ninja").exists() and not (build_dir / "Makefile").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release", *gen])
        steps.append(["cmake", "--build", str(build_dir), "-j", str(WORKERS)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (see {blog})")
    return build_dir


def remove_tree(path: Path) -> None:
    """Delete a work tree and flush the deletion, so its cost lands here and
    not in the next measurement's fsyncs."""
    shutil.rmtree(path, ignore_errors=True)
    os.sync()


def filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    real = str(path.resolve())
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3:
                    mnt = parts[1]
                    if (real == mnt or real.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                        best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def commit_id() -> str:
    if not (REPO / ".git").exists():
        return "unknown"  # an exported checkout; never report an enclosing repo
    try:
        out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def context(bins: Path, work: Path) -> dict:
    info = json.loads(subprocess.run([str(bins / "perfbench_trace"), "info"],
                                     capture_output=True, text=True, check=True).stdout)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "simd_level": info["simd_active"],
        "simd_detected": info["simd_detected"],
        "RELDIV_SIMD": os.environ.get("RELDIV_SIMD", ""),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "filesystem": filesystem_type(work),
        "commit": commit_id(),
        "workers": WORKERS,
        "poll_min_ms": POLL_MIN_MS,
        "poll_max_ms": POLL_MAX_MS,
    }


# ---------------------------------------------------------------------------
# Spec generation (the seed goes into the files; the program sees only specs)
# ---------------------------------------------------------------------------

def job_seed(seed: int, j: int) -> int:
    return (seed * 1_000_003 + 7919 * (j + 1)) % (1 << 62)


SERVICE_GRID = """# service_small_cells job {j}: small-cell scenario grid
[sweep]
kind = scenario
seed = {seed}

[universe safety_grade]
generator = safety_grade
faults = 40
p_lo = 0
p_hi = 0.05
q_total = 0.6
gen_seed = 11

[universe many_small]
generator = many_small
faults = 64
p_lo = 0.05
p_hi = 0.3
q_total = 0.8
jitter = 0.2
gen_seed = 12

[axes]
rho = 0 0.1 0.2 0.3 0.4
omega = 1 0.8 0.6 0.4
aliasing = 1 2
budget = {budget}
"""

SERVICE_DEMAND = """# service_small_cells job {j}: small demand campaign
[sweep]
kind = demand
seed = {seed}

[demand]
demands = 20000
window = 256
targets = 2048
pfd_lo = 1e-05
pfd_ratio = 100
"""

RARE_EXPERIMENT = """# experiment_rare: tiny-PFD regime, P(N2>0) ~ 1e-4
[sweep]
kind = experiment
seed = {seed}

[universe safety_grade]
generator = safety_grade
faults = 256
p_lo = 0
p_hi = 0.001
q_total = 0.6
gen_seed = 13

[experiment]
universe = safety_grade
samples = 20000000
engine = fast-simd
window = 16
"""


def scenario_ci_spec(seed: int) -> str:
    text = (REPO / "examples" / "specs" / "scenario_ci.spec").read_text()
    new, n = re.subn(r"(?m)^seed = \d+$", f"seed = {seed}", text, count=1)
    if n != 1:
        raise BenchError("examples/specs/scenario_ci.spec has no [sweep] seed line")
    return new


def write_specs(workload: str, seed: int, spec_dir: Path) -> list[Path]:
    spec_dir.mkdir(parents=True, exist_ok=True)
    texts: list[str] = []
    if workload == "scenario_grid":
        texts = [scenario_ci_spec(seed)]
    elif workload == "experiment_rare":
        texts = [RARE_EXPERIMENT.format(seed=seed)]
    else:
        budgets = (1000, 2000, 3000)
        texts = [SERVICE_GRID.format(j=j, seed=job_seed(seed, j), budget=budgets[j % 3])
                 for j in range(6)]
        texts += [SERVICE_DEMAND.format(j=j, seed=job_seed(seed, j)) for j in range(6, 9)]
    paths = []
    for j, text in enumerate(texts):
        p = spec_dir / f"job{j:02d}.spec"
        p.write_text(text)
        paths.append(p)
    return paths


def plan_specs(bins: Path, specs: list[Path]) -> list[dict]:
    """Resolve every spec before launch; refuses infeasible mixtures."""
    out = subprocess.run([str(bins / "perfbench_trace"), "plan", *map(str, specs)],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError("spec generation refused: " + out.stderr.strip())
    return [json.loads(line) for line in out.stdout.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combined(digests: list[str]) -> str:
    return digests[0] if len(digests) == 1 else sha("\n".join(digests).encode())


def csv_rows(text: str) -> list[dict]:
    lines = [l for l in text.splitlines() if l.strip()]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def rel_ci_sq(csv_text: str) -> list[float]:
    """(relative 99 % CI half-width of mean θ2)² per row with θ2 > 0."""
    out = []
    for row in csv_rows(csv_text):
        n, mean, sd = float(row["samples"]), float(row["mean_theta2"]), float(row["sd_theta2"])
        if mean > 0 and n > 1:
            out.append((Z_99 * sd / math.sqrt(n) / mean) ** 2)
    return out


class Verifier:
    """Expected outputs: pinned digests at the default seed, else the
    in-process `single` oracle (computed once, after the timed window)."""

    def __init__(self, workload: str, seed: int, plans: list[dict]):
        self.workload, self.seed, self.plans = workload, seed, plans
        self.mismatches: list[str] = []
        self.seen: dict[int, tuple[bytes, bytes]] = {}  # job -> first merged output

    def record(self, j: int, csv: bytes, js: bytes, what: str) -> None:
        if j not in self.seen:
            self.seen[j] = (csv, js)
        elif self.seen[j] != (csv, js):
            self.mismatches.append(f"{what}: job {j} output differs between repetitions")

    def finish(self, bins: Path, spec_paths: list[Path], work: Path) -> None:
        if len(self.seen) != len(spec_paths):
            self.mismatches.append("not every job produced a merged table")
            return
        csv_d = [sha(self.seen[j][0]) for j in range(len(spec_paths))]
        json_d = [sha(self.seen[j][1]) for j in range(len(spec_paths))]
        pinned = PINNED[self.workload]
        if self.seed == DEFAULT_SEED:
            if combined(csv_d) != pinned["csv"] or combined(json_d) != pinned["json"]:
                self.mismatches.append(
                    f"merged tables differ from the pinned digests "
                    f"(csv {combined(csv_d)}, json {combined(json_d)})")
        else:
            for j, spec in enumerate(spec_paths):
                ocsv, ojson = work / f"oracle{j:02d}.csv", work / f"oracle{j:02d}.json"
                p = run([str(bins / "reldiv_sweep"), "single", "--spec", str(spec),
                         "--out-csv", str(ocsv), "--out-json", str(ojson), "--quiet"],
                        work / "oracle.log")
                if p.code != 0:
                    self.mismatches.append(f"oracle failed for job {j} (exit {p.code})")
                elif (ocsv.read_bytes(), ojson.read_bytes()) != self.seen[j]:
                    self.mismatches.append(f"job {j}: merged table differs from the single oracle")
        if self.workload == "experiment_rare":
            row = csv_rows(self.seen[0][0].decode())[0]
            n = float(row["samples"])
            for k in ("1", "2"):
                mean, sd = float(row[f"mean_theta{k}"]), float(row[f"sd_theta{k}"])
                expected = self.plans[0][f"expected_theta{k}"]
                z = (mean - expected) / (sd / math.sqrt(n))
                if abs(z) > Z_BOUND:
                    self.mismatches.append(
                        f"mean theta{k} {mean:.6g} vs analytic {expected:.6g}: |z| = {abs(z):.2f} > {Z_BOUND}")

    def digests(self) -> dict:
        n = len(self.seen)
        return {"csv": combined([sha(self.seen[j][0]) for j in range(n)]) if n else None,
                "json": combined([sha(self.seen[j][1]) for j in range(n)]) if n else None}


# ---------------------------------------------------------------------------
# Workload repetitions
# ---------------------------------------------------------------------------

class Stats:
    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self.rss_mb: list[float] = []
        self.cold_ms: list[float] = []
        self.hit_ms: list[float] = []
        self.attempted = 0
        self.quarantined = 0
        self.worker_lines: list[str] = []
        self.empty_polls = 0


def wait_first_claim(run_dir: Path, deadline_s: float = 30.0) -> None:
    """Block until a worker has claimed (or finished) the run's first cell."""
    cells = run_dir / "cells"
    t = time.monotonic()
    while time.monotonic() - t < deadline_s:
        try:
            with os.scandir(cells) as it:
                for e in it:
                    if e.name.endswith(".claim") or e.name.endswith(".state"):
                        return
        except FileNotFoundError:
            pass
        time.sleep(0.0002)
    raise BenchError(f"no worker claimed a cell of {run_dir} within {deadline_s} s")


def quarantined(run_dir: Path) -> int:
    q = run_dir / "quarantine"
    return len(list(q.glob("*.quarantine"))) if q.is_dir() else 0


class Runner:
    def __init__(self, workload: str, bins: Path, work: Path, specs: list[Path],
                 plans: list[dict], verifier: Verifier):
        self.workload, self.work, self.specs, self.plans = workload, work, specs, plans
        self.sweep = str(bins / "reldiv_sweep")
        self.verifier = verifier
        self.stats = Stats()
        self.theta2_v = 0.0  # mean (rel CI half-width)² over the merged tables
        self.logfile = work / "procs.log"

    # -- helpers -----------------------------------------------------------
    def poll_flags(self) -> list[str]:
        return ["--poll-min-ms", str(POLL_MIN_MS), "--poll-max-ms", str(POLL_MAX_MS)]

    def hit(self, root: Path, j: int) -> None:
        """Resubmit job j; it must be answered from the result cache."""
        out = self.work / "hit.csv"
        outj = self.work / "hit.json"
        hlog = self.work / "hit.log"
        hlog.write_bytes(b"")
        t = time.perf_counter()
        p = run([self.sweep, "submit", "--root", str(root), "--spec", str(self.specs[j]),
                 "--out-csv", str(out), "--out-json", str(outj)], hlog)
        ms = (time.perf_counter() - t) * 1e3
        self.stats.attempted += 1
        served = "served from the result cache" in hlog.read_text(errors="replace")
        if p.code != 0 or not served:
            self.verifier.mismatches.append(f"resubmission of job {j} was not a cache hit")
            return
        self.verifier.record(j, out.read_bytes(), outj.read_bytes(), "cache hit")
        self.stats.hit_ms.append(ms)

    def job_outputs(self, j: int) -> tuple[Path, Path]:
        return self.work / f"out{j:02d}.csv", self.work / f"out{j:02d}.json"

    def record_cold(self, j: int) -> None:
        csv, js = self.job_outputs(j)
        self.verifier.record(j, csv.read_bytes(), js.read_bytes(), "merge")

    # -- run-directory workloads ---------------------------------------------
    def dir_setup(self, root: Path) -> tuple[list[Proc], Proc, float]:
        t0 = time.perf_counter()
        submit = run([self.sweep, "submit", "--root", str(root), "--spec", str(self.specs[0]),
                      "--name", "job", "--quiet"], self.logfile)
        if submit.code != 0:
            raise BenchError(f"submit failed (exit {submit.code}); see {self.logfile}")
        run_dir = root / "runs" / "job"
        workers = [Proc([self.sweep, "worker", "--run-dir", str(run_dir)], self.work / "workers.log",
                        cpu=CPUS[i % len(CPUS)])
                   for i in range(WORKERS)]
        wait_first_claim(run_dir)
        return workers, submit, time.perf_counter() - t0

    def dir_setup_trial(self, k: int) -> None:
        root = self.work / f"trial{k}"
        workers, _, setup = self.dir_setup(root)
        for w in workers:
            w.kill()
        self.stats.setup_s.append(setup)

    def dir_rep(self, k: int) -> None:
        root = self.work / f"rep{k}"
        tally = Tally()
        t0 = time.perf_counter()
        workers, submit, setup = self.dir_setup(root)
        tally.add(submit)
        (self.work / "workers.log").write_bytes(b"")
        for w in workers:
            tally.add(w)
            if w.code == 3:
                self.stats.quarantined += 1
        csv, js = self.job_outputs(0)
        merge = run([self.sweep, "merge", "--root", str(root), "--name", "job",
                     "--out-csv", str(csv), "--out-json", str(js), "--quiet"], self.logfile, tally)
        t_merged = time.perf_counter()
        self.stats.attempted += 1
        run_dir = root / "runs" / "job"
        q = quarantined(run_dir)
        self.stats.quarantined += q
        if merge.code != 0 or any(w.code != 0 for w in workers) or q:
            self.verifier.mismatches.append(f"repetition {k}: worker/merge failure")
            return
        self.record_cold(0)
        wall = time.perf_counter() - t0
        self.stats.worker_lines += (self.work / "workers.log").read_text().splitlines()
        self.stats.setup_s.append(setup)
        self.stats.wall_s.append(wall)
        self.stats.cold_ms.append((t_merged - t0) * 1e3)
        self.stats.cpu_s.append(tally.cpu_s)
        self.stats.rss_mb.append(tally.maxrss_kb / 1024.0)
        for _ in range(DIR_HITS):
            self.hit(root, 0)

    # -- service workload ------------------------------------------------------
    def service_setup(self, root: Path, fleet_log: Path) -> tuple[Proc, float, float]:
        t0 = time.perf_counter()
        fleet = Proc([self.sweep, "serve", "--root", str(root), "--workers", str(WORKERS),
                      *self.poll_flags()], fleet_log, new_session=True)
        p = run([self.sweep, "submit", "--root", str(root), "--spec", str(self.specs[0]),
                 "--name", "job00", "--quiet"], self.logfile)
        if p.code != 0:
            fleet.kill()
            raise BenchError(f"submit failed (exit {p.code}); see {self.logfile}")
        wait_first_claim(root / "runs" / "job00")
        return fleet, t0, time.perf_counter() - t0

    def drain(self, root: Path, fleet: Proc, tally: Tally | None) -> None:
        run([self.sweep, "drain", "--root", str(root), "--quiet"], self.logfile, tally)
        if tally is not None:
            tally.add(fleet)
        else:
            fleet.wait()

    def service_setup_trial(self, k: int) -> None:
        root = self.work / f"trial{k}"
        fleet_log = self.work / "fleet-trial.log"
        fleet, _, setup = self.service_setup(root, fleet_log)
        self.drain(root, fleet, None)
        self.stats.setup_s.append(setup)

    def service_rep(self, k: int) -> None:
        root = self.work / f"rep{k}"
        fleet_log = self.work / "fleet.log"
        fleet_log.write_bytes(b"")
        tally = Tally()
        fleet, t0, setup = self.service_setup(root, fleet_log)
        ok = True
        csv, js = self.job_outputs(0)
        p = run([self.sweep, "merge", "--root", str(root), "--name", "job00", "--wait",
                 *self.poll_flags(), "--out-csv", str(csv), "--out-json", str(js), "--quiet"],
                self.logfile, tally)
        cold = [(time.perf_counter() - t0) * 1e3]
        if p.code == 0:
            self.record_cold(0)
        else:
            ok = False
            self.verifier.mismatches.append(f"repetition {k}: job 0 exit {p.code}")
        for j in range(1, len(self.specs)):
            csv, js = self.job_outputs(j)
            t = time.perf_counter()
            p = run([self.sweep, "submit", "--root", str(root), "--spec", str(self.specs[j]),
                     "--name", f"job{j:02d}", "--wait", *self.poll_flags(),
                     "--out-csv", str(csv), "--out-json", str(js), "--quiet"], self.logfile, tally)
            cold.append((time.perf_counter() - t) * 1e3)
            if p.code == 0:
                self.record_cold(j)
            else:
                ok = False
                self.verifier.mismatches.append(f"repetition {k}: job {j} exit {p.code}")
        self.stats.attempted += len(self.specs)
        for _ in range(SERVICE_HITS):
            for j in range(len(self.specs)):
                self.hit(root, j)
        wall = time.perf_counter() - t0
        self.drain(root, fleet, tally)
        q = sum(quarantined(d) for d in (root / "runs").iterdir() if d.is_dir())
        self.stats.quarantined += q
        if fleet.code != 0 or q:
            ok = False
            self.verifier.mismatches.append(f"repetition {k}: fleet exit {fleet.code}, {q} quarantined")
        for line in fleet_log.read_text(errors="replace").splitlines():
            m = re.search(r"(\d+) empty polls", line)
            if m:
                self.stats.empty_polls += int(m.group(1))
        if not ok:
            return
        self.stats.setup_s.append(setup)
        self.stats.wall_s.append(wall)
        self.stats.cold_ms += cold
        self.stats.cpu_s.append(tally.cpu_s)
        self.stats.rss_mb.append(tally.maxrss_kb / 1024.0)

    # -- measurement loop ----------------------------------------------------
    def measure(self, seconds: float, min_reps: int = 1) -> None:
        # Nothing is deleted while measuring: on filesystems with online
        # discard, freed blocks are paid for by the next fsync, which would
        # charge one repetition's clean-up to the next one's workers.
        os.sync()
        service = self.workload == "service_small_cells"
        for k in range(SETUP_TRIALS):
            (self.service_setup_trial if service else self.dir_setup_trial)(k)
        t = time.perf_counter()
        k = 0
        while k < min_reps or time.perf_counter() - t < seconds:
            (self.service_rep if service else self.dir_rep)(k)
            k += 1
        merged = [self.verifier.seen[j][0].decode() for j in sorted(self.verifier.seen)]
        v = [x for text in merged if "mean_theta2" in text.splitlines()[0] for x in rel_ci_sq(text)]
        self.theta2_v = statistics.fmean(v) if v else float("nan")


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (the maximum
    when there are fewer than eleven samples): (value, percentile)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n


def e2e_metrics(r: Runner) -> tuple[dict, dict]:
    s = r.stats
    if not s.wall_s:
        raise BenchError("no repetition completed")
    mpairs = sum(p["pairs"] for p in r.plans if p["kind"] != "demand_campaign") / 1e6
    cold_tail, cold_pct = tail(s.cold_ms)
    hit_tail, hit_pct = tail(s.hit_ms)
    med_cpu = statistics.median(s.cpu_s)
    values = {
        "setup_s": statistics.median(s.setup_s),
        "wall_s": statistics.median(s.wall_s),
        "cpu_s": med_cpu,
        "cpu_s_per_mpair": statistics.median([c / mpairs for c in s.cpu_s]),
        "peak_rss_mb": statistics.median(s.rss_mb),
        "theta2_work_norm_var": statistics.median([r.theta2_v * c for c in s.cpu_s]),
        "submit_to_merged_ms.p50": statistics.median(s.cold_ms),
        "submit_to_merged_ms.tail": cold_tail,
        "cache_hit_ms.p50": statistics.median(s.hit_ms),
        "cache_hit_ms.tail": hit_tail,
    }
    visited = 0
    skipped = 0
    for line in s.worker_lines:
        m = re.search(r"computed (\d+) cells, skipped (\d+)", line)
        if m:
            visited += int(m.group(1)) + int(m.group(2))
            skipped += int(m.group(2))
    extras = {
        "repetitions": len(s.wall_s),
        "setup_samples": len(s.setup_s),
        "submit_to_merged_ms.tail_pct": cold_pct,
        "submit_to_merged_ms.n": len(s.cold_ms),
        "cache_hit_ms.tail_pct": hit_pct,
        "cache_hit_ms.n": len(s.hit_ms),
        "mpairs_per_rep": mpairs,
        "quarantined_cells": s.quarantined,
        "service.empty_polls": s.empty_polls,
        "claims.contention": skipped / visited if visited else 0.0,
        "samples": {"setup_s": s.setup_s, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                    "submit_to_merged_ms": s.cold_ms, "cache_hit_ms": s.hit_ms},
    }
    return values, extras


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    become_subreaper()
    bins = build()
    out_root = REPO / ".bench_out"
    work = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    remove_tree(work)
    work.mkdir(parents=True)
    ctx = context(bins, work)
    specs = write_specs(args.workload, args.seed, work / "specs")
    plans = plan_specs(bins, specs)
    verifier = Verifier(args.workload, args.seed, plans)
    runner = Runner(args.workload, bins, work, specs, plans, verifier)

    # Trace runs need one untraced repetition for the distributed wall time.
    runner.measure(args.seconds if args.trace == 0 else 0.0)
    values, extras = e2e_metrics(runner)
    units = E2E_UNITS
    if args.trace == 1:
        values, units = traced_metrics(args.workload, bins, work, specs, values, extras, verifier)
    verifier.finish(bins, specs, work)

    failed = runner.stats.quarantined + len(verifier.mismatches)
    attempted = max(runner.stats.attempted, 1)
    correct = failed == 0
    for name, unit in units.items():
        print(f"{args.workload}  {name} = {values[name]:.6g} {unit}")
    if args.trace == 0:
        for name, unit in E2E_INFO_UNITS.items():
            print(f"{args.workload}  {name} = {values[name]:.6g} {unit}")
        for name in ("submit_to_merged_ms", "cache_hit_ms"):
            print(f"{args.workload}  {name}.tail is p{extras[name + '.tail_pct']:.1f} "
                  f"of n = {extras[name + '.n']}")
        print(f"{args.workload}  service.empty_polls = {extras['service.empty_polls']} "
              f"(poll schedule {POLL_MIN_MS}..{POLL_MAX_MS} ms)")
    print(f"{args.workload}  failed_frac = {failed / attempted:.6g} 1 "
          f"({failed} of {attempted})")
    for m in verifier.mismatches:
        print(f"{args.workload}  MISMATCH: {m}")

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": ctx, "correct": correct,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "info_metrics": {k: {"value": values[k], "unit": u} for k, u in E2E_INFO_UNITS.items()
                         if k in values},
        "extras": extras, "digests": verifier.digests(), "mismatches": verifier.mismatches,
    }
    res_dir = out_root / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    (res_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=2) + "\n")
    remove_tree(work)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}))
    return 0 if correct else 1


def traced_metrics(workload: str, bins: Path, work: Path, specs: list[Path], e2e: dict,
                   extras: dict, verifier: Verifier) -> tuple[dict, dict]:
    """The traced in-process replay; per-layer metrics plus derived ones."""
    probe_dir = work / "probe-specs"
    mixture_spec = write_specs("scenario_grid", DEFAULT_SEED, probe_dir / "grid")[0]
    simd_spec = write_specs("experiment_rare", DEFAULT_SEED, probe_dir / "rare")[0]
    demand_spec = probe_dir / "demand.spec"
    demand_spec.write_text(SERVICE_DEMAND.format(j="probe", seed=DEFAULT_SEED))
    root = work / "replay"
    out = work / "trace.json"
    p = run([str(bins / "perfbench_trace"), "replay", "--root", str(root), "--out", str(out),
             "--mixture-spec", str(mixture_spec), "--simd-spec", str(simd_spec),
             "--demand-spec", str(demand_spec),
             *map(str, specs)], work / "replay.log")
    if p.code != 0:
        raise BenchError("traced replay failed: " + (work / "replay.log").read_text()[-2000:])
    trace = json.loads(out.read_text())
    m = trace["metrics"]
    for j in range(len(specs)):
        verifier.record(j, (root / f"job{j}.csv").read_bytes(), (root / f"job{j}.json").read_bytes(),
                        "traced replay")
    if m["io.selfcheck.timing_ops"] != m["io.selfcheck.faulty_ops"]:
        verifier.mismatches.append(
            f"timing io_env counted {m['io.selfcheck.timing_ops']:.0f} ops, "
            f"faulty_io_env {m['io.selfcheck.faulty_ops']:.0f}")
    cold_total_s = sum(extras["samples"]["submit_to_merged_ms"]) / 1e3 / max(extras["repetitions"], 1)
    m["dist.parallel_eff"] = m["cell.compute_s.sum"] / (WORKERS * cold_total_s)
    m["unattributed_s"] = e2e["cpu_s"] - sum(
        v for k, v in m.items() if k.startswith("self_s.") and k != "self_s.other")
    extras["trace"] = {k: v for k, v in m.items() if k not in LAYER_UNITS}
    extras["e2e_untraced"] = e2e
    # Informational per-layer lines (workload-specific layers included).
    for k in sorted(extras["trace"]):
        print(f"{workload}  [trace] {k} = {extras['trace'][k]:.6g}")
    for k in sorted(m):
        if k.startswith("self_s."):
            layer = k[len("self_s."):]
            print(f"{workload}  [trace] share_of_cpu_s.{layer} = {m[k] / e2e['cpu_s']:.6g}")
    print(f"{workload}  [trace] share_of_cpu_s.unattributed = {m['unattributed_s'] / e2e['cpu_s']:.6g}")
    print(f"{workload}  [trace] claims.contention = {extras['claims.contention']:.6g}")
    print(f"{workload}  [trace] service.empty_polls = {extras['service.empty_polls']}")
    return {k: m[k] for k in LAYER_UNITS}, LAYER_UNITS


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
    finally:
        stop_all()
