#!/usr/bin/env python3
"""Otter benchmark: paper-size jobs through otterc, an open-loop service mix
through otterd, and a traced per-layer run.

Usage (from the root of a source checkout):

  python3 perfbench/run.py --workload dense|vector|service --seed N \
      --seconds S --trace 0|1 [--out FILE]

The first run builds otterc, otterd and the traced driver from source into
$CARGO_TARGET_DIR (default .bench_build). Inputs come from --seed alone;
every job's output is checked against the interpreter. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. A fuller result file with provenance, sample counts
and quartiles goes to .bench_build/results/ (or --out); compare.py diffs two
sets of them. See README.md for the workloads and what each metric means.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import selectors
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402

# Paper scripts per workload, all at the sizes committed in scripts/.
DENSE_SCRIPTS = ["cg", "transclos"]
VECTOR_SCRIPTS = ["ocean", "nbody"]
MACHINE = "meiko_cs2"
DENSE_NP = 4
MIN_SAMPLES = 3          # per script, even if --seconds runs out first
SETUP_REPS = 3           # set-up is repeated and its median reported
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 165.0     # wall budget of one run after the build

# service: otterd --workers=2, default process isolation, open loop.
SERVICE_WORKERS = 2
SERVICE_RATE = 150.0     # requests per second, Poisson arrivals
SERVICE_CONNS = 4
SERVICE_HOT = 16
SERVICE_COLD_SHARE = 0.05
SLO_LIMIT_S = 0.050      # latency limit behind slo_frac
SPIN_S = 0.002           # the generator polls this long before a due time
TRACE_COLD = 8           # cold scripts the traced run compiles in-process
TRACE_REPS = 4           # traced and untraced executions of each job
TRACE_SERVICE_S = 5.0    # length of the traced run's otterd session
SERVICE_LAYER = ("service.process_s", "service.sandbox_s", "service.compile_s",
                 "service.queue_s", "service.cache_hit_ratio",
                 "service.spawned_minus_reaped")
# Wall seconds per otterc job: recorded in the result file, not printed.
# Under hypervisor steal its run-to-run spread exceeded the largest bound
# BENCHMARK.json may set (see README.md), so vtime_s is the gated time.
RECORDED_METRICS = [{"name": "job_s", "unit": "s", "better": "lower"}]
# `service` is not in BENCHMARK.json (its latencies are not steady on a
# shared host, see README.md); it runs on request with these metrics.
SERVICE_METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "req_p50_s", "unit": "s", "better": "lower"},
    {"name": "req_p99_s", "unit": "s", "better": "lower"},
    {"name": "slo_frac", "unit": "ratio", "better": "higher"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---- build -------------------------------------------------------------------

def build_dir():
    return Path(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def check_sources():
    for rel in ("CMakeLists.txt", "src/driver/pipeline.hpp", "tools/otterc.cpp",
                "scripts/cg.m", "BENCHMARK.json"):
        if not (ROOT / rel).is_file():
            raise BenchError("not an Otter source checkout: %s is missing" % rel)


def run_logged(cmd, logf):
    logf.write(("$ " + " ".join(map(str, cmd)) + "\n").encode())
    logf.flush()
    rc = subprocess.call([str(c) for c in cmd], stdout=logf,
                         stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        raise BenchError("command failed (%d): %s; see %s"
                         % (rc, " ".join(map(str, cmd)), logf.name))


def build():
    """Builds otterc, otterd and the traced driver; returns their paths."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    otter = out / "otter"
    tracer = out / "tracer"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / "build.log", "ab") as logf:
        if not (otter / "CMakeCache.txt").exists():
            # The repository's default build type, spelled out so that the
            # cache (and the provenance read from it) names it.
            run_logged(["cmake", "-S", ROOT, "-B", otter,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], logf)
        run_logged(["cmake", "--build", otter, "-j", jobs,
                    "--target", "otterc", "otterd"], logf)
        if not (tracer / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", HERE, "-B", tracer,
                        "-DOTTER_ROOT=%s" % ROOT, "-DOTTER_BUILD=%s" % otter],
                       logf)
        run_logged(["cmake", "--build", tracer, "-j", jobs], logf)
    return {"otterc": otter / "tools" / "otterc",
            "otterd": otter / "tools" / "otterd",
            "tracer": tracer / "otter_tracer",
            "otter_build": otter}


# ---- statistics and output checks ----------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        v = xs[0] if xs else 0.0
        return v, v
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def percentile(xs, p):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    k = max(0, min(len(s) - 1, math.ceil(p / 100.0 * len(s)) - 1))
    return s[k]


def summary(xs):
    q1, q3 = quartiles(xs)
    return {"samples": len(xs), "median": median(xs), "q1": q1, "q3": q3}


def _num(tok):
    try:
        return float(tok)
    except ValueError:
        return None


def outputs_match(got, want):
    """Byte equality, or equality up to one unit in the last printed digit
    of each number: distributed reductions sum in another order than the
    interpreter, which may flip the last digit a format prints."""
    if got == want:
        return True
    a, b = got.split(), want.split()
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y:
            continue
        fx, fy = _num(x), _num(y)
        if fx is None or fy is None:
            return False
        digits = len(y.split(".")[1]) if "." in y else 0
        if abs(fx - fy) > 1.000001 * 10.0 ** (-digits):
            return False
    return True


# ---- processes ---------------------------------------------------------------

class JobResult:
    def __init__(self, code, out, err, wall, maxrss_kb):
        self.code, self.out, self.err = code, out, err
        self.wall, self.maxrss_kb = wall, maxrss_kb


def run_job(cmd, errfile, timeout=JOB_TIMEOUT_S):
    """Runs one process to exit; wall time from spawn to reaped exit and
    the child's own peak RSS (from wait4)."""
    with open(errfile, "w+b") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.PIPE,
                             stderr=err, cwd=ROOT)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            out = p.stdout.read()
            p.stdout.close()
            _, status, ru = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return JobResult(p.returncode, out.decode(errors="replace"),
                         err.read().decode(errors="replace"), wall,
                         ru.ru_maxrss)


def tracer_call(bins, mode, spec, work, extra_out=()):
    spec_path = work / ("%s_spec.json" % mode)
    out_path = work / ("%s_out.json" % mode)
    spec_path.write_text(json.dumps(spec))
    cmd = [bins["tracer"], mode, spec_path, out_path] + list(extra_out)
    env = dict(os.environ, TMPDIR=str(work))  # host compiler temporaries
    rc = subprocess.call([str(c) for c in cmd], cwd=ROOT, env=env)
    if rc != 0:
        raise BenchError("otter_tracer %s failed (%d)" % (mode, rc))
    return json.loads(out_path.read_text())


def interp_refs(bins, jobs, work):
    """Interpreter reference output of every job (the oracle)."""
    spec = {"jobs": [tracer_job(j) for j in jobs]}
    res = tracer_call(bins, "interp", spec, work)
    return {r["name"]: r["output"] for r in res["jobs"]}


def tracer_job(j):
    d = {k: j[k] for k in ("name", "np", "machine", "seed")}
    if "file" in j:
        d["file"] = str(j["file"])
    else:
        d["script"] = j["script"]
    d["elem_ops"] = j.get("elem_ops", 0)
    d["probe"] = j.get("probe", False)
    return d


# ---- dense / vector: closed loop of otterc processes -------------------------

def script_jobs(workload, seed, work):
    """Jobs of a closed-loop workload: name, script, np, seed."""
    if workload == "dense":
        names, np = DENSE_SCRIPTS, DENSE_NP
    else:
        names, np = VECTOR_SCRIPTS, 1
    chains = gen.chain_scripts(seed) if workload == "vector" else []
    seeds = gen.script_seeds(seed, names + [c[0] for c in chains])
    jobs = [{"name": n, "file": ROOT / "scripts" / (n + ".m"), "np": np,
             "machine": MACHINE, "seed": seeds[n]} for n in names]
    for name, src, ops in chains:
        path = work / (name + ".m")
        path.write_text(src)
        jobs.append({"name": name, "file": path, "np": 1, "machine": MACHINE,
                     "seed": seeds[name], "elem_ops": ops})
    return jobs


def closed_setup(workload, seed, bins, work):
    jobs = script_jobs(workload, seed, work)
    refs = interp_refs(bins, jobs, work)
    for j in jobs:
        j["expect"] = refs[j["name"]]
    return jobs


def otterc_cmd(bins, j):
    return [bins["otterc"], j["file"], "-O2", "--np=%d" % j["np"],
            "--machine=%s" % j["machine"], "--seed=%d" % j["seed"], "--times"]


def parse_vtime(err):
    vt = [float(line.split()[3].rstrip("s")) for line in err.splitlines()
          if line.startswith("rank ") and " vtime " in line]
    return max(vt) if vt else None


def steal_seconds():
    """CPU time the hypervisor took from this machine so far, all CPUs
    (/proc/stat), or None where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def closed_loop(bins, jobs, seconds, work, deadline):
    per = {j["name"]: {"wall": [], "vtime": []} for j in jobs}
    steal0 = steal_seconds()
    attempted = failed = 0
    peak_kb = 0
    failures = []
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= t_end and all(len(p["wall"]) >= MIN_SAMPLES
                                for p in per.values()):
            break
        j = jobs[i % len(jobs)]
        i += 1
        r = run_job(otterc_cmd(bins, j), work / "job.err")
        attempted += 1
        peak_kb = max(peak_kb, r.maxrss_kb)
        vt = parse_vtime(r.err)
        if r.code != 0 or vt is None or not outputs_match(r.out, j["expect"]):
            failed += 1
            failures.append({"job": j["name"], "code": r.code,
                             "stdout": r.out[-400:], "stderr": r.err[-400:]})
            continue
        per[j["name"]]["wall"].append(r.wall)
        per[j["name"]]["vtime"].append(vt)
    if any(len(p["wall"]) == 0 for p in per.values()):
        raise BenchError("a script produced no successful job: %s"
                         % json.dumps(failures[:3]))
    n = sum(len(p["wall"]) for p in per.values())

    def geo(key, clock):
        """Geometric mean over scripts of the median (and quartiles)."""
        med = geomean([median(p[key]) for p in per.values()])
        qs = [quartiles(p[key]) for p in per.values()]
        return (med, clock, {"samples": n, "median": med,
                             "q1": geomean([q[0] for q in qs]),
                             "q3": geomean([q[1] for q in qs])})

    metrics = {
        "job_s": geo("wall", "wall"),
        "vtime_s": geo("vtime", "virtual"),
        "peak_rss_mb": (peak_kb / 1024.0, "memory", {"samples": attempted}),
    }
    details = {name: {"wall_s": summary(p["wall"]),
                      "vtime_s": summary(p["vtime"])}
               for name, p in per.items()}
    steal1 = steal_seconds()
    # Wall times move with the load of other tenants; the steal during the
    # run lets a reader tell a contended run from a regression.
    return metrics, attempted, failed, {
        "scripts": details, "failures": failures[:10],
        "cpu_steal_s": None if steal0 is None else steal1 - steal0}


# ---- service: otterd over its Unix socket, open loop --------------------------

def cpu_split():
    """(otterd CPUs, load generator CPUs): the generator gets a CPU of its
    own so that waking the daemon does not preempt it, and the daemon's
    threads and sandbox children never delay a send."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return set(cpus[:-1]), {cpus[-1]}


class Daemon:
    """One otterd process over a socket in the work directory."""

    def __init__(self, bins, work):
        self.sock = os.path.relpath(work / "otterd.sock", ROOT)
        self.log = open(work / "otterd.log", "ab")
        server_cpus, _ = cpu_split()
        self.proc = subprocess.Popen(
            [str(bins["otterd"]), "--listen=" + self.sock,
             "--workers=%d" % SERVICE_WORKERS],
            stdout=self.log, stderr=self.log, cwd=ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, server_cpus))
        t_end = time.perf_counter() + 20
        while True:
            try:
                if self.request({"op": "ping"}).get("pong"):
                    break
            except OSError:
                pass
            if time.perf_counter() > t_end or self.proc.poll() is not None:
                self.stop()
                raise BenchError("otterd did not come up")
            time.sleep(0.02)

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.sock)
        return s

    def request(self, req, timeout=30.0):
        with self.connect() as s:
            s.settimeout(timeout)
            s.sendall((json.dumps(req) + "\n").encode())
            buf = b""
            while b"\n" not in buf:
                chunk = s.recv(65536)
                if not chunk:
                    raise OSError("otterd closed the connection")
                buf += chunk
            return json.loads(buf.split(b"\n", 1)[0])

    def vm_hwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request({"op": "shutdown"}, timeout=5)
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def request_line(i, entry):
    return json.dumps({"id": i, "script": entry["script"], "np": entry["np"],
                       "machine": MACHINE, "rand_seed": entry["rand_seed"]})


def service_setup(seed, seconds, bins, work):
    pool, schedule = gen.service_plan(seed, SERVICE_RATE, seconds,
                                      hot=SERVICE_HOT,
                                      cold_share=SERVICE_COLD_SHARE)
    jobs = [{"name": k, "script": e["script"], "np": e["np"],
             "machine": MACHINE, "seed": e["rand_seed"]}
            for k, e in pool.items()]
    refs = interp_refs(bins, jobs, work)
    daemon = Daemon(bins, work)
    try:
        for k in sorted(pool):
            if not k.startswith("hot"):
                continue
            resp = daemon.request(json.loads(request_line(k, pool[k])))
            if resp.get("status") != "ok" or \
                    not outputs_match(resp.get("output", ""), refs[k]):
                raise BenchError("warm-up request %s failed: %s" % (k, resp))
    except BaseException:
        daemon.stop()
        raise
    return pool, schedule, refs, daemon


def open_loop(daemon, pool, schedule, refs, deadline):
    """Sends each request at its due time over SERVICE_CONNS connections and
    times it from the due time to its response line."""
    conns = [daemon.connect() for _ in range(SERVICE_CONNS)]
    sel = selectors.DefaultSelector()
    for c in conns:
        c.setblocking(False)
        sel.register(c, selectors.EVENT_READ, {"buf": b""})
    lines = [(request_line(i, pool[key]) + "\n").encode()
             for i, (_, key) in enumerate(schedule)]
    n = len(schedule)
    t0 = time.perf_counter() + 0.05
    due = [t0 + d for d, _ in schedule]
    latency = [None] * n
    status = [None] * n
    lateness = []
    sent = 0
    answered = 0
    drain_end = None
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpu_split()[1])
    gc.disable()  # no collector pauses inside the generator's timing
    try:
        while answered < n:
            now = time.perf_counter()
            while sent < n and due[sent] <= now:
                conn = conns[sent % SERVICE_CONNS]
                conn.setblocking(True)
                conn.sendall(lines[sent])
                conn.setblocking(False)
                lateness.append(time.perf_counter() - due[sent])
                sent += 1
            if sent == n and drain_end is None:
                drain_end = now + 15.0
            if (drain_end is not None and now > drain_end) or now > deadline:
                break
            # Sleep until SPIN_S before the next due time, then poll: on a
            # shared virtual machine timer wake-ups run milliseconds late.
            wait = due[sent] - now - SPIN_S if sent < n else 0.05
            for key, _ in sel.select(timeout=max(0.0, min(wait, 0.05))):
                chunk = key.fileobj.recv(1 << 16)
                t_recv = time.perf_counter()
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                buf = key.data["buf"] + chunk
                *done, key.data["buf"] = buf.split(b"\n")
                for raw in done:
                    resp = json.loads(raw)
                    i = resp.get("id")
                    if not isinstance(i, int) or latency[i] is not None:
                        continue
                    latency[i] = t_recv - due[i]
                    key_name = schedule[i][1]
                    ok = resp.get("status") == "ok" and outputs_match(
                        resp.get("output", ""), refs[key_name])
                    status[i] = "ok" if ok else (
                        resp.get("code") or resp.get("status") or "mismatch")
                    answered += 1
    finally:
        gc.enable()
        os.sched_setaffinity(0, all_cpus)
        sel.close()
        for c in conns:
            c.close()
    return latency, status, lateness


def service_run(deadline, setup):
    pool, schedule, refs, daemon = setup
    try:
        latency, status, lateness = open_loop(daemon, pool, schedule, refs,
                                              deadline)
        stats = daemon.request({"op": "stats"}).get("stats", {})
        hwm_kb = daemon.vm_hwm_kb()
    finally:
        daemon.stop()
    n = len(schedule)
    lat = [x for x in latency if x is not None]
    ok = [s == "ok" for s in status]
    failed = sum(1 for s in ok if not s)
    within = sum(1 for i in range(n) if ok[i] and latency[i] <= SLO_LIMIT_S)
    codes = {}
    for s in status:
        if s != "ok":
            codes[str(s)] = codes.get(str(s), 0) + 1
    lat_sum = summary(lat)
    metrics = {
        "req_p50_s": (percentile(lat, 50), "wall", lat_sum),
        "req_p99_s": (percentile(lat, 99), "wall",
                      {"samples": len(lat),
                       "beyond": sum(1 for x in lat if x > percentile(lat, 99))}),
        "slo_frac": (within / n if n else 0.0, "wall",
                     {"samples": n, "limit_s": SLO_LIMIT_S}),
        "peak_rss_mb": (hwm_kb / 1024.0, "memory", {"samples": 1}),
    }
    by_class = {}
    for cls in ("hot", "cold"):
        xs = [latency[i] for i, (_, k) in enumerate(schedule)
              if k.startswith(cls) and latency[i] is not None]
        by_class[cls] = dict(summary(xs), p90=percentile(xs, 90),
                             p99=percentile(xs, 99), max=max(xs, default=0.0))
    details = {"requests": n, "latency_s": by_class,
               "rate_per_s": SERVICE_RATE, "connections": SERVICE_CONNS,
               "workers": SERVICE_WORKERS,
               "generator_late_max_s": max(lateness) if lateness else 0.0,
               "generator_late_p99_s": percentile(lateness, 99),
               "non_ok": codes, "otterd_stats": stats}
    return metrics, n, failed, details


# ---- traced run -------------------------------------------------------------

def trace_run(workload, seed, bins, work, deadline, jobs):
    """Per-layer metrics: the workload's jobs through the traced driver, the
    rtlib replay, and per workload the generated-C path (dense) or the
    service path (vector: in-process Service probe plus a short otterd run
    over its socket)."""
    spec = {"reps": TRACE_REPS, "jobs": [tracer_job(j) for j in jobs],
            "rtlib": {"n": 2048, "mm": 384, "np": DENSE_NP, "reps": 5}}
    refs = {j["name"]: j["expect"] for j in jobs}
    probes = []
    svc = None
    if workload == "dense":
        # kernel.ns_per_elem needs chains with known element-op counts.
        for name, src, ops in gen.chain_scripts(seed):
            path = work / ("probe_" + name + ".m")
            path.write_text(src)
            probes.append({"name": "probe_" + name, "file": path, "np": 1,
                           "machine": MACHINE, "seed": 1, "elem_ops": ops,
                           "probe": True})
        spec["jobs"] += [tracer_job(p) for p in probes]
        spec["codegen"] = {"src_dir": str(ROOT / "src"),
                           "bin_dir": str(bins["otter_build"]),
                           "work_dir": str(work)}
    else:
        svc = service_setup(seed, TRACE_SERVICE_S, bins, work)
        pool, schedule, svc_refs, daemon = svc
        hot = sorted(k for k in pool if k.startswith("hot"))
        cold = [k for k in pool if k.startswith("cold")][:TRACE_COLD]
        spec["service"] = {"hot": [request_line(k, pool[k]) for k in hot],
                           "cold": [request_line(k, pool[k]) for k in cold],
                           "reps": TRACE_REPS}
        for k in hot + cold:
            refs[request_line(k, pool[k])] = svc_refs[k]
    details = {}
    svc_metrics = dict.fromkeys(SERVICE_LAYER, 0.0)
    try:
        res = tracer_call(bins, "trace", spec, work, [work / "spans.json"])
        if svc:
            latency, status, _ = open_loop(daemon, pool, schedule, svc_refs,
                                           deadline)
            stats = daemon.request({"op": "stats"}).get("stats", {})
    finally:
        if svc:
            daemon.stop()
    attempted = failed = 0
    if svc:
        lat = [x for x in latency if x is not None]
        attempted += len(schedule)
        failed += sum(1 for s in status if s != "ok")
        sm = res["service"]["metrics"]
        svc_metrics.update(sm)
        svc_metrics["service.queue_s"] = (percentile(lat, 50)
                                          - sm["service.process_s"])
        looked = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
        svc_metrics["service.cache_hit_ratio"] = (
            stats.get("cache_hits", 0) / looked if looked else 0.0)
        svc_metrics["service.spawned_minus_reaped"] = float(
            stats.get("sandbox_spawned", 0) - stats.get("sandbox_reaped", 0))
        details.update(socket_p50_s=percentile(lat, 50), socket_requests=len(lat),
                       otterd_stats=stats, service_probe=res["service"])

    if probes:
        refs.update(interp_refs(bins, probes, work))
    for name, outs in res["outputs"].items():
        want = refs.get(name)
        attempted += 1
        if want is None or any(not outputs_match(o, want) for o in outs):
            failed += 1
            details.setdefault("mismatches", []).append(name[:80])

    metrics = dict(res["metrics"])
    metrics.update(res["rtlib"]["metrics"])
    metrics.update(svc_metrics)
    details.update({"jobs": res["jobs"], "rtlib_sizes": res["rtlib"]["sizes"],
                    "traced_job_s": res["traced_job_s"],
                    "untraced_job_s": res["untraced_job_s"],
                    "exact_repeat": res["exact_repeat"],
                    "spans": str(work / "spans.json")})
    ut = res["untraced_job_s"]
    log("tracing overhead: traced %.6f s, untraced %.6f s per job set (%+.2f%%)"
        % (res["traced_job_s"], ut,
           100.0 * (res["traced_job_s"] - ut) / ut if ut else 0.0))
    for row in res["jobs"]:
        log("speedup %-10s interp.s x cpu_scale / vtime = %.3f"
            % (row["name"], row["speedup"]))
    return metrics, attempted, failed, res["exact_repeat"], details


# ---- provenance and result file -------------------------------------------------

def clock_of(name, unit):
    """The clock behind a per-layer metric."""
    if "vtime" in name:
        return "virtual"
    if unit in ("count", "ratio"):
        return "none (exact count or ratio)"
    return "wall"


def provenance(bins):
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "scripts"):
        p = ROOT / top
        files = [p] if p.is_file() else sorted(x for x in p.rglob("*")
                                                if x.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    build_type = None
    cache = bins["otter_build"] / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True,
                             text=True, timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE",
                                                "LEVEL2_CACHE_SIZE",
                                                "LEVEL3_CACHE_SIZE"):
                caches[parts[0].lower()] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {"commit": commit, "source_sha256": h.hexdigest(),
            "build_type": build_type, "nproc": os.cpu_count(),
            "caches_bytes": caches, "machine": platform.machine(),
            "python": platform.python_version()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["dense", "vector", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="result file (default .bench_build/results/)")
    args = ap.parse_args()
    if args.workload == "service" and args.trace:
        ap.error("the service layer is traced in --workload vector --trace 1")

    try:
        check_sources()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bins = build()
        deadline = time.perf_counter() + RUN_BUDGET_S
        work = build_dir() / "work" / args.workload
        work.mkdir(parents=True, exist_ok=True)

        # Set-up, repeated; the last one is kept, the median time reported.
        setup_times = []
        setup = None
        for k in range(1 if args.trace else SETUP_REPS):
            if setup is not None and args.workload == "service":
                setup[3].stop()
            t0 = time.perf_counter()
            if args.workload == "service":
                setup = service_setup(args.seed, args.seconds, bins, work)
            else:
                setup = closed_setup(args.workload, args.seed, bins, work)
            setup_times.append(time.perf_counter() - t0)

        exact = True
        if args.trace:
            values, attempted, failed, exact, details = trace_run(
                args.workload, args.seed, bins, work, deadline, setup)
            metric_specs = spec["per_layer"]
            info = {name: (v, "", {}) for name, v in values.items()}
        elif args.workload == "service":
            info, attempted, failed, details = service_run(deadline, setup)
            metric_specs = SERVICE_METRICS
        else:
            info, attempted, failed, details = closed_loop(
                bins, setup, args.seconds, work, deadline)
            metric_specs = spec["end_to_end"]
        if not args.trace:
            s = summary(setup_times)
            info["setup_s"] = (s["median"], "wall", s)

        applies = {m["name"] for m in metric_specs}
        metrics = {}
        full = {}
        for m in metric_specs + RECORDED_METRICS:
            name = m["name"]
            if name not in info:
                continue
            value, clock, stats = info[name]
            gated = name in applies
            if gated:
                metrics[name] = {"value": value, "unit": m["unit"]}
            full[name] = dict(value=value, unit=m["unit"], better=m["better"],
                              clock=clock or clock_of(name, m["unit"]),
                              gated=gated, **stats)
        missing = sorted(applies - set(metrics))
        correct = failed == 0 and exact and attempted > 0
        result = {"correct": correct, "attempted": attempted,
                  "failed": failed, "metrics": metrics}

        record = {"benchmark": "otter", "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": provenance(bins),
                  "correct": correct, "attempted": attempted,
                  "failed": failed,
                  "fail_frac": failed / attempted if attempted else 1.0,
                  "exact_repeat": exact,
                  "metrics": full, "not_reported": missing,
                  "setup_s": setup_times, "details": details}
        out = Path(args.out) if args.out else (
            build_dir() / "results" /
            ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)))
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1, default=str) + "\n")
        log("result file: %s" % out)
        print(json.dumps(result))
        return 0
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
