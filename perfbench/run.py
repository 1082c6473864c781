"""End-to-end benchmark of `infoflow serve`.

    python3 perfbench/run.py --workload mix-small --seed 3 --seconds 24 --trace 0

Run from the repository root. Builds the daemon (and, with --trace 1, the
traced replay harness) under .bench_build/, generates the workload's inputs
from --seed, starts the daemon, drives it over its Unix socket from one
single-threaded client, checks every answer, and prints one JSON object as
the last line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
reports the per-layer metrics (daemon counters plus the traced replay).
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
from daemon import Daemon  # noqa: E402

BUILD_DIR = ".bench_build"
JOBS = str(min(4, os.cpu_count() or 1))

# Daemon flags shared by every workload; each workload adds its own. The
# `--ingest` trio lets every workload end with a model update, so freshness
# is measured on every traffic mix.
BASE_FLAGS = ["--threads", "2", "--chains", "4", "--seed", "1",
              "--max-batch", "64", "--ingest", "--epoch-every", "100",
              "--drift-threshold", "0"]

# Request counts scale with --seconds by fixed per-workload rates, so a run's
# work is set by counts, not by how fast the machine happens to be. The
# rates were sized so one run measures about --seconds on a 4-vCPU VM.
WORKLOADS = {
    "mix-small": {
        "graph": ("pa", 1000, 2, 0.9, 0.02, 0.3),
        "flags": ["--bank-states", "16384"],
        "requests": gen.mix_small_requests,
        "interactive_per_s": 90, "bursts_per_s": 2.2, "tail_cycles": 2,
        "setups": 5,
    },
    "tree-auto": {
        "graph": ("tree", 100000, 4, 0.3, 0.9),
        "flags": ["--bank-states", "256", "--backend", "auto"],
        "requests": gen.tree_auto_requests,
        "interactive_per_s": 600, "bursts_per_s": 10, "tail_cycles": 2,
        "setups": 3,
    },
    "ingest-topk": {
        "graph": ("pa", 1000, 2, 0.9, 0.02, 0.3),
        "flags": ["--bank-states", "512"],
        "bursts_per_s": 15, "cycles_per_s": 2.5, "topk_per_cycle": 10,
        "setups": 15,
    },
}

WARM_INTERACTIVE = 32
WARM_BURSTS = 2
BURST = 64
EPOCH_LINES = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(argv, log_path):
    with open(log_path, "ab") as out:
        code = subprocess.call(argv, stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        with open(log_path, "rb") as f:
            sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
        raise SystemExit("perfbench: %s failed (exit %d)" % (argv[0], code))


def build(trace):
    """Configures and builds the daemon (and the traced harness) from the
    checkout's sources; a no-op when they are up to date."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        raise SystemExit("perfbench: run from the repository root "
                         "(no CMakeLists.txt / src here)")
    root = os.getcwd()
    repo_build = os.path.join(BUILD_DIR, "infoflow")
    os.makedirs(BUILD_DIR, exist_ok=True)
    blog = os.path.join(BUILD_DIR, "build.log")
    if not os.path.isfile(os.path.join(repo_build, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ".", "-B", repo_build,
                   "-DCMAKE_BUILD_TYPE=Release",
                   "-DINFOFLOW_BUILD_TESTS=OFF",
                   "-DINFOFLOW_BUILD_BENCHMARKS=OFF",
                   "-DINFOFLOW_BUILD_EXAMPLES=OFF"], blog)
    run_quiet(["cmake", "--build", repo_build, "--target", "infoflow_cli",
               "-j", JOBS], blog)
    binary = os.path.join(root, repo_build, "tools", "infoflow")
    harness = None
    if trace:
        trace_build = os.path.join(BUILD_DIR, "trace")
        if not os.path.isfile(os.path.join(trace_build, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", "perfbench/trace", "-B", trace_build,
                       "-DCMAKE_BUILD_TYPE=Release",
                       "-DINFOFLOW_SOURCE_DIR=" + root,
                       "-DINFOFLOW_BUILD_DIR=" + os.path.join(root,
                                                              repo_build)],
                      blog)
        run_quiet(["cmake", "--build", trace_build, "-j", JOBS], blog)
        harness = os.path.join(root, trace_build, "perfbench_trace")
    return binary, harness


def cpu_steal_ticks():
    """(steal, total) CPU ticks of the whole VM so far, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def make_model(spec, rng):
    if spec[0] == "pa":
        return gen.preferential_attachment(rng, *spec[1:])
    return gen.random_tree(rng, *spec[1:])


class Run:
    """One workload run: inputs, daemon, phases, metrics."""

    def __init__(self, args, binary, workdir):
        self.args = args
        self.cfg = WORKLOADS[args.workload]
        self.binary = binary
        self.workdir = workdir
        self.rng = gen.SplitMix64(args.seed * 1000003 + 17)
        self.model = make_model(self.cfg["graph"], self.rng)
        self.model_path = os.path.join(workdir, "model.picm")
        with open(self.model_path, "w") as f:
            f.write(self.model.picm_text())
        self.flags = BASE_FLAGS + self.cfg["flags"]
        self.check = checks.Checker()
        self.latency_ms = []
        self.freshness_s = []
        self.burst_rates = []
        self.answered = 0
        self.bank_beyond_3mcse = None
        self.steal_shares = []
        # Harness script and the daemon answers it must reproduce, by id.
        self.script = []
        self.expected = {}
        self.epoch = 1
        self.answer_epoch = 1
        self.absorbed = 0

    # ---------------------------------------------------------------- set-up
    def spawn(self):
        """A daemon answering on its socket, and its seconds to health."""
        d = Daemon(self.binary, self.model_path, self.flags,
                   os.path.join(self.workdir, "serve.sock"),
                   os.path.join(self.workdir, "daemon.log"))
        try:
            setup_s = d.wait_healthy()
        except Exception:
            d.stop()
            raise
        self.check.attempted += 1
        return d, setup_s

    def start(self):
        self.daemon, _ = self.spawn()
        self.daemon.sample_threads()
        self.stats_boot = self.daemon.stats()

    def time_setups(self):
        """Median set-up over fresh daemons, timed after the measured phases:
        spawned right after the inputs are generated, the first ~1.5 s of
        set-ups on a VM that was idle run about 1.5x slower (README.md)."""
        setups = []
        for _ in range(self.cfg["setups"]):
            d, setup_s = self.spawn()
            setups.append(setup_s)
            code = d.stop()
            self.check.expect(code == 0, "daemon exited with %r" % code)
        self.setup_s = statistics.median(setups)

    # -------------------------------------------------------------- requests
    def interactive(self, req, timed=True):
        line = gen.dump(req)
        resp, dt = self.daemon.timed_call(line)
        ans = self.check.answer(req, resp)
        if timed and ans is not None and "ingest" not in req:
            self.latency_ms.append(dt * 1e3)
        self.script.append("L " + line)
        self.expected[req["id"]] = resp
        return ans, dt

    def burst(self, reqs, timed=True):
        """One 64-line query burst, answered as the traced replay's `B`."""
        lines = [gen.dump(r) for r in reqs]
        resps, dt = self.daemon.burst(lines)
        if timed:
            self.burst_rates.append(len(lines) / dt)
        self.script.append("B %d" % len(lines))
        self.script.extend(lines)
        for req, resp in zip(reqs, resps):
            self.check.answer(req, resp)
            self.expected[req["id"]] = checks.strip_batching(resp)

    def ingest(self, ans):
        """Checks an ingest ack (already parsed) against the running count
        of absorbed lines and published epochs."""
        if ans is None:
            return
        self.absorbed += 1
        want_epoch = self.epoch + (1 if self.absorbed % EPOCH_LINES == 0
                                   else 0)
        self.check.expect(ans.get("absorbed_total") == self.absorbed,
                          "absorbed_total %r, expected %d"
                          % (ans.get("absorbed_total"), self.absorbed))
        self.check.expect(ans.get("epoch") == want_epoch,
                          "ingest epoch %r, expected %d"
                          % (ans.get("epoch"), want_epoch))
        self.epoch = want_epoch

    def poll_fresh(self, req, t_ack):
        """Re-sends `req` until an answer carries the new model epoch and
        records the seconds from the epoch-completing ack to that answer."""
        line = gen.dump(req)
        for _ in range(100000):
            resp = self.daemon.call(line)
            ans = self.check.answer(req, resp)
            if ans is None:
                return
            epoch = ans.get("model_epoch", 0)
            self.check.expect(self.answer_epoch <= epoch <= self.epoch,
                              "answer from epoch %r after epoch %d, with "
                              "%d published" % (epoch, self.answer_epoch,
                                                self.epoch))
            self.answer_epoch = max(self.answer_epoch, epoch)
            if epoch == self.epoch:
                self.freshness_s.append(time.perf_counter() - t_ack)
                self.script.append("L " + line)
                self.expected[req["id"]] = resp
                return
        self.check.fail("model epoch %d never reached answers" % self.epoch)

    def ingest_cycle(self, tag, poll_req):
        """Attributed ingest lines, one at a time, up to the next epoch,
        then polls until answers carry the new epoch."""
        t_ack = None
        count = EPOCH_LINES - self.absorbed % EPOCH_LINES
        for line in gen.ingest_lines(self.rng, self.model, count, tag):
            ans, _ = self.interactive(json.loads(line))
            self.ingest(ans)
            t_ack = time.perf_counter()
        self.poll_fresh(poll_req, t_ack)

    # ---------------------------------------------------------------- phases
    def usage(self):
        """(daemon CPU seconds, lines it has answered) so far; a phase's
        cpu_ms_per_request divides the deltas, so every line answered in the
        window counts, freshness polls included."""
        return self.daemon.cpu_seconds(), self.daemon.lines_answered

    def measure(self, phase):
        """Runs a measured phase and records the share of the VM's CPU time
        the hypervisor stole during it (other tenants; see README.md)."""
        steal0, total0 = cpu_steal_ticks()
        self.__dict__.update(phase())
        steal1, total1 = cpu_steal_ticks()
        self.steal_shares.append(
            round((steal1 - steal0) / max(1, total1 - total0), 4))

    def query_phase(self, measured, bursts):
        """Interactive requests one at a time, with one 64-line burst after
        each equal share of them, so both metrics sample the whole phase."""
        self.latency_ms, self.burst_rates = [], []
        stats0 = self.daemon.stats()
        cpu0, lines0 = self.usage()
        for i, req in enumerate(measured):
            self.interactive(req)
            if i * len(bursts) // len(measured) != \
                    (i + 1) * len(bursts) // len(measured):
                self.burst(bursts[i * len(bursts) // len(measured)])
        self.daemon.sample_threads()
        cpu1, lines1 = self.usage()
        stats1 = self.daemon.stats()
        return {"latency_ms": self.latency_ms,
                "burst_rates": self.burst_rates,
                "cpu_s": cpu1 - cpu0, "stats": (stats0, stats1),
                "answered": lines1 - lines0}

    def tail_phase(self):
        """Model updates: one epoch of ingest lines, then a flow query
        re-sent until it answers from the new epoch, per tail cycle."""
        self.freshness_s = []
        polls = gen.flow_requests(self.rng, self.model,
                                  self.cfg["tail_cycles"], "f")
        for c, poll in enumerate(polls):
            self.ingest_cycle("t%d_" % c, poll)
        return {"freshness_s": self.freshness_s}

    def run_query_workload(self, seconds):
        cfg = self.cfg
        n_int = max(50, round(cfg["interactive_per_s"] * seconds))
        n_burst = max(2, round(cfg["bursts_per_s"] * seconds))
        total = WARM_INTERACTIVE + n_int + (WARM_BURSTS + n_burst) * BURST
        reqs = cfg["requests"](self.rng, self.model, total, "q")
        warm = reqs[:WARM_INTERACTIVE]
        measured = gen.with_repeats(
            self.rng, reqs[WARM_INTERACTIVE:WARM_INTERACTIVE + n_int], 16)
        bulk = reqs[WARM_INTERACTIVE + n_int:]
        bursts = [bulk[b * BURST:(b + 1) * BURST]
                  for b in range(WARM_BURSTS + n_burst)]
        for req in warm:
            self.interactive(req, timed=False)
        for burst in bursts[:WARM_BURSTS]:
            self.burst(burst, timed=False)
        self.measure(lambda: self.query_phase(measured, bursts[WARM_BURSTS:]))
        if self.args.workload == "tree-auto":
            self.check.tree_exact(self.model, warm + measured, self.expected)
            self.bank_beyond_3mcse = self.check.bank_agreement(
                self.daemon, measured[:64], self.expected)
        self.__dict__.update(self.tail_phase())
        self.daemon.sample_threads()

    def bulk_ingest_phase(self, n_burst):
        """Attributed cascades in 64-line bursts."""
        self.burst_rates = []
        cpu0, lines0 = self.usage()
        for b in range(n_burst):
            lines = gen.ingest_lines(self.rng, self.model, BURST,
                                     "b%d_%d_" % (self.absorbed, b))
            resps, dt = self.daemon.burst(lines)
            self.burst_rates.append(len(lines) / dt)
            for line, resp in zip(lines, resps):
                req = json.loads(line)
                self.script.append("L " + line)
                self.expected[req["id"]] = resp
                self.ingest(self.check.answer(req, resp))
        cpu1, lines1 = self.usage()
        return {"burst_rates": self.burst_rates,
                "cpu_bulk_s": cpu1 - cpu0, "answered_bulk": lines1 - lines0}

    def cycle_phase(self, cycles, topk):
        """Per cycle: one epoch of ingest lines, a top-k re-sent until it
        reports the new epoch, then `topk_per_cycle` more top-k requests."""
        self.latency_ms, self.freshness_s = [], []
        stats0 = self.daemon.stats()
        cpu0, lines0 = self.usage()
        for c in range(cycles):
            reqs = topk("k%d_" % self.epoch)
            self.ingest_cycle("c%d_" % self.epoch, reqs[0])
            self.daemon.sample_threads()
            for req in reqs[1:]:
                self.interactive(req)
        cpu1, lines1 = self.usage()
        stats1 = self.daemon.stats()
        return {"latency_ms": self.latency_ms,
                "freshness_s": self.freshness_s,
                "cpu_s": cpu1 - cpu0 + self.cpu_bulk_s,
                "stats": (stats0, stats1),
                "answered": lines1 - lines0 + self.answered_bulk}

    def run_ingest_workload(self, seconds):
        cfg = self.cfg
        cycles = max(3, round(cfg["cycles_per_s"] * seconds))
        n_burst = max(2, round(cfg["bursts_per_s"] * seconds))
        topk = lambda tag: gen.topk_requests(  # noqa: E731
            cfg["topk_per_cycle"] + 1, tag)
        # Bulk ingest first: the learned model moves fastest over its first
        # epochs, so the top-k cycles below run on a model that has absorbed
        # some twenty thousand cascades and drifts slowly.
        self.measure(lambda: self.bulk_ingest_phase(n_burst))
        # Warm-up cycle: the first sketch build.
        self.cycle_phase(1, topk)
        self.measure(lambda: self.cycle_phase(cycles, topk))
        self.daemon.sample_threads()

    def execute(self):
        self.start()
        try:
            if "requests" in self.cfg:
                self.run_query_workload(self.args.seconds)
            else:
                self.run_ingest_workload(self.args.seconds)
            self.peak_rss_mb = self.daemon.status_field("VmHWM") / 1024.0
        finally:
            code = self.daemon.stop()
        self.check.expect(code == 0, "daemon exited with %r" % code)
        self.time_setups()

    # --------------------------------------------------------------- results
    def end_to_end(self):
        lat = sorted(self.latency_ms)
        return {
            "setup_s": (self.setup_s, "s"),
            "latency_p50_ms": (statistics.median(lat), "ms"),
            "latency_p90_ms": (statistics.quantiles(lat, n=10)[8], "ms"),
            "bulk_qps": (statistics.median(self.burst_rates), "1/s"),
            "cpu_ms_per_request": (self.cpu_s * 1e3 / self.answered, "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
            "freshness_s": (statistics.median(self.freshness_s), "s"),
        }

    def digest(self):
        """Hash of every recorded answer, scheduling fields removed."""
        h = hashlib.sha256()
        for line in self.script:
            if not line.startswith("B "):
                rid = json.loads(line[2:] if line.startswith("L ") else
                                 line)["id"]
                h.update(checks.strip_scheduling(self.expected[rid]).encode())
        return h.hexdigest()[:16]


def trace_metrics(run, harness, workdir):
    """Runs the traced replay on the same inputs and returns the per-layer
    metrics: counter deltas from the daemon plus the replay's medians."""
    script = os.path.join(workdir, "script.txt")
    with open(script, "w") as f:
        f.write("\n".join(run.script) + "\n")
    answers = os.path.join(workdir, "traced_answers.ndjson")
    argv = [harness, "--model", run.model_path, "--script", script,
            "--out", answers, "--spans", os.path.join(workdir, "spans.json"),
            "--seed", "1", "--threads", "2", "--chains", "4",
            "--epoch-every", str(EPOCH_LINES), "--ingest",
            "--bank-states", run.flags[run.flags.index("--bank-states") + 1]]
    if "--backend" in run.flags:
        argv += ["--backend", run.flags[run.flags.index("--backend") + 1]]
    out = subprocess.run(argv, stdout=subprocess.PIPE, check=True).stdout
    summary = json.loads(out.decode().strip().splitlines()[-1])
    with open(answers) as f:
        traced = [l.rstrip("\n") for l in f]
    run.check.traced_identical(run.script, run.expected, traced)
    metrics = checks.counter_metrics(run.stats_boot, *run.stats)
    metrics["server.threads_peak"] = run.daemon.threads_peak
    metrics.update(summary["metrics"])
    lat_p50 = statistics.median(run.latency_ms)
    metrics["transport.gap_ms"] = lat_p50 - summary["inprocess_p50_ms"]
    return metrics, summary


def source_digest():
    """The commit when git knows it, else a hash of the built sources."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=True).stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        h = hashlib.sha256()
        for top in ("CMakeLists.txt", "src", "tools"):
            for dirpath, dirnames, files in os.walk(top):
                dirnames.sort()
                for name in sorted(files):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        h.update(name.encode() + f.read())
            if os.path.isfile(top):
                with open(top, "rb") as f:
                    h.update(f.read())
        return "sources-sha256:" + h.hexdigest()[:16]


def strip_isa(width):
    with open("/proc/cpuinfo") as f:
        flags = next((l.split(":", 1)[1].split() for l in f
                      if l.startswith("flags")), [])
    if width == 512 and "avx512f" in flags:
        return "avx512"
    if width > 64 and "avx2" in flags:
        return "avx2"
    return "generic"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary, harness = build(args.trace == 1)
    workdir = os.path.join(BUILD_DIR, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    run = Run(args, binary, workdir)
    run.execute()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": os.sysconf("SC_NPROCESSORS_ONLN"),
        "daemon_flags": run.flags, "threads_peak": run.daemon.threads_peak,
        "commit": source_digest(), "answer_digest": run.digest(),
        "interactive": len(run.latency_ms), "bursts": len(run.burst_rates),
        "freshness_samples": len(run.freshness_s),
        "bank_beyond_3mcse": run.bank_beyond_3mcse,
        "steal_shares": run.steal_shares,
    }
    gauges = run.stats[1].get("gauges", {})
    width = int(gauges.get("reach.strip_width", 0))
    record["strip_width"] = width
    record["strip_isa"] = strip_isa(width)
    if args.trace == 1:
        metrics, summary = trace_metrics(run, harness, workdir)
        record["missing_counters"] = checks.MISSING
        record["layers"] = summary["layers"]
        out = {name: {"value": value, "unit": checks.LAYER_UNITS[name]}
               for name, value in metrics.items()}
    else:
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run.end_to_end().items()}
    print("record " + json.dumps(record, sort_keys=True))
    for msg in run.check.messages[:20]:
        log("check failed: " + msg)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": run.check.failed == 0,
                      "attempted": run.check.attempted,
                      "failed": run.check.failed, "metrics": out}))


if __name__ == "__main__":
    main()
