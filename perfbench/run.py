#!/usr/bin/env python3
"""The repository benchmark: seeded end-to-end workloads plus a traced
per-layer breakdown of the DVAFS workspace.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the shipped `dvafs` binary
and the `perfbench` helper (this directory's Cargo package) with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs workload W. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. Every run also writes a result file with a host record under
`.perfbench/results/`.

Workloads (the seed is a benchmark argument; the programs see only the
inputs generated from it):

* serve_predict — `dvafs serve --threads 2` over stdio, one closed-loop
  client keeping 4 requests in flight: predict requests over lenet5,
  alexnet and vgg16 (two weight seeds each), wbits/abits in {4, 8, 16},
  samples in {1, 8, 64}, and one `run` of table1/fig2/fig8/table3 in 20,
  in a fixed order (see ServeSchedule); the seed draws the inputs.
* paper_figures — fresh-process passes of fig2, fig3a, fig3b, fig4, fig8,
  table1, table2, table3 and ablations.

Every workload reports every end-to-end metric. Its own activity runs for
`--seconds` of active time; the rest run as companion probes on the pinned
default seed (bench seed 0, the golden fixtures' seed): serve requests on
paper_figures, figure passes on serve_predict, and on both the Fig. 6
precision search — fresh-process passes of fig6, fig6_vgg and
cnn_layerwise at paper scale. The companion units, and the serve set-ups
after the first, are spread evenly through the workload's own window, so a
slow spell of the host lands on every metric of the run alike instead of
on one phase.

On a shared host interference only ever adds time, so a pass metric
(`search_s`, `figures_ms`) is the run's fastest pass: a best case, steadier
from run to run than any central figure. A change that slows typical
passes but not the fastest one does not move it, so the median and
quartiles of all passes are printed beside it and kept in the result file
for comparisons. `setup_s` is the median of the run's set-ups, and
`peak_rss_mb` the largest peak resident set of the workload's processes.

Every operation is checked: predict replies against direct in-process
`Network::predict_all` calls on the same inputs; scenario outputs, from
passes and from `run` replies, byte for byte against `tests/golden/` where
a fixture covers the seed, otherwise against a once-per-seed reference run
on the retained oracles (`SearchStrategy::Rescan`, `Engine::Scalar`).
"""

import argparse
import collections
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("serve_predict", "paper_figures")

MODELS = ("lenet5", "alexnet", "vgg16")
SEARCH_IDS = ("fig6", "fig6_vgg", "cnn_layerwise")
FIGURE_IDS = ("fig2", "fig3a", "fig3b", "fig4", "fig8", "table1", "table2",
              "table3", "ablations")
SERVE_RUN_IDS = ("table1", "fig2", "fig8", "table3")
# Scenarios whose output does not depend on the seed (they pin their own).
SEED_FREE = {"fig2", "fig3a", "fig3b", "fig8", "table1", "table3"}
# Golden fixtures: valid for every seed, or only for bench seed 0.
GOLDEN_ANY_SEED = {"fig2", "fig3a", "fig3b", "table3"}
GOLDEN_SEED0 = {"fig6_vgg", "cnn_layerwise"}

THREADS = 2
INFLIGHT = 4
SETUPS = 15                # serve set-ups per run, spread through it; setup_s is their median
P99_MIN_REPLIES = 1000     # p99 needs at least 10 replies beyond it
SCHEDULE_ROUNDS = 81       # serve stream offsets: whole 20-request rounds of the schedule
FIGURES_MIN_PASSES = 20
# Companion probes, on bench seed 0.
COMPANION_SERVE_SLICES = 15      # of COMPANION_SERVE_REQUESTS requests each
COMPANION_SERVE_REQUESTS = 100
COMPANION_SEARCH_PASSES = 6
COMPANION_FIGURES_PASSES = 60
SCALING_REPLIES = 300
REPLY_TIMEOUT_S = 20.0
PASS_TIMEOUT_S = 120.0

END_TO_END = collections.OrderedDict([
    ("serve_rps", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("setup_s", "s"),
    ("search_s", "s"),
    ("figures_ms", "ms"),
    ("peak_rss_mb", "MiB"),
])


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
                log(f"FAILED: {what}")
        return ok


class Spans:
    """Client-side spans (name, id, start, end in ns), kept in memory and
    written once at the end of a traced run; a no-op when tracing is off."""

    def __init__(self, on):
        self.on = on
        self.rows = []

    def add(self, name, ident, start_s, end_s):
        if self.on:
            self.rows.append((name, ident, int(start_s * 1e9), int(end_s * 1e9)))

    def write(self, path):
        with open(path, "w") as f:
            for name, ident, start, end in self.rows:
                f.write(json.dumps({"name": name, "id": ident, "start_ns": start,
                                    "end_ns": end}) + "\n")


class Ctx:
    """What every phase needs: the binaries, the checks and the spans."""

    def __init__(self, bins, tally, spans):
        self.dvafs, self.perfbench = bins
        self.tally = tally
        self.spans = spans


# ---------------------------------------------------------------- build --

def build():
    """Builds both binaries; returns their paths, or exits non-zero."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        log(f"{ROOT} is not a checkout of the DVAFS workspace "
            "(no Cargo.toml / crates/)")
        sys.exit(2)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "dvafs-bench", "--bin", "dvafs"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)
    bins = tuple(os.path.join(target, "release", b) for b in ("dvafs", "perfbench"))
    for b in bins:
        if not os.access(b, os.X_OK):
            log(f"build produced no {b}")
            sys.exit(2)
    return bins


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def host_record():
    """nproc, CPU model, the ISA features the GEMM dispatch can use, rustc
    and the commit (None outside a git checkout)."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass

    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "isa": {f: f in flags for f in ("avx2", "avx512_vnni", "avx_vnni")},
        "rustc": cmd_out(["rustc", "--version"]),
        "commit": cmd_out(["git", "rev-parse", "HEAD"]) if os.path.isdir(
            os.path.join(ROOT, ".git")) else None,
    }


# ----------------------------------------------------------- processes --

def wait_rusage(proc, timeout):
    """Waits for `proc` (killed past `timeout`) and returns its peak
    resident set in MiB."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


class ServeProcess:
    """One `dvafs serve --threads T` session over stdio."""

    def __init__(self, dvafs, threads):
        self.start = time.perf_counter()
        os.makedirs(os.path.join(WORK, "logs"), exist_ok=True)
        self.err = open(os.path.join(WORK, "logs", "serve.stderr"), "ab")
        self.proc = subprocess.Popen([dvafs, "serve", "--threads", str(threads)],
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err)
        self.fd = self.proc.stdout.fileno()
        self.buf = bytearray()
        self.peak_rss_mb = None
        self.dead = False     # ended, or given up on: nothing more is sent

    def send(self, line):
        """Writes one request line; False, and the server counts as dead,
        once its stdin is closed."""
        if self.dead:
            return False
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
            return True
        except OSError:
            self.dead = True
            return False

    def abandon(self):
        """Gives up on a server that stopped answering and kills it. The
        process is not reaped before `close`, so its pid is still its own."""
        self.dead = True
        try:
            os.kill(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def recv(self, timeout=REPLY_TIMEOUT_S):
        """The next reply line, or None on timeout or end of stream."""
        deadline = time.monotonic() + timeout
        while True:
            nl = self.buf.find(b"\n")
            if nl >= 0:
                line = bytes(self.buf[:nl])
                del self.buf[:nl + 1]
                return line.decode("utf-8", "replace")
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk

    def close(self):
        """Ends the session (EOF on stdin) and returns the exit code."""
        if self.proc.returncode is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            self.peak_rss_mb = wait_rusage(self.proc, 30.0)
            self.proc.stdout.close()
            self.err.close()
        return self.proc.returncode


# ------------------------------------------------------------ serve mix --

class ServeSchedule:
    """The request shapes of the serve mix, one fixed sequence for every
    seed: predicts as shuffled blocks holding each of the 81 (model,
    samples, wbits, abits) combinations once, and every 20th request a
    `run` of one of SERVE_RUN_IDS, in shuffled rounds.

    The latencies form two clusters, requests that queue behind a 64-sample
    predict and the rest, and the median falls in the sparse gap between
    them. A different order per seed therefore moves serve_p50_ms by itself,
    so the order is drawn once and only the inputs vary with the seed."""

    def __init__(self):
        self.rng = random.Random("dvafs-serve-schedule")
        self.shapes = []
        self.predicts = []
        self.runs = []

    def _next_predict(self):
        if not self.predicts:
            block = [(m, s, w, a) for m in MODELS for s in (1, 8, 64)
                     for w in (4, 8, 16) for a in (4, 8, 16)]
            self.rng.shuffle(block)
            self.predicts = block[::-1]
        return ("predict",) + self.predicts.pop()

    def _next_run(self):
        if not self.runs:
            self.runs = list(SERVE_RUN_IDS)
            self.rng.shuffle(self.runs)
        return ("run", self.runs.pop())

    def shape(self, i):
        while len(self.shapes) <= i:
            n = len(self.shapes)
            self.shapes.append(self._next_run() if n % 20 == 10 else self._next_predict())
        return self.shapes[i]


class ServeMix:
    """The seeded request stream of serve_predict: the fixed ServeSchedule,
    entered at an offset the seed draws (whole 20-request rounds, so the
    `run` positions stay put), with the seed's two weight seeds per model
    and a fresh data seed per request."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"dvafs-serve:{seed}")
        self.model_seeds = {m: (2 * seed + 1, 2 * seed + 2) for m in MODELS}
        self.schedule = ServeSchedule()
        self.offset = 20 * self.rng.randrange(SCHEDULE_ROUNDS)
        self.warmup = []
        for m in MODELS:
            for ms in self.model_seeds[m]:
                for w in (4, 8, 16):
                    self.warmup.append(self._predict(m, ms, w, 16, 1))
        self.load = []

    def _predict(self, model, model_seed, wbits, abits, samples):
        return {"op": "predict", "model": model, "model_seed": model_seed,
                "samples": samples, "data_seed": self.rng.getrandbits(32),
                "wbits": wbits, "abits": abits}

    def request(self, i):
        """Load request i (generated on demand, in order)."""
        while len(self.load) <= i:
            shape = self.schedule.shape(self.offset + len(self.load))
            if shape[0] == "run":
                self.load.append({"op": "run", "scenario": shape[1], "format": "json"})
            else:
                _, m, s, w, a = shape
                self.load.append(self._predict(m, self.rng.choice(self.model_seeds[m]), w, a, s))
        return self.load[i]


def with_id(req, ident):
    return json.dumps(dict(req, id=ident), separators=(",", ":"))


class ServeSession:
    """Set-ups of `dvafs serve`, one of which stays up as the load server,
    and closed-loop slices with INFLIGHT requests outstanding on it."""

    def __init__(self, ctx, seed, threads=THREADS):
        self.ctx = ctx
        self.mix = ServeMix(seed)
        self.threads = threads
        self.srv = None
        self.sent = []        # (request, reply) of every answered request
        self.setups = []      # seconds from spawn to the last warm-up reply
        self.lat = []         # load latencies, ms
        self.lines = []       # load request lines, in order
        self.slices = []      # (replies, seconds) per slice
        self.next = 0
        self.broken = False   # a server ended or stopped answering

    def setup(self, keep):
        """Starts a server and answers the warm-up requests; the server
        becomes the load server if `keep`, else it is shut down. Once a
        server of the session has failed, set-ups are skipped as failed, so
        a server that hangs costs one reply timeout, not one per set-up."""
        if self.broken:
            self.ctx.tally.check(False, "serve set-up skipped: an earlier server failed")
            return
        srv = ServeProcess(self.ctx.dvafs, self.threads)
        for i, req in enumerate(self.mix.warmup):
            srv.send(with_id(req, i))
        for i, req in enumerate(self.mix.warmup):
            reply = srv.recv()
            if reply is None:
                self.ctx.tally.check(False, f"warm-up request {i}: no reply")
                srv.abandon()
                self.broken = True
                break
            self.sent.append((req, reply))
        ready = time.perf_counter()
        self.ctx.spans.add("serve.setup", len(self.setups), srv.start, ready)
        self.setups.append(ready - srv.start)
        if keep:
            self.close()
            self.srv = srv
        else:
            code = srv.close()
            self.ctx.tally.check(code == 0, f"dvafs serve exited {code}")

    def slice(self, seconds=None, requests=None):
        """Sends until `seconds` have passed or `requests` were sent, then
        drains the requests in flight. A request that gets no reply ends
        the server; once it has ended, the requests a slice could not send
        (one for a timed slice) count as failed."""
        base = len(self.mix.warmup)
        srv = self.srv
        pending = collections.deque()
        start = time.perf_counter()
        replies = 0
        sent_here = 0
        last = start

        def more(now):
            return (not srv.dead and (seconds is None or now - start < seconds)
                    and (requests is None or sent_here < requests))

        def send_next():
            nonlocal sent_here
            line = with_id(self.mix.request(self.next), base + self.next)
            t_sent = time.perf_counter()
            if srv.send(line):
                pending.append((self.next, t_sent))
                self.lines.append(line)
                self.next += 1
                sent_here += 1

        while len(pending) < INFLIGHT and more(time.perf_counter()):
            send_next()
        while pending:
            reply = srv.recv()
            if reply is None:
                srv.abandon()
                for idx, _ in pending:
                    self.ctx.tally.check(False, f"request {base + idx}: no reply within "
                                                f"{REPLY_TIMEOUT_S:.0f}s")
                self.lat.extend(float("nan") for _ in pending)
                break
            last = time.perf_counter()
            idx, t_sent = pending.popleft()
            self.lat.append((last - t_sent) * 1e3)
            self.ctx.spans.add("serve.request", base + idx, t_sent, last)
            self.sent.append((self.mix.request(idx), reply))
            replies += 1
            if more(last):
                send_next()
        if srv.dead:
            self.broken = True
            unsent = 1 if requests is None else requests - sent_here
            for _ in range(unsent):
                self.ctx.tally.check(False, "request not sent: dvafs serve has ended")
        self.slices.append((replies, last - start))

    def replies(self):
        return sum(n for n, _ in self.slices)

    def active_s(self):
        return sum(s for _, s in self.slices)

    def rps(self):
        active = self.active_s()
        return self.replies() / active if active > 0 else float("nan")

    def close(self):
        if self.srv is not None and self.srv.proc.returncode is None:
            code = self.srv.close()
            self.ctx.tally.check(code == 0, f"dvafs serve exited {code}")

    def check(self, pinned):
        check_serve_replies(self.sent, self.ctx.perfbench, pinned, self.ctx.tally)


def check_serve_replies(sent, perfbench, pinned, tally):
    """Checks every (request, reply) pair; predict replies against direct
    predict_all calls, run replies against the expected scenario output."""
    predicts = [(req, rep) for req, rep in sent if req["op"] == "predict"]
    expected = expected_predictions([req for req, _ in predicts], perfbench, pinned)
    for (req, rep), want in zip(predicts, expected):
        try:
            r = json.loads(rep)
        except ValueError:
            r = {}
        ok = (r.get("ok") is True and r.get("model") == req["model"]
              and r.get("samples") == req["samples"]
              and r.get("wbits") == req["wbits"] and r.get("abits") == req["abits"]
              and r.get("predictions") == want)
        tally.check(ok, f"predict {json.dumps(req)} -> {rep[:160]}")
    for req, rep in sent:
        if req["op"] != "run":
            continue
        try:
            r = json.loads(rep)
        except ValueError:
            r = {}
        want = expected_output(req["scenario"], 0, perfbench)
        tally.check(r.get("ok") is True and r.get("output", "").encode() == want,
                    f"run {req['scenario']} reply differs from its reference")


def expected_predictions(reqs, perfbench, pinned):
    """Direct in-process predictions for each request (`perfbench expect`).
    Answers for a `pinned` stream, which every run repeats, are cached per
    request list and binary."""
    payload = "".join(json.dumps(r) + "\n" for r in reqs)
    path = None
    if pinned:
        key = hashlib.sha256((file_digest(perfbench) + payload).encode()).hexdigest()[:24]
        path = os.path.join(WORK, "cache", f"expect-{key}.json")
        if os.path.isfile(path):
            with open(path) as f:
                return json.load(f)
    out = subprocess.run([perfbench, "expect"], cwd=ROOT, input=payload,
                         capture_output=True, text=True)
    if out.returncode != 0:
        log(f"perfbench expect failed: {out.stderr.strip()}")
        return [None] * len(reqs)
    answers = [json.loads(line) for line in out.stdout.splitlines()]
    if path:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(answers, f)
    return answers


# ------------------------------------------------------------- outputs --

_BIN_KEY = {}


def reference_dir(perfbench, seed):
    key = _BIN_KEY.setdefault(perfbench, file_digest(perfbench)[:16])
    return os.path.join(WORK, "ref", key, f"seed{seed}")


def ensure_references(perfbench, seed, ids):
    """Runs the oracle pass for the ids of `seed` not cached yet."""
    refdir = reference_dir(perfbench, seed)
    missing = [i for i in ids if not os.path.isfile(os.path.join(refdir, f"{i}.json"))]
    if not missing:
        return
    tmp = refdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    r = subprocess.run([perfbench, "pass", "--oracle", "--seed", str(seed),
                        "--threads", str(THREADS), "--scenarios", ",".join(missing),
                        "--out", tmp], cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        log(f"reference run failed: {r.stderr.strip()}")
        return
    os.makedirs(refdir, exist_ok=True)
    for i in missing:
        os.replace(os.path.join(tmp, f"{i}.json"), os.path.join(refdir, f"{i}.json"))
    shutil.rmtree(tmp, ignore_errors=True)


def golden(sid, seed):
    return sid in GOLDEN_ANY_SEED or (sid in GOLDEN_SEED0 and seed == 0)


def expected_output(sid, seed, perfbench):
    """The bytes scenario `sid` must render at bench seed `seed`."""
    if golden(sid, seed):
        with open(os.path.join(ROOT, "tests", "golden", f"{sid}.json"), "rb") as f:
            return f.read()
    key = 0 if sid in SEED_FREE else seed
    ensure_references(perfbench, key, [sid])
    path = os.path.join(reference_dir(perfbench, key), f"{sid}.json")
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as f:
        return f.read()


def prepare_references(perfbench, seeds, ids):
    """Computes the missing references in one oracle pass per seed."""
    for seed in seeds:
        ensure_references(perfbench, seed, [i for i in ids if not golden(i, seed)
                                            and i not in SEED_FREE])
    ensure_references(perfbench, 0, [i for i in ids if i in SEED_FREE and not golden(i, 0)])


def run_pass(ctx, seed, ids, threads, ident):
    """One fresh-process pass; returns (wall seconds incl. process start,
    peak RSS MiB). Its outputs are checked byte for byte."""
    out = os.path.join(WORK, "pass")
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen([ctx.perfbench, "pass", "--seed", str(seed), "--threads",
                             str(threads), "--scenarios", ",".join(ids), "--out", out],
                            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    rss = wait_rusage(proc, PASS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    ctx.spans.add("pass", ident, t0, t0 + wall)
    ok = proc.returncode == 0
    ctx.tally.check(ok, f"pass seed {seed} {','.join(ids)} exited {proc.returncode}")
    for sid in ids:
        got = None
        path = os.path.join(out, f"{sid}.json")
        if ok and os.path.isfile(path):
            with open(path, "rb") as f:
                got = f.read()
        ctx.tally.check(got is not None and got == expected_output(sid, seed, ctx.perfbench),
                        f"{sid} at seed {seed} differs from its reference")
    return wall, rss


# ----------------------------------------------------------- statistics --

def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values):
    return statistics.median(values) if values else float("nan")


def p99(values):
    if not values:
        return float("nan")
    s = sorted(values)
    return s[max(0, math.ceil(0.99 * len(s)) - 1)]


class Report:
    """End-to-end values with the sample each came from."""

    def __init__(self):
        self.values = collections.OrderedDict()

    def put(self, name, value, sample, source):
        self.values[name] = (value, sample, source)

    def table(self, workload):
        lines = [f"end-to-end metrics, workload {workload}:",
                 f"  {'metric':<13} {'unit':<4} {'value':>11} {'q1':>11} "
                 f"{'median':>11} {'q3':>11} {'n':>6}  source"]
        for name, unit in END_TO_END.items():
            value, sample, source = self.values[name]
            q1, q2, q3 = quartiles(sample)
            lines.append(f"  {name:<13} {unit:<4} {value:>11.4f} {q1:>11.4f} "
                         f"{q2:>11.4f} {q3:>11.4f} {len(sample):>6}  {source}")
        return "\n".join(lines)


# --------------------------------------------------------------- phases --
#
# A phase prepares (references, set-ups, warm-up), then runs units. The
# workload's own phase runs for `seconds` of active time; each companion
# has a fixed number of units.

class ServePhase:
    def __init__(self, ctx, seed, seconds, primary):
        self.primary = primary
        self.seconds = seconds
        self.session = ServeSession(ctx, seed if primary else 0)
        self.units = None if primary else COMPANION_SERVE_SLICES
        self.done_units = 0

    def prepare(self):
        self.session.setup(keep=True)

    def progress(self):
        if self.primary:
            return min(self.session.active_s() / self.seconds, 0.999)
        return self.done_units / self.units

    def finished(self):
        if self.primary:
            s = self.session
            return s.srv.dead or (s.active_s() >= self.seconds
                                  and s.replies() >= P99_MIN_REPLIES)
        return self.done_units >= self.units

    def step(self, until=None):
        if self.primary:
            s = self.session
            left = self.seconds - s.active_s()
            if left <= 0:  # the window is over; top up to P99_MIN_REPLIES
                s.slice(requests=max(P99_MIN_REPLIES - s.replies(), INFLIGHT))
                return
            if until is not None:
                left = min(left, (until - self.progress()) * self.seconds)
            s.slice(seconds=max(left, 0.05))
        else:
            self.session.slice(requests=COMPANION_SERVE_REQUESTS)
            self.done_units += 1

    def finish(self, report):
        s = self.session
        s.close()
        s.check(pinned=not self.primary)
        lat = [v for v in s.lat if not math.isnan(v)]
        source = "serve_predict" if self.primary else "companion serve, seed 0"
        rates = [n / t for n, t in s.slices if t > 0]
        report.put("serve_rps", s.rps(), rates, source + " (per slice)")
        report.put("serve_p50_ms", median(lat), lat, source)
        s.ctx.tally.check(len(lat) >= P99_MIN_REPLIES,
                          f"only {len(lat)} replies, p99 needs {P99_MIN_REPLIES}")
        report.put("serve_p99_ms", p99(lat), lat, source)
        report.put("setup_s", median(s.setups), s.setups, source + " set-ups")
        if self.primary:
            peak = s.srv.peak_rss_mb
            report.put("peak_rss_mb", peak, [peak], "dvafs serve")


class SetupUnits:
    """The serve set-ups after the first, run as companion units so they
    spread through the window like the other probes."""

    def __init__(self, session, units):
        self.session = session
        self.units = units

    def step(self):
        self.session.setup(keep=False)


class PassPhase:
    """Fresh-process passes of `ids` on one seed: the workload's own window
    of `seconds` of passes, or a companion of `units` passes."""

    def __init__(self, ctx, ids, seed, metric, scale, warmups, seconds=None, units=None):
        self.ctx = ctx
        self.ids = ids
        self.seed = seed
        self.metric = metric
        self.scale = scale
        self.warmups = warmups
        self.seconds = seconds
        self.units = units
        self.primary = seconds is not None
        self.walls = []
        self.rss = []

    def prepare(self):
        prepare_references(self.ctx.perfbench, [self.seed], self.ids)
        # The host runs the first work after a pause slowly: warm it up.
        for k in range(self.warmups):
            run_pass(self.ctx, self.seed, self.ids, THREADS, -1 - k)

    def progress(self):
        if self.seconds is None:
            return len(self.walls) / self.units
        return min(sum(self.walls) / self.seconds, 0.999)

    def finished(self):
        if self.seconds is None:
            return len(self.walls) >= self.units
        return sum(self.walls) >= self.seconds and len(self.walls) >= FIGURES_MIN_PASSES

    def step(self, until=None):
        wall, rss = run_pass(self.ctx, self.seed, self.ids, THREADS, len(self.walls))
        self.walls.append(wall)
        self.rss.append(rss)

    def finish(self, report, source):
        sample = [w * self.scale for w in self.walls]
        report.put(self.metric, min(sample), sample, f"{source}; fastest pass, a best case")
        if self.primary:
            report.put("peak_rss_mb", max(self.rss), self.rss,
                       f"largest of the {self.metric} passes")


def run_workload(workload, seed, seconds, ctx):
    """Runs the workload's own phase for its window with the companion units
    spread evenly through it; returns the report and the serve session."""
    serve = ServePhase(ctx, seed, seconds, workload == "serve_predict")
    search = PassPhase(ctx, SEARCH_IDS, 0, "search_s", 1.0, 1, units=COMPANION_SEARCH_PASSES)
    if workload == "paper_figures":
        figures = PassPhase(ctx, FIGURE_IDS, seed, "figures_ms", 1e3, 3, seconds=seconds)
    else:
        figures = PassPhase(ctx, FIGURE_IDS, 0, "figures_ms", 1e3, 3,
                            units=COMPANION_FIGURES_PASSES)
    own = serve if serve.primary else figures
    companions = [p for p in (serve, search, figures) if p is not own]
    companions.append(SetupUnits(serve.session, SETUPS - 1))
    for p in (serve, search, figures):
        p.prepare()
    due = sorted(((j + 0.5) / c.units, i) for i, c in enumerate(companions)
                 for j in range(c.units))
    k = 0
    while not own.finished():
        while k < len(due) and due[k][0] <= own.progress():
            companions[due[k][1]].step()
            k += 1
        own.step(due[k][0] if k < len(due) else None)
    for _, i in due[k:]:
        companions[i].step()
    report = Report()
    serve.finish(report)
    search.finish(report, "companion search passes, seed 0")
    figures.finish(report, "paper_figures" if figures.primary
                   else "companion figure passes, seed 0")
    return report, serve.session


# ---------------------------------------------------------- traced run --

def scaling(ctx):
    """executor.<workload>.scaling_2t: each workload's pass time at 1
    thread over 2 (serve: rps at 2 threads over 1), on seed 0."""
    out = {}
    rps, replies = {}, {}
    for threads in (1, 2):
        s = ServeSession(ctx, 0, threads)
        s.setup(keep=True)
        s.slice(requests=SCALING_REPLIES)
        s.close()
        s.check(pinned=True)
        rps[threads] = s.rps()
        replies[threads] = [rep for _, rep in s.sent]
    ctx.tally.check(replies[1] == replies[2], "serve replies differ between 1 and 2 threads")
    out["executor.serve_predict.scaling_2t"] = rps[2] / rps[1]
    prepare_references(ctx.perfbench, [0], SEARCH_IDS + FIGURE_IDS)
    t = {th: run_pass(ctx, 0, SEARCH_IDS, th, th)[0] for th in (1, 2)}
    out["executor.precision_search.scaling_2t"] = t[1] / t[2]
    med = {th: statistics.median(run_pass(ctx, 0, FIGURE_IDS, th, k)[0] for k in range(10))
           for th in (1, 2)}
    out["executor.paper_figures.scaling_2t"] = med[1] / med[2]
    return out


def traced_layers(seed, ctx, session, outdir):
    """The per-layer metrics: the in-process suite plus what only a fresh
    process or the shipped binary can show."""
    lines_path = os.path.join(outdir, "serve_lines.jsonl")
    lat_path = os.path.join(outdir, "serve_latencies.txt")
    with open(lines_path, "w") as f:
        f.write("".join(line + "\n" for line in session.lines))
    with open(lat_path, "w") as f:
        f.write("".join(f"{v:.6f}\n" for v in session.lat))
    t0 = time.perf_counter()
    r = subprocess.run([ctx.perfbench, "trace", "--seed", str(seed), "--out", outdir,
                        "--serve-lines", lines_path, "--serve-latencies", lat_path],
                       cwd=ROOT, capture_output=True, text=True)
    ctx.spans.add("suite", seed, t0, time.perf_counter())
    metrics = {}
    if ctx.tally.check(r.returncode == 0, f"perfbench trace failed: {r.stderr.strip()[-300:]}"):
        for name, v in json.loads(r.stdout.strip().splitlines()[-1]).items():
            metrics[name] = (v["value"], v["unit"])
    # The suite rendered every scenario at this seed: check those too.
    prepare_references(ctx.perfbench, [seed], SEARCH_IDS + FIGURE_IDS)
    for sid in SEARCH_IDS + FIGURE_IDS:
        path = os.path.join(outdir, "scenarios", f"{sid}.json")
        got = None
        if os.path.isfile(path):
            with open(path, "rb") as f:
                got = f.read()
        ctx.tally.check(got is not None and got == expected_output(sid, seed, ctx.perfbench),
                        f"suite rendering of {sid} at seed {seed} differs")
    calib = []
    for _ in range(5):
        out = subprocess.run([ctx.perfbench, "tech"], cwd=ROOT, capture_output=True, text=True)
        if ctx.tally.check(out.returncode == 0, "perfbench tech failed"):
            calib.append(float(out.stdout.strip()))
    metrics["tech.calibrate_ms"] = (median(calib), "ms")
    for name, value in scaling(ctx).items():
        metrics[name] = (value, "ratio")
    return metrics


def untraced_median(workload, metric, seed):
    """Median of `metric` over this checkout's untraced results of
    `workload` at `seed` or, without any, at every seed, with a note of
    which; (None, None) without any at all. The seed matters: it draws the
    workload's inputs."""
    results = os.path.join(WORK, "results")
    names = sorted(os.listdir(results)) if os.path.isdir(results) else []
    for prefix, which in ((f"{workload}-seed{seed}-", f"seed {seed}"),
                          (f"{workload}-seed", "any seed")):
        values = []
        for name in names:
            if name.startswith(prefix) and name.endswith("-trace0.json"):
                with open(os.path.join(results, name)) as f:
                    values.append(json.load(f)["end_to_end"][metric]["value"])
        if values:
            return statistics.median(values), f"untraced runs at {which} (n={len(values)})"
    return None, None


# ----------------------------------------------------------------- main --

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 1 << 32 or args.seconds <= 0:
        ap.error("--seed must be in 0..2^32 and --seconds positive")

    bins = build()
    host = host_record()
    ctx = Ctx(bins, Tally(), Spans(args.trace == 1))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(WORK, "trace", tag)
    if args.trace:
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
    host_line = (f"host: {host['nproc']} cpus, {host['cpu_model']}, isa {host['isa']}, "
                 f"{host['rustc']}, commit {host['commit']}")

    t0 = time.perf_counter()
    report, session = run_workload(args.workload, args.seed, args.seconds, ctx)
    print(report.table(args.workload))
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host,
              "end_to_end": {k: {"value": v[0], "unit": END_TO_END[k], "n": len(v[1]),
                                 "sample_quartiles": dict(zip(("q1", "median", "q3"),
                                                              quartiles(v[1]))),
                                 "source": v[2], "sample": v[1]}
                             for k, v in report.values.items()}}
    if args.trace:
        own = {"serve_predict": "serve_rps", "paper_figures": "figures_ms"}[args.workload]
        traced_value = report.values[own][0]
        untraced, basis = untraced_median(args.workload, own, args.seed)
        overhead = (f"{(traced_value / untraced - 1) * 100:+.1f}% against the median "
                    f"{untraced:.4f} of this checkout's {basis}"
                    if untraced else "no untraced run in this checkout to compare with")
        print(f"tracing overhead: {args.workload} {own} = {traced_value:.4f} "
              f"{END_TO_END[own]} with spans on, {overhead}")
        layers = traced_layers(args.seed, ctx, session, outdir)
        ctx.spans.write(os.path.join(outdir, "client_spans.jsonl"))
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["tracing"] = {"metric": own, "traced_value": traced_value,
                             "untraced_median": untraced, "untraced_basis": basis,
                             "client_spans": len(ctx.spans.rows)}
        table = os.path.join(outdir, "table3_layers")
        if os.path.isfile(table + ".json"):
            with open(table + ".json") as f:
                rows = json.load(f)
            with open(table + ".json", "w") as f:
                json.dump(dict(rows, host=host), f, indent=1)
            with open(table + ".txt") as f:
                text = f.read()
            with open(table + ".txt", "w") as f:
                f.write(f"{host_line}\n\n{text}")
            print(f"per-layer Table III: {os.path.relpath(table, ROOT)}.json and .txt")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()
                   if math.isfinite(v)}
    else:
        metrics = {k: {"value": report.values[k][0], "unit": u}
                   for k, u in END_TO_END.items() if math.isfinite(report.values[k][0])}
    tally = ctx.tally
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.notes,
                  wall_s=time.perf_counter() - t0)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    print(f"ops {tally.attempted}, ops_failed {tally.failed}")
    print(host_line)
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": max(tally.attempted, 1), "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
