#!/usr/bin/env python3
"""The repository benchmark: build the program from source, run one workload.

    python3 hbftbench/run.py --workload cpu-epoch1k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the program and the
harness (hbftbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs rebuild incrementally. cpu-epoch1k,
echo-repair and fleet-storm run in the harness process (hbft_bench);
serve-echo starts `hbft_cli serve` and drives it over TCP from this process.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, from a run
that also records spans (name, start, end, parent) and writes them to
<build dir>/spans/<workload>-seed<seed>.json when it ends. A per-layer metric
of a layer the workload does not exercise reads 0. The line before it
records host facts. The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import random
import select
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cpu-epoch1k", "echo-repair", "fleet-storm", "serve-echo")


def fail(message):
    print("hbftbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configures and builds the harness and hbft_cli; returns the cmake dir."""
    cmake_dir = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return cmake_dir


def harness(cmake_dir, args, timeout=60):
    """Runs hbft_bench; returns (exit code, its JSON result or None)."""
    try:
        done = subprocess.run(
            [os.path.join(cmake_dir, "hbft_bench")] + args,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail("hbft_bench %s did not finish within %d s" % (" ".join(args), timeout))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


# --- serve-echo: a closed-loop client of `hbft_cli serve` ---------------------

FRAME_REQUEST = 1
FRAME_RESPONSE = 2
HEADER = struct.Struct("<BBQQI")  # type, flags, client_id, seq, payload_len
SETUP_SPAWNS = 5
WARMUP_REQUESTS = 10
PASS_REQUESTS = 25
CLIENT_ID = 0x4862 << 16


class Spans:
    """In-memory spans (name, start, end, parent), written once at the end."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.open = []

    def begin(self, name):
        if not self.enabled:
            return -1
        span = {"id": len(self.spans), "parent": self.open[-1] if self.open else -1,
                "name": name, "start_s": time.perf_counter(), "end_s": None}
        self.spans.append(span)
        self.open.append(span["id"])
        return span["id"]

    def end(self, span_id):
        if span_id >= 0:
            self.spans[span_id]["end_s"] = time.perf_counter()
            self.open.pop()


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def server_cpu_s(pid):
    """CPU time of every thread of `pid`, from schedstat (nanoseconds)."""
    total = 0
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        with open(os.path.join(task_dir, tid, "schedstat")) as f:
            total += int(f.read().split()[0])
    return total * 1e-9


def server_peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def start_server(cli, seed, spans):
    """Starts `hbft_cli serve`; returns (process, connected socket, ready
    seconds). Readiness is the server's "listening on" note, read as it is
    written, then the accepted connection."""
    port = free_port()
    span = spans.begin("serve.spawn")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [cli, "serve", "--port=%d" % port, "--seed=%d" % seed, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    noted = b""
    while b"listening on" not in noted:
        ready, _, _ = select.select([proc.stderr], [], [], 30.0)
        chunk = os.read(proc.stderr.fileno(), 4096) if ready else b""
        if not chunk:
            proc.kill()
            proc.wait()
            fail("serve did not start listening: " + noted.decode(errors="replace"))
        noted += chunk
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    ready_s = time.perf_counter() - start
    spans.end(span)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(10.0)
    return proc, sock, ready_s


def stop_server(proc, sock):
    """Ends the session with SIGTERM; returns the server's JSON report."""
    sock.close()
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    try:
        return json.loads(out.decode())
    except ValueError:
        return None


def request_payload(seed, seq):
    """Request `seq`'s unique payload: an 8-byte sequence tag, then bytes drawn
    from the seed. Lengths cycle through one fixed set, so every seed sends
    the same number of bytes."""
    rng = random.Random(seed * 1000003 + seq)
    length = 24 + 8 * (seq % 8)
    return struct.pack("<Q", seq) + bytes(rng.getrandbits(8) for _ in range(length - 8))


class Client:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def call(self, seq, payload):
        """Sends one request and waits for its response; returns (seq, payload)."""
        body = HEADER.pack(FRAME_REQUEST, 0, CLIENT_ID, seq, len(payload)) + payload
        self.sock.sendall(struct.pack("<I", len(body)) + body)
        while True:
            if len(self.buf) >= 4:
                (n,) = struct.unpack("<I", self.buf[:4])
                if len(self.buf) >= 4 + n:
                    body, self.buf = self.buf[4:4 + n], self.buf[4 + n:]
                    ftype, _flags, client, rseq, plen = HEADER.unpack(body[:HEADER.size])
                    data = body[HEADER.size:]
                    if ftype == FRAME_RESPONSE and client == CLIENT_ID and plen == len(data):
                        return rseq, data
                    continue
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk


def serve_echo(cmake_dir, args, spans):
    cli = os.path.join(cmake_dir, "hbft", "hbft_cli")
    errors = []
    # Set-up: process spawn until the listener accepts, several times; the
    # last server is the one measured.
    ready = []
    for k in range(SETUP_SPAWNS):
        proc, sock, ready_s = start_server(cli, args.seed, spans)
        ready.append(ready_s)
        if k < SETUP_SPAWNS - 1:
            stop_server(proc, sock)

    client = Client(sock)
    corrupt_seq = WARMUP_REQUESTS + 3 if args.corrupt == "payload" else None
    answered = set()
    sent = 0
    failed = 0
    latencies = []
    pass_wall = []
    pass_cpu = []
    timed_wall = 0.0
    timed_requests = 0

    def one_request(record):
        nonlocal sent, failed
        seq = sent + 1
        span = spans.begin("serve.request")
        t0 = time.perf_counter()
        sent += 1
        payload = request_payload(args.seed, seq)
        expected = payload if seq != corrupt_seq else payload[:-1] + b"?"
        try:
            rseq, data = client.call(seq, payload)
        except (OSError, ConnectionError) as e:
            failed += 1
            errors.append("request %d: %s" % (seq, e))
            spans.end(span)
            return False
        latency = time.perf_counter() - t0
        spans.end(span)
        if rseq != seq or data != expected or seq in answered:
            errors.append("request %d answered with seq %d and %s payload" %
                          (seq, rseq, "its own" if data == payload else "another"))
        answered.add(rseq)
        if record:
            latencies.append(latency)
        return True

    try:
        span = spans.begin("pass.warmup")
        ok = all(one_request(False) for _ in range(WARMUP_REQUESTS))
        spans.end(span)
        start = time.perf_counter()
        while ok and (len(pass_wall) < 3 or time.perf_counter() - start < args.seconds):
            span = spans.begin("pass")
            cpu0 = server_cpu_s(proc.pid)
            t0 = time.perf_counter()
            for _ in range(PASS_REQUESTS):
                ok = ok and one_request(True)
            wall = time.perf_counter() - t0
            pass_cpu.append(server_cpu_s(proc.pid) - cpu0)
            spans.end(span)
            pass_wall.append(wall)
            timed_wall += wall
            timed_requests += PASS_REQUESTS
        session_cpu = server_cpu_s(proc.pid)
        peak_rss = server_peak_rss_mb(proc.pid)
    finally:
        report = stop_server(proc, sock)
    if not pass_wall:
        fail("serve-echo completed no timed pass: " + "; ".join(errors))

    if report is None:
        errors.append("serve printed no JSON report")
        report = {}
    elif not (report.get("requests") == report.get("responses") == sent):
        errors.append("serve counted %s requests and %s responses; the client sent %d" %
                      (report.get("requests"), report.get("responses"), sent))
    responses = max(1, report.get("responses", 0))
    metrics = {
        "setup_s": (statistics.median(ready), "s"),
        "run_s": (statistics.median(pass_wall), "s"),
        "cpu_s": (statistics.median(pass_cpu), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "req_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "req_tail_ms": (tail(latencies) * 1e3, "ms"),
        "serve_rps": (timed_requests / timed_wall, "1/s"),
        "cpu_ms_per_req": (sum(pass_cpu) / timed_requests * 1e3, "ms"),
        "serve.ready_ms": (statistics.median(ready) * 1e3, "ms"),
        "serve.epochs_per_req": (report.get("epochs", 0) / responses, "count"),
        "serve.messages_per_req": (report.get("messages_sent", 0) / responses, "count"),
        "serve.repl_bytes_per_req": (
            sum(ch.get("bytes_on_wire", 0) for ch in report.get("channels", [])) / responses,
            "bytes"),
        "serve.cpu_ms_per_epoch": (session_cpu * 1e3 / max(1, report.get("epochs", 0)), "ms"),
    }
    result = {
        "correct": not errors,
        "attempted": sent,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": errors,
    }
    if args.trace:
        _, probe = harness(cmake_dir, ["--workload=serve-build", "--seed=%d" % args.seed,
                                       "--trace=1"])
        if probe is not None:
            result["metrics"]["sim.build_world_ms"] = probe["metrics"]["sim.build_world_ms"]
    return result


def tail(samples):
    """The highest order statistic with at least ten samples beyond it; the
    median below forty samples, where that would be no tail."""
    if len(samples) < 40:
        return statistics.median(samples)
    return sorted(samples)[-11]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", choices=("checksum", "payload"), default=None,
                        help="test hook: expect a wrong value, so the run must fail")
    args = parser.parse_args()

    if "HBFT_INTERP" in os.environ:
        fail("refusing to measure with HBFT_INTERP set: the benchmark measures the "
             "program's default interpreter")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    cmake_dir = build()

    code, facts = harness(cmake_dir, ["--host-facts"])
    if code != 0 or facts is None or not facts.get("optimized"):
        fail("refusing to measure: the harness build is not optimised")
    print(json.dumps({"host": facts}))

    spans_path = os.path.join(build_dir(), "spans", "%s-seed%d.json" % (args.workload, args.seed))
    if args.trace:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    if args.workload == "serve-echo":
        if args.corrupt == "checksum":
            fail("serve-echo has no checksum to corrupt; use --corrupt payload")
        spans = Spans(bool(args.trace))
        result = serve_echo(cmake_dir, args, spans)
        if args.trace:
            with open(spans_path, "w") as f:
                json.dump(spans.spans, f)
        code = 0 if result["correct"] and result["failed"] == 0 else 1
    else:
        flags = ["--workload=" + args.workload, "--seed=%d" % args.seed,
                 "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
        if args.trace:
            flags.append("--spans=" + spans_path)
        if args.corrupt:
            flags.append("--corrupt=" + args.corrupt)
        code, result = harness(cmake_dir, flags, timeout=170)
        if result is None:
            fail("the harness printed no result (exit code %d)" % code)

    for error in result.get("errors", []):
        print("hbftbench: check failed: " + error, file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in result["metrics"]:
            metrics[m["name"]] = result["metrics"][m["name"]]
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("workload %s did not measure %s" % (args.workload, m["name"]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(code)


if __name__ == "__main__":
    main()
