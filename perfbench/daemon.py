"""Spawns `infoflow serve` and drives it over its Unix socket from one
single-threaded client: one request outstanding (interactive) or one
64-line burst outstanding (bulk)."""

import json
import os
import socket
import subprocess
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


class Daemon:
    def __init__(self, binary, model, flags, sock_path, log_path):
        self.sock_path = sock_path
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.log = open(log_path, "ab")
        self.argv = [binary, "serve", "--model", model,
                     "--socket", sock_path] + flags
        self.t_spawn = time.perf_counter()
        # stdin stays an open pipe: closing it is the daemon's EOF/exit.
        self.proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        self.sock = None
        self.reader = None
        self.threads_peak = 0
        self.lines_answered = 0  # every response line read, any verb

    def wait_healthy(self, timeout_s=150.0):
        """Connects once the listener is up and returns the seconds from
        spawn to the first {"health":true} answer."""
        deadline = self.t_spawn + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with %d during set-up"
                                   % self.proc.returncode)
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.sock_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon not listening after %.0f s"
                                       % timeout_s)
                time.sleep(0.002)
        self.sock = s
        self.reader = s.makefile("rb")
        resp = json.loads(self.call('{"id":"h0","health":true}'))
        if not resp.get("ok") or "health" not in resp:
            raise RuntimeError("bad health answer: %r" % resp)
        return time.perf_counter() - self.t_spawn

    def call(self, line):
        self.sock.sendall(line.encode() + b"\n")
        return self.read_line()

    def read_line(self):
        raw = self.reader.readline()
        if not raw.endswith(b"\n"):
            raise RuntimeError("daemon closed the connection")
        self.lines_answered += 1
        return raw[:-1].decode()

    def timed_call(self, line):
        data = line.encode() + b"\n"
        t0 = time.perf_counter()
        self.sock.sendall(data)
        resp = self.read_line()
        return resp, time.perf_counter() - t0

    def burst(self, lines):
        """Writes all lines at once; returns the answers and the seconds
        from the write to the last answer."""
        data = ("\n".join(lines) + "\n").encode()
        t0 = time.perf_counter()
        self.sock.sendall(data)
        out = [self.read_line() for _ in lines]
        return out, time.perf_counter() - t0

    def stats(self):
        resp = json.loads(self.call('{"id":"s","stats":true}'))
        return resp.get("stats", {})

    def cpu_seconds(self):
        """User+sys CPU of every thread the daemon ran, live or exited."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def status_field(self, key):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        raise RuntimeError("no %s in /proc status" % key)

    def sample_threads(self):
        self.threads_peak = max(self.threads_peak,
                                self.status_field("Threads"))

    def stop(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode
