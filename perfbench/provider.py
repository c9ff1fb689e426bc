"""Fake OpenAI-style chat-completions provider on the loopback interface.

Run as its own process:

    python3 perfbench/provider.py --routes ROUTES.json --seed N --token T --port-file F

``ROUTES.json`` maps ``model -> sha256(user message) -> reply text``, as
written by ``gen.build_audit``. Each request sleeps a seeded latency drawn
from the request's own content, so the total wait of a run does not depend
on the order or concurrency of requests. Connections are served on
separate threads, so the provider never caps a client's concurrency.
``GET /stats`` returns the number of chat requests received. No faults are
injected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

LATENCY_S = (0.010, 0.030)  # uniform, mean 20 ms


def content_key(text: str) -> str:
    """Route key for one chat request: the digest of its user message."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def latency(seed: int, model: str, key: str) -> float:
    return random.Random(f"latency:{seed}:{model}:{key}").uniform(*LATENCY_S)


def make_server(routes: dict, seed: int, token: str) -> ThreadingHTTPServer:
    lock = threading.Lock()
    counter = {"requests": 0}

    class Handler(BaseHTTPRequestHandler):
        disable_nagle_algorithm = True

        def log_message(self, *args):
            pass

        def _reply(self, code: int, payload: dict) -> None:
            body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                return self._reply(404, {"error": "not found"})
            with lock:
                return self._reply(200, dict(counter))

        def do_POST(self):
            with lock:
                counter["requests"] += 1
            if self.headers.get("Authorization") != f"Bearer {token}":
                return self._reply(401, {"error": "bad credential"})
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            model = body.get("model", "")
            user = next((m["content"] for m in reversed(body.get("messages", []))
                         if m.get("role") == "user"), "")
            key = content_key(user)
            text = routes.get(model, {}).get(key)
            time.sleep(latency(seed, model, key))
            if text is None:
                return self._reply(404, {"error": f"no route for {model}"})
            self._reply(200, {
                "object": "chat.completion",
                "model": model,
                "choices": [{"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant", "content": text}}],
            })

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


class ProviderProcess:
    """Start the provider as a child process and stop it again."""

    def __init__(self, routes: Path, seed: int, token: str, workdir: Path):
        port_file = workdir / "provider.port"
        port_file.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--routes", str(routes),
             "--seed", str(seed), "--token", token, "--port-file", str(port_file)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("fake provider did not start")
            time.sleep(0.02)
        self.port = int(port_file.read_text())

    def requests(self) -> int:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as r:
            return json.loads(r.read())["requests"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--routes", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--token", required=True)
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args()
    routes = json.loads(Path(args.routes).read_text(encoding="utf-8"))
    server = make_server(routes, args.seed, args.token)
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    tmp = Path(args.port_file + ".tmp")
    tmp.write_text(str(server.server_address[1]))
    os.replace(tmp, args.port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
