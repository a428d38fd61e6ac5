"""The served path: ``repro serve --jobs 2`` driven by one closed-loop
client through the shipped ``ServeClient``.

Two request classes: ``small`` (KMeans, a few KB model, fit-bound when
cold) and ``large`` (SpectralClustering, a model of about 3 MB whose
cold and cached requests are dominated by the codec, the checksum and
registry I/O). Each cold request is followed by cache-hit repeats of
itself, and the classes are interleaved.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import inputs as inputs_mod

#: Client poll interval (s): well below the shortest cold latency
#: (about 0.2 s), so polling does not quantise the latency.
POLL_SECONDS = 0.005
REPLAYS = 3
CLASSES = {
    "small": (inputs_mod.SMALL_ESTIMATOR, inputs_mod.SMALL_PARAMS),
    "large": (inputs_mod.LARGE_ESTIMATOR, inputs_mod.LARGE_PARAMS),
}


class Server:
    """One ``repro serve`` subprocess with a fresh cache directory."""

    def __init__(self, root, cache_dir, log_path):
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(root / "src"))
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "2",
             "--port", "0", "--cache-dir", str(cache_dir)],
            cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True)
        self.url = None

    def wait_ready(self):
        """Block until ``/healthz`` answers; returns self."""
        from repro.serve import ServeClient

        line = self.process.stdout.readline()
        match = re.search(r"(http://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = match.group(1)
        client = ServeClient(self.url, retries=50, backoff=0.01,
                             max_backoff=0.1, seed=0)
        client.healthz()
        return self

    def children(self):
        """Live child pids (pool workers) of the server."""
        pids = []
        for task in os.listdir(f"/proc/{self.process.pid}/task"):
            try:
                with open(f"/proc/{self.process.pid}/task/{task}/children",
                          encoding="ascii") as fh:
                    pids += fh.read().split()
            except OSError:
                continue
        return pids

    def cpu_seconds(self):
        """User+system CPU of the server and its reaped workers."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = sum(int(v) for v in fields[11:15])  # utime..cstime
        return ticks / os.sysconf("SC_CLK_TCK")

    def settled_cpu_seconds(self, timeout=10.0):
        """CPU once every pool worker has been reaped."""
        deadline = time.monotonic() + timeout
        while self.children() and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.cpu_seconds()

    def stop(self):
        """SIGTERM (the server drains, then exits) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def _client(url, spans):
    from repro.serve import ServeClient

    if not spans.enabled:
        return ServeClient(url, seed=0)

    class TracedClient(ServeClient):
        """Times each call into the client and counts polls."""

        polls = 0
        done_seen_at = None

        def submit(self, *args, **kwargs):
            with spans.span("http.submit"):
                return super().submit(*args, **kwargs)

        def get_job(self, job_id):
            self.polls += 1
            with spans.span("http.poll"):
                status, job = super().get_job(job_id)
            if job is not None and job.get("status") in ("done", "failed"):
                self.done_seen_at = time.time()
            return status, job

        def get_model(self, key):
            with spans.span("http.model_fetch"):
                return super().get_model(key)

    return TracedClient(url, seed=0)


def _reference_fit(cls_name, params, X, seed):
    from repro.serve.scheduler import servable_estimators

    cls = servable_estimators()[cls_name]
    return cls(**params, random_state=seed).fit(X)


class Traffic:
    """The client side of the request mix, across the rounds of a run."""

    def __init__(self, server, seed, mix, spans):
        self.server = server
        self.seed = seed
        self.mix = mix
        self.spans = spans
        self.client = _client(server.url, spans)
        self.next_seed = inputs_mod.request_seed_base(seed)
        self.colds = {cls: 0 for cls in CLASSES}
        self.latency = {f"{c}_{kind}": [] for c in CLASSES
                        for kind in ("cold", "hit")}
        self.layers = {c: {} for c in CLASSES}
        self.cpu = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_cold = {}

    def _layer(self, cls, name, value):
        self.layers[cls].setdefault(name, []).append(value)

    def _request(self, cls, rows, seed, kind):
        """One request through ``ServeClient.fit``; returns
        ``(job, payload)`` or ``(None, None)`` when it failed. ``rows``
        is the dataset as lists, built outside the timed call."""
        estimator, params = CLASSES[cls]
        self.attempted += 1
        client = self.client
        if self.spans.enabled:
            client.polls, client.done_seen_at = 0, None
        with self.spans.span(f"request.{cls}.{kind}", seed=seed) as span:
            start = time.perf_counter()
            try:
                job, payload = client.fit(estimator, rows,
                                          params=params, seed=seed,
                                          poll=POLL_SECONDS)
            except Exception as exc:  # counted as a failed operation
                self.failed += 1
                self.problems.append(f"{cls} {kind} seed {seed}: {exc}")
                return None, None
            elapsed = time.perf_counter() - start
            if job.get("status") != "done" or payload is None:
                self.failed += 1
                self.problems.append(f"{cls} {kind} seed {seed}: job "
                                     f"{job.get('status')} {job.get('error')}")
                return None, None
            self.latency[f"{cls}_{kind}"].append(elapsed)
            if kind == "cold" and self.spans.enabled:
                self._cold_layers(cls, job, span)
        return job, payload

    def _cold_layers(self, cls, job, span):
        """Job-side numbers of one cold request, from its public record."""
        metrics = job.get("metrics", {})
        run_s = float(metrics.get("seconds", 0.0))
        records = (job.get("trace") or {}).get("records", [])
        queue_s = 0.0
        for rec in records:
            if rec.get("name") == "scheduler":
                queue_s = float(rec.get("attrs", {}).get("queue_seconds", 0))
        wall = job["finished_at"] - job["submitted_at"]
        self._layer(cls, "job.fit_ms", 1e3 * float(metrics["fit_seconds"]))
        self._layer(cls, "job.run_ms", 1e3 * run_s)
        self._layer(cls, "scheduler.queue_ms", 1e3 * queue_s)
        self._layer(cls, "scheduler.dispatch_ms",
                    1e3 * (wall - queue_s - run_s))
        self._layer(cls, "client.polls", self.client.polls)
        if self.client.done_seen_at is not None:
            self._layer(cls, "client.poll_slack_ms",
                        1e3 * (self.client.done_seen_at - job["finished_at"]))
        self.spans.adopt(records, span)

    def _check_cold(self, cls, X, seed, payload):
        from repro.io import estimator_from_dict

        estimator, params = CLASSES[cls]
        served = estimator_from_dict(payload["model"])
        reference = _reference_fit(estimator, params, X, seed)
        name = f"{cls} cold seed {seed}"
        self.problems += checks.check_same_labels(name, served.labels_,
                                                  reference.labels_)
        if cls == "small":
            self.problems += checks.check_nearest_centre(
                name, X, served.labels_, served.cluster_centers_)
        self.first_cold.setdefault(cls, (seed, X, reference))

    def round(self):
        """One round of the mix, classes interleaved by seed."""
        mix = self.mix
        cpu_start = self.server.settled_cpu_seconds()
        for i in range(max(mix.small_colds, mix.large_colds)):
            group = []
            for cls, colds, hits in (("small", mix.small_colds,
                                      mix.small_hits),
                                     ("large", mix.large_colds,
                                      mix.large_hits)):
                if i < colds:
                    seed = self.next_seed
                    self.next_seed += 1
                    X = inputs_mod.request_dataset(cls, self.seed,
                                                   self.colds[cls])
                    self.colds[cls] += 1
                    rows = X.tolist()
                    job, payload = self._request(cls, rows, seed, "cold")
                    if job is not None and job.get("cached"):
                        self.problems.append(f"{cls} cold seed {seed} was "
                                             "served from the cache")
                    group.append((cls, X, rows, seed, hits, payload))
            for j in range(max(entry[4] for entry in group)):
                for cls, _, rows, seed, hits, payload in group:
                    if j < hits and payload is not None:
                        job, hit = self._request(cls, rows, seed, "hit")
                        if job is not None:
                            self.problems += checks.check_hit(
                                f"{cls} hit seed {seed}", job, hit, payload)
            for cls, X, _, seed, _, payload in group:
                if payload is not None:
                    self._check_cold(cls, X, seed, payload)
        self.cpu.append(self.server.settled_cpu_seconds() - cpu_start)

    def replay(self, workdir):
        """Codec and registry stages of each class, in process.

        Replays what a served job does with its model through the
        public functions, on the same inputs, ``REPLAYS`` times.
        """
        from repro.io import (dumps, estimator_from_dict, estimator_to_dict,
                              payload_checksum)
        from repro.serve.registry import (ModelRegistry, dataset_fingerprint,
                                          model_key)

        registry = ModelRegistry(workdir / "replay")
        for cls, (seed, X, estimator) in self.first_cold.items():
            for rep in range(REPLAYS):
                stages = {}

                def timed(stage, fn, *args):
                    start = time.perf_counter()
                    result = fn(*args)
                    stages[stage] = 1e3 * (time.perf_counter() - start)
                    return result

                fingerprint = timed("registry.fingerprint_ms",
                                    dataset_fingerprint, X)
                name, params = CLASSES[cls]
                key = model_key(fingerprint, name,
                                dict(params, random_state=seed), seed)
                model = timed("io.encode_ms", estimator_to_dict, estimator)
                payload = {"key": key, "fingerprint": fingerprint,
                           "estimator": name, "seed": seed, "model": model}
                timed("io.checksum_ms", payload_checksum, payload)
                timed("registry.put_ms", registry.put, key, payload)
                timed("registry.verify_ms", registry.verify, key)
                timed("registry.get_ms", registry.get, key)
                timed("io.decode_ms", estimator_from_dict, model)
                for stage, value in stages.items():
                    self._layer(cls, stage, value)
            self._layer(cls, "io.model_bytes",
                        len(dumps(payload).encode("utf-8")))


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def latency_metrics(latency):
    """End-to-end latency metrics (ms) of one run."""
    ms = {k: [1e3 * v for v in vals] for k, vals in latency.items()}
    return {
        "small_cold_p50_ms": statistics.median(ms["small_cold"]),
        "large_cold_p50_ms": statistics.median(ms["large_cold"]),
        "small_hit_p50_ms": statistics.median(ms["small_hit"]),
        "small_hit_p90_ms": percentile(ms["small_hit"], 90),
        "large_hit_p50_ms": statistics.median(ms["large_hit"]),
    }
