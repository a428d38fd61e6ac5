"""The sweep path: one grid through ``run_experiments``, twice.

Phase ``serial`` is ``jobs=1`` (the default of ``repro run``); phase
``pool`` is ``jobs=2``. Each phase journals to a fresh directory and is
then resumed once on its own journal. Every key is a small seeded
substrate fit on a shared array passed through ``shared_data``, so the
harness, ``RunGuard``, the journal and the pool dominate the time.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

import checks

POOL_JOBS = 2


def _estimator(algorithm, k, seed):
    from repro import cluster

    cls = getattr(cluster, algorithm)
    if algorithm == "GaussianMixtureEM":
        return cls(n_components=k, n_init=1, random_state=seed)
    if algorithm == "KMedoids":
        return cls(n_clusters=k, random_state=seed)
    return cls(n_clusters=k, n_init=1, random_state=seed)


class Grid:
    """Experiment bodies for one grid, with a count of body calls made
    in this process (a resume must make none)."""

    def __init__(self, grid, spans):
        self.grid = grid
        self.spans = spans
        self.calls = 0

    def body(self, algorithm, k):
        def run():
            from repro.experiments.harness import ResultTable
            from repro.robustness import experiment_seed, shared_arrays

            self.calls += 1
            X = shared_arrays()["X"]
            estimator = _estimator(algorithm, k, experiment_seed())
            with self.spans.span("body.fit", algorithm=algorithm):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    estimator.fit(X)
            labels = np.asarray(estimator.labels_)
            table = ResultTable(f"{algorithm} k={k}", ["labels", "sse"])
            table.add(labels=labels.tolist(), sse=checks.sse(X, labels))
            return table

        return run

    def experiments(self):
        return {key: self.body(*spec) for key, spec in self.grid.items()}


def _timed_journal_class(spans):
    """A ``RunJournal`` whose ``record`` calls are timed (traced runs)."""
    from repro.robustness import RunJournal

    class TimedJournal(RunJournal):
        def record(self, outcome):
            with spans.span("journal.record"):
                super().record(outcome)
            spans.count("journal.bytes_written", self.path.stat().st_size)

    return TimedJournal if spans.enabled else RunJournal


def _spawned():
    from repro.observability import default_registry

    return default_registry().counter("pool.workers.spawned").value


def run_grid(inputs, workdir, spans):
    """Run both phases and their resumes.

    Returns ``(seconds, outcomes, problems)``: wall time per phase,
    ``{phase: outcomes}`` and the checkers' problems.
    """
    from repro.experiments.harness import run_experiments
    from repro.robustness import RunJournal

    journal_cls = _timed_journal_class(spans)
    grid = Grid(inputs["grid"], spans)
    shared = {"X": inputs["X"]}
    seconds, phases, outcomes, journal_keys = {}, {}, {}, {}
    for phase, jobs in (("serial", 1), ("pool", POOL_JOBS)):
        path = workdir / phase
        spawned = _spawned()
        with spans.span(f"sweep.{phase}", jobs=jobs,
                        keys=len(inputs["grid"])):
            start = time.perf_counter()
            ran = run_experiments(
                grid.experiments(), jobs=jobs, shared_data=shared,
                base_seed=inputs["base_seed"],
                journal=journal_cls(path, resume=False))
            seconds[phase] = time.perf_counter() - start
        elapsed = sum(o.elapsed for o in ran)
        if phase == "serial":
            spans.count("guard.run_s", elapsed)
        else:
            spans.count("pool.task_s", elapsed)
            spans.count("pool.workers_spawned", _spawned() - spawned)
        with spans.span("journal.load"):
            journal_keys[phase] = RunJournal(path).completed_keys()
        calls, spawned = grid.calls, _spawned()
        with spans.span(f"sweep.{phase}.resume"):
            resumed = run_experiments(
                grid.experiments(), jobs=jobs, shared_data=shared,
                base_seed=inputs["base_seed"], journal=RunJournal(path))
        # a pool body runs in a worker, so a resume that ran any body
        # must have spawned one
        resume_bodies = grid.calls - calls + _spawned() - spawned
        phases[phase] = (ran, resumed, resume_bodies)
        outcomes[phase] = ran
    problems = checks.check_sweep(inputs["grid"], phases, journal_keys,
                                  inputs["X"])
    return seconds, outcomes, problems
