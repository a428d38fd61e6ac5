"""The in-process path: fit every exported estimator once, in order.

Cheap fits are repeated until at least ``MIN_FIT_SECONDS`` of work has
been timed, so no estimator's time is timer noise; a run takes each
estimator's per-fit time as the median of all its fits in all rounds.
"""

from __future__ import annotations

import importlib
import inspect
import time
import warnings

import numpy as np

import checks

PACKAGES = ("repro.cluster", "repro.originalspace", "repro.subspace",
            "repro.multiview", "repro.transform")
MIN_FIT_SECONDS = 0.03
MAX_REPEATS = 50


def estimators():
    """``[(package, name, class)]`` of every exported estimator, in a
    fixed order (package order above, then each ``__all__``)."""
    out = []
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) and hasattr(obj, "fit"):
                out.append((package.split(".")[1], name, obj))
    return out


def fit_args(cls, data):
    """Positional ``fit`` arguments for ``cls`` on one zoo input."""
    params = [p for p in inspect.signature(cls.fit).parameters
              if p != "self"]
    first, rest = params[0], params[1:]
    if cls.__name__ == "ConditionalInformationBottleneck":
        # the information bottleneck models X as co-occurrence counts
        X = data["X"]
        return [X - X.min(axis=0) + 0.1, data["given"]]
    if first == "X":
        args = [data["X"]]
        if rest and rest[0] in ("given", "labels"):
            args.append(data["given"])
        return args
    if first == "views":
        return [data["views"]]
    if first == "labelings":
        return [data["labelings"]]
    if first == "candidates":
        args = [data["candidates"]]
        if rest and rest[0] == "known":
            args.append(data["known"])
        return args
    raise ValueError(f"{cls.__name__}: unknown fit family {first!r}")


def construct(cls, data):
    params = cls().get_params()
    if "random_state" in params:
        return cls(random_state=data["random_state"])
    return cls()


def fit_once(cls, data):
    estimator = construct(cls, data)
    args = fit_args(cls, data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        estimator.fit(*args)
        return estimator, time.perf_counter() - start


def run_zoo(data, spans):
    """Fit the zoo on one input.

    Returns ``(samples, fitted, failures)``: per-estimator seconds of
    every timed fit, the first fitted instance of each, and ``{name:
    error}`` for fits that raised.
    """
    times, fitted, failures = {}, {}, {}
    histogram = np.histogram
    counting = [False]  # count calls of first fits only, not repeats
    if spans.enabled:
        # density profiles (ADCO) are built from numpy.histogram calls
        def counting_histogram(*args, **kwargs):
            if counting[0]:
                spans.count("numpy.histogram_calls")
            return histogram(*args, **kwargs)

        np.histogram = counting_histogram
    try:
        for package, name, cls in estimators():
            with spans.span(f"fit.{name}", package=package):
                counting[0] = True
                try:
                    estimator, seconds = fit_once(cls, data)
                except Exception as exc:  # counted as a failed operation
                    failures[name] = f"{type(exc).__name__}: {exc}"
                    continue
                finally:
                    counting[0] = False
                samples = [seconds]
                while (sum(samples) < MIN_FIT_SECONDS
                       and len(samples) < MAX_REPEATS):
                    samples.append(fit_once(cls, data)[1])
            times[name] = samples
            fitted[name] = estimator
    finally:
        np.histogram = histogram
    return times, fitted, failures


def check_zoo(data, fitted):
    """Structural checks on every fit, plus KMeans and alternatives."""
    X = data["X"]
    n, d = X.shape
    problems = []
    for name, estimator in fitted.items():
        problems += checks.check_structure(name, estimator, n, d)
    kmeans = fitted.get("KMeans")
    if kmeans is not None:
        problems += checks.check_kmeans("KMeans", X, kmeans.labels_,
                                        kmeans.cluster_centers_,
                                        kmeans.inertia_)
    for name in checks.ALTERNATIVES:
        if name in fitted:
            problems += checks.check_alternative(
                name, fitted[name].labels_, data["truths"][1],
                data["truths"][0])
    return problems
