"""Output checkers, computed apart from the program under test.

Each checker returns a list of problem strings; an empty list is a
pass. They use plain NumPy only — never the library's own metrics — so
a bug in ``repro`` cannot make its own output look right.
"""

from __future__ import annotations

import math

import numpy as np

# Alternative-clustering estimators whose method promises, given view
# 1's partition, a clustering that is far from it; on the planted
# two-view data the only such structure is view 2. Each must reach
# ALT_FLOOR in ARI against the hidden view 2 and stay at or below
# ALT_CEILING against the given view 1.
ALTERNATIVES = (
    "ConditionalEnsembles",
    "MinCEntropy",
    "AlternativeClusteringViaTransformation",
    "OrthogonalAlternative",
)
ALT_FLOOR = 0.6
ALT_CEILING = 0.2

# fitted attributes that hold one label per object
_LABEL_VECTORS = ("labels_",)
_LABEL_LISTS = ("labelings_", "base_labelings_", "local_labelings_",
                "view_labels_", "view_labelings_")
_SUBSPACE_RESULTS = ("clusters_", "candidates_", "base_clusters_")


def ari(a, b):
    """Adjusted Rand index from a contingency table (Hubert & Arabie)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-d and of equal length")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)

    def pairs(x):
        x = np.asarray(x, dtype=np.float64)
        return float(np.sum(x * (x - 1) / 2.0))

    n = a.shape[0]
    total = n * (n - 1) / 2.0
    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / total if total else 0.0
    maximum = (rows + cols) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def sse(X, labels):
    """Within-cluster sum of squared distances to each cluster's mean."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    total = 0.0
    for c in np.unique(labels):
        members = X[labels == c]
        total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total


def nearest_centre(X, centres):
    """Index of the nearest centre for each row (squared Euclidean)."""
    X = np.asarray(X, dtype=np.float64)
    centres = np.asarray(centres, dtype=np.float64)
    d2 = ((X[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def check_nearest_centre(name, X, labels, centres):
    """Labels must be the nearest-centre assignment of their centres."""
    expected = nearest_centre(X, centres)
    wrong = int(np.sum(np.asarray(labels) != expected))
    if wrong:
        return [f"{name}: {wrong} label(s) differ from the nearest-centre "
                "assignment of its own centres"]
    return []


def check_kmeans(name, X, labels, centres, inertia):
    """KMeans: nearest-centre labels, and inertia equal to the SSE."""
    problems = check_nearest_centre(name, X, labels, centres)
    X = np.asarray(X, dtype=np.float64)
    own = float(np.sum((X - np.asarray(centres)[np.asarray(labels)]) ** 2))
    if not math.isclose(own, float(inertia), rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"{name}: inertia {inertia!r} != SSE to its own "
                        f"centres {own!r}")
    return problems


def _check_labels(name, attr, labels, n):
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"{name}.{attr}: shape {labels.shape}, expected ({n},)"]
    if labels.dtype.kind not in "iu":
        return [f"{name}.{attr}: dtype {labels.dtype} is not integral"]
    if labels.min() < -1:
        return [f"{name}.{attr}: label below -1 (noise)"]
    return []


def check_structure(name, estimator, n, d):
    """Structural validity of every fitted attribute of one estimator.

    Label vectors have length ``n``; fitted float arrays are finite;
    subspace clusters index objects in ``[0, n)`` and dimensions in
    ``[0, d)``. An estimator must expose at least one checked output.
    """
    problems = []
    checked = 0
    for attr, value in vars(estimator).items():
        if not attr.endswith("_") or attr.startswith("_") or value is None:
            continue
        if attr in _LABEL_VECTORS:
            checked += 1
            problems += _check_labels(name, attr, value, n)
        elif attr in _LABEL_LISTS:
            checked += 1
            if not len(value):
                problems.append(f"{name}.{attr}: empty")
            for i, labels in enumerate(value):
                problems += _check_labels(name, f"{attr}[{i}]", labels, n)
        elif attr in _SUBSPACE_RESULTS:
            checked += 1
            for cluster in value:
                objects = cluster.object_array()
                dims = cluster.dim_tuple()
                if objects.min() < 0 or objects.max() >= n:
                    problems.append(f"{name}.{attr}: object index out of "
                                    f"[0, {n})")
                if min(dims) < 0 or max(dims) >= d:
                    problems.append(f"{name}.{attr}: dimension index out "
                                    f"of [0, {d})")
        elif attr == "subspaces_":
            checked += 1
            if any(min(dims) < 0 or max(dims) >= d for dims in value):
                problems.append(f"{name}.{attr}: dimension index out of "
                                f"[0, {d})")
        elif isinstance(value, np.ndarray):
            checked += 1
            if value.dtype.kind == "f" and not np.all(np.isfinite(value)):
                problems.append(f"{name}.{attr}: non-finite values")
    if not checked:
        problems.append(f"{name}: no fitted output to check")
    return problems


def check_alternative(name, labels, hidden, given):
    """An alternative must find the hidden view, not the given one."""
    to_hidden = ari(hidden, labels)
    to_given = ari(given, labels)
    problems = []
    if not to_hidden >= ALT_FLOOR:
        problems.append(f"{name}: ARI {to_hidden:.3f} against the hidden "
                        f"view is below the floor {ALT_FLOOR}")
    if not to_given <= ALT_CEILING:
        problems.append(f"{name}: ARI {to_given:.3f} against the given "
                        f"view is above the ceiling {ALT_CEILING}")
    return problems


def check_sweep(keys, phases, journal_keys, X):
    """Checks of one grid run through every phase.

    ``phases`` maps a phase name (``serial``, ``pool``) to
    ``(outcomes, resume_outcomes, bodies_run_on_resume)``;
    ``journal_keys`` maps it to the ok keys a fresh journal lists.
    """
    keys = list(keys)
    problems = []
    results = {}
    for phase, (outcomes, resumed, resume_bodies) in phases.items():
        by_key = {o.key: o for o in outcomes}
        if sorted(by_key) != sorted(keys):
            problems.append(f"{phase}: outcome keys differ from the grid")
        bad = [k for k, o in by_key.items() if o.status != "ok"]
        if bad:
            problems.append(f"{phase}: {len(bad)} key(s) not ok, e.g. "
                            f"{bad[0]}")
        results[phase] = {k: o.table.rows[0] for k, o in by_key.items()
                          if o.status == "ok"}
        for key, row in results[phase].items():
            own = sse(X, row["labels"])
            if not math.isclose(own, row["sse"], rel_tol=1e-9,
                                abs_tol=1e-9):
                problems.append(f"{phase}: {key} reports sse {row['sse']!r}"
                                f", recomputed {own!r}")
                break
        listed = journal_keys.get(phase, set())
        if listed != set(keys):
            missing = sorted(set(keys) - listed)
            extra = sorted(listed - set(keys))
            problems.append(f"{phase}: journal lists {len(listed)} ok "
                            f"key(s); missing {missing[:3]}, extra "
                            f"{extra[:3]}")
        statuses = {o.status for o in resumed}
        if len(resumed) != len(keys) or statuses != {"skipped"}:
            problems.append(f"{phase}: resume returned statuses "
                            f"{sorted(statuses)} for {len(resumed)} key(s)")
        if resume_bodies:
            problems.append(f"{phase}: resume ran {resume_bodies} body "
                            "call(s)")
    phases_seen = list(results)
    for other in phases_seen[1:]:
        first = results[phases_seen[0]]
        for key in keys:
            if first.get(key) != results[other].get(key):
                problems.append(f"{key}: {phases_seen[0]} and {other} "
                                "results differ")
                break
    return problems


def check_same_labels(name, labels, reference):
    """A served model must label exactly like an in-process fit."""
    labels = np.asarray(labels)
    reference = np.asarray(reference)
    if labels.shape != reference.shape or not np.array_equal(labels,
                                                             reference):
        return [f"{name}: labels differ from the in-process fit"]
    return []


def check_hit(name, job, payload, cold_payload):
    """A repeat must be a cache hit serving the cold request's payload."""
    problems = []
    if not job.get("cached"):
        problems.append(f"{name}: repeat was not served from the cache")
    if payload != cold_payload:
        problems.append(f"{name}: cached payload differs from the cold one")
    return problems
