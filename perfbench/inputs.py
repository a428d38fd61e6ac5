"""Workload definitions and the inputs each one generates from its seed.

Every run of the benchmark drives the three ways this library produces
many clusterings of one dataset: fitting the estimator zoo in process,
sweeping a grid through ``run_experiments``, and asking ``repro serve``.
A workload is the set of inputs for those three paths: ``fit-sweep``
gives the zoo and the grid the bulk of the work and the served path a
small share, ``serve-mix`` the reverse. Every metric is measured on
every workload, and each layer does most of its work in one of them
(see README.md).

Nothing here touches the program under test except the data
generators of ``repro.data``; every array and request seed is a pure
function of the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default workload seed (the README quotes it).
DEFAULT_SEED = 0
#: Seed of the pinned zoo inputs (see :func:`zoo_inputs`).
ZOO_SEED = 0


@dataclass(frozen=True)
class Mix:
    """One round of ``repro serve`` traffic, per request class.

    ``*_colds`` distinct requests are sent per round; each cold request
    is followed by ``*_hits`` repeats of itself, interleaved with the
    other class so registry writes and reads sit side by side.
    """

    small_colds: int
    small_hits: int
    large_colds: int
    large_hits: int


@dataclass(frozen=True)
class Workload:
    name: str
    zoo_rows: int     # rows of the planted two-view dataset the zoo fits
    grid_keys: int    # keys of the run_experiments grid
    mix: Mix          # serve traffic of one round


# Two workloads: the in-process paths heavy and the served one light, and
# the reverse. The light shares still give every metric enough samples
# (two rounds always hold >= 140 small hits, so at least 14 lie beyond
# the p90; at 120 the p90 of fit-sweep spread by 0.32 over ten runs).
WORKLOADS = {
    w.name: w for w in (
        Workload("fit-sweep", zoo_rows=300, grid_keys=240,
                 mix=Mix(small_colds=4, small_hits=25, large_colds=1,
                         large_hits=2)),
        Workload("serve-mix", zoo_rows=40, grid_keys=128,
                 mix=Mix(small_colds=6, small_hits=12, large_colds=2,
                         large_hits=2)),
    )
}

# request classes of the serve path
SMALL_ESTIMATOR = "KMeans"
SMALL_PARAMS = {"n_clusters": 6, "n_init": 80}
LARGE_ESTIMATOR = "SpectralClustering"
LARGE_PARAMS = {"n_clusters": 4}

# grid bodies: small seeded substrate fits, cycled over keys
GRID_ALGORITHMS = ("KMeans", "GaussianMixtureEM", "KMedoids", "FuzzyCMeans")
GRID_CLUSTERS = (2, 3, 4)
GRID_ROWS = 60
GRID_FEATURES = 4


def _rng(seed, stream):
    """Independent generator for one named input stream of a seed."""
    return np.random.default_rng([int(seed), stream])


def zoo_inputs(rows):
    """The planted two-view dataset and everything derived from it.

    Pinned, like the estimators' ``random_state``: it does not depend on
    the workload seed. The work an iterative estimator does swings by
    2-5x across datasets and restarts (ADCOAlternative alone from 2.5 s
    to 13 s at 400 rows), so a seed-drawn zoo input would make ``fit_s``
    measure the seed rather than the code.

    Returns a dict with ``X`` (rows x 8: two 4-feature views, two
    clusters per view), ``truths`` (view 1's and view 2's partitions),
    ``views`` (the two column blocks), ``given`` (view 1's partition),
    ``candidates``/``known`` (one subspace cluster per planted
    cluster) and ``labelings`` (the two truths, for ensembles).
    """
    from repro.core.subspace import SubspaceCluster
    from repro.data import make_multiple_truths

    X, truths, view_features = make_multiple_truths(
        n_samples=rows, n_views=2, clusters_per_view=2, features_per_view=4,
        random_state=int(_rng(ZOO_SEED, 1).integers(2**31)))
    candidates = [
        SubspaceCluster(np.flatnonzero(truth == c), dims, quality=1.0)
        for truth, dims in zip(truths, view_features)
        for c in np.unique(truth)
    ]
    return {
        "X": X,
        "truths": truths,
        "views": [X[:, list(dims)] for dims in view_features],
        "view_features": view_features,
        "given": truths[0],
        "candidates": candidates,
        "known": candidates[:1],
        "labelings": [truths[0].copy(), truths[1].copy()],
        "random_state": int(_rng(ZOO_SEED, 2).integers(2**31)),
    }


def grid_inputs(n_keys, seed):
    """The shared array and the ordered key -> (algorithm, k) grid."""
    from repro.data import make_blobs

    X, _ = make_blobs(n_samples=GRID_ROWS, centers=3,
                      n_features=GRID_FEATURES,
                      random_state=int(_rng(seed, 3).integers(2**31)))
    grid = {}
    for i in range(n_keys):
        algorithm = GRID_ALGORITHMS[i % len(GRID_ALGORITHMS)]
        k = GRID_CLUSTERS[(i // len(GRID_ALGORITHMS)) % len(GRID_CLUSTERS)]
        grid[f"{algorithm}-k{k}-{i:04d}"] = (algorithm, k)
    return {"X": X, "grid": grid,
            "base_seed": int(_rng(seed, 4).integers(2**31))}


# rows per centre, features, centres, spread of the centres
REQUEST_SHAPES = {"small": (133, 10, 6, 6.0), "large": (100, 8, 4, 5.0)}


def request_seed_base(seed):
    """First request seed of a run.

    Request ``i`` of a run uses seed ``base + i``, so cold requests never
    collide with each other or with an earlier cache entry.
    """
    return int(_rng(seed, 5).integers(2**30))


def request_dataset(cls, seed, index):
    """Blobs for cold request ``index`` of class ``cls`` (and its hits).

    Each cold request gets its own dataset, so a run's median spans many
    datasets rather than resting on one.
    """
    per_centre, features, centres, spread = REQUEST_SHAPES[cls]
    rng = np.random.default_rng([int(seed), 6, list(REQUEST_SHAPES).index(cls),
                                 index])
    centers = rng.normal(scale=spread, size=(centres, features))
    X = np.concatenate([rng.normal(size=(per_centre, features)) + c
                        for c in centers])
    return X[rng.permutation(len(X))]


def warmup_inputs():
    """Tiny fixed inputs that warm every code path before timing."""
    return zoo_inputs(30)
