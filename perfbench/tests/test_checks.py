"""The benchmark's checkers must pass on right outputs and fail on wrong
ones: a swapped label, a wrong centre, a flipped byte in a model
payload, a journal missing a key. Run with::

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checks  # noqa: E402
import grid  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import zoo  # noqa: E402


@pytest.fixture(scope="module")
def blobs():
    from repro.data import make_blobs

    X, _ = make_blobs(n_samples=60, centers=3, n_features=2, random_state=1)
    return X


@pytest.fixture(scope="module")
def kmeans(blobs):
    from repro.cluster import KMeans

    return KMeans(n_clusters=3, n_init=2, random_state=0).fit(blobs)


def test_ari_matches_library_and_known_values():
    from repro.metrics import adjusted_rand_index

    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 4, size=50)
        assert checks.ari(a, b) == pytest.approx(adjusted_rand_index(a, b))
    a = np.array([0, 0, 1, 1, 2, 2])
    assert checks.ari(a, a) == 1.0
    assert checks.ari(a, (a + 1) % 3) == 1.0  # label names do not matter
    assert checks.ari(a, np.array([0, 1, 0, 1, 0, 1])) < 0


def test_kmeans_check_passes_on_a_real_fit(blobs, kmeans):
    assert checks.check_kmeans("KMeans", blobs, kmeans.labels_,
                               kmeans.cluster_centers_, kmeans.inertia_) == []


def test_kmeans_check_fails_on_a_swapped_label(blobs, kmeans):
    labels = kmeans.labels_.copy()
    labels[0] = (labels[0] + 1) % 3
    assert checks.check_kmeans("KMeans", blobs, labels,
                               kmeans.cluster_centers_, kmeans.inertia_)


def test_kmeans_check_fails_on_a_wrong_centre(blobs, kmeans):
    centres = kmeans.cluster_centers_.copy()
    centres[1] += 0.5
    assert checks.check_kmeans("KMeans", blobs, kmeans.labels_, centres,
                               kmeans.inertia_)


def test_kmeans_check_fails_on_a_wrong_inertia(blobs, kmeans):
    assert checks.check_kmeans("KMeans", blobs, kmeans.labels_,
                               kmeans.cluster_centers_,
                               kmeans.inertia_ * 1.001)


def test_structure_check_fails_on_bad_outputs(blobs, kmeans):
    from repro.core import SubspaceCluster, SubspaceClustering

    n, d = blobs.shape
    assert checks.check_structure("KMeans", kmeans, n, d) == []

    class Fitted:
        pass

    short = Fitted()
    short.labels_ = kmeans.labels_[:-1]
    assert checks.check_structure("short", short, n, d)
    nan = Fitted()
    nan.labels_ = kmeans.labels_
    nan.centres_ = np.array([[0.0, np.nan]])
    assert checks.check_structure("nan", nan, n, d)
    subspace = Fitted()
    subspace.clusters_ = SubspaceClustering([SubspaceCluster([0, 1], [d])])
    assert checks.check_structure("subspace", subspace, n, d)
    assert checks.check_structure("empty", Fitted(), n, d)


def test_alternative_check_needs_the_hidden_view():
    rng = np.random.default_rng(3)
    given = rng.integers(0, 2, size=200)
    hidden = rng.integers(0, 2, size=200)
    assert checks.check_alternative("alt", hidden, hidden, given) == []
    assert checks.check_alternative("alt", given, hidden, given)
    swapped = hidden.copy()
    swapped[:60] = 1 - swapped[:60]
    assert checks.check_alternative("alt", swapped, hidden, given)


def test_hit_check_fails_on_a_flipped_payload_byte(kmeans):
    from repro.io import dumps, estimator_to_dict

    payload = {"model": estimator_to_dict(kmeans)}
    text = dumps(payload)
    assert checks.check_hit("hit", {"cached": True}, json.loads(text),
                            payload) == []
    assert checks.check_hit("hit", {"cached": False}, payload, payload)
    # flip one digit of the first centre coordinate
    at = text.index("cluster_centers_")
    at += next(i for i, c in enumerate(text[at:]) if c.isdigit() and
               c != "0")
    flipped = text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]
    assert flipped != text
    assert checks.check_hit("hit", {"cached": True}, json.loads(flipped),
                            payload)


def test_same_labels_check(kmeans):
    labels = kmeans.labels_
    assert checks.check_same_labels("m", labels, labels.copy()) == []
    other = labels.copy()
    other[5] = (other[5] + 1) % 3
    assert checks.check_same_labels("m", other, labels)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """A tiny serial sweep, its resume, and its journal directory."""
    from repro.experiments.harness import run_experiments
    from repro.robustness import RunJournal

    data = inputs.grid_inputs(6, seed=0)
    bodies = grid.Grid(data["grid"], spans.SpanLog(False))
    path = tmp_path_factory.mktemp("sweep")
    kwargs = {"shared_data": {"X": data["X"]},
              "base_seed": data["base_seed"]}
    ran = run_experiments(bodies.experiments(),
                          journal=RunJournal(path, resume=False), **kwargs)
    calls = bodies.calls
    resumed = run_experiments(bodies.experiments(),
                              journal=RunJournal(path), **kwargs)
    return data, ran, resumed, bodies.calls - calls, path


def _phases(ran, resumed, resume_bodies):
    return {"serial": (ran, resumed, resume_bodies),
            "pool": (ran, resumed, resume_bodies)}


def test_sweep_check_passes_on_a_real_sweep(sweep):
    from repro.robustness import RunJournal

    data, ran, resumed, bodies, path = sweep
    listed = RunJournal(path).completed_keys()
    assert checks.check_sweep(data["grid"], _phases(ran, resumed, bodies),
                              {"serial": listed, "pool": listed},
                              data["X"]) == []


def test_sweep_check_fails_on_a_journal_missing_a_key(sweep, tmp_path):
    from repro.robustness import RunJournal

    data, ran, resumed, bodies, path = sweep
    lines = (path / "journal.jsonl").read_text().splitlines()
    (tmp_path / "journal.jsonl").write_text("\n".join(lines[1:]) + "\n")
    listed = RunJournal(tmp_path).completed_keys()
    problems = checks.check_sweep(data["grid"],
                                  _phases(ran, resumed, bodies),
                                  {"serial": listed, "pool": listed},
                                  data["X"])
    assert any("journal lists" in p for p in problems)


def test_sweep_check_fails_on_a_changed_result(sweep):
    import copy

    data, ran, resumed, bodies, _ = sweep
    keys = set(data["grid"])
    changed = copy.deepcopy(ran)
    row = changed[0].table.rows[0]
    row["labels"] = list(row["labels"])
    row["labels"][0] = (row["labels"][0] + 1) % 2
    problems = checks.check_sweep(
        data["grid"], {"serial": (ran, resumed, bodies),
                       "pool": (changed, resumed, bodies)},
        {"serial": keys, "pool": keys}, data["X"])
    assert any("sse" in p for p in problems)
    assert any("results differ" in p for p in problems)


def test_sweep_check_fails_when_a_resume_runs_a_body(sweep):
    data, ran, resumed, _, _ = sweep
    keys = set(data["grid"])
    problems = checks.check_sweep(data["grid"], _phases(ran, resumed, 1),
                                  {"serial": keys, "pool": keys}, data["X"])
    assert any("resume ran" in p for p in problems)
    problems = checks.check_sweep(data["grid"], _phases(ran, ran, 0),
                                  {"serial": keys, "pool": keys}, data["X"])
    assert any("resume returned" in p for p in problems)


def test_zoo_covers_every_exported_estimator():
    assert len(zoo.estimators()) == 51
    data = inputs.warmup_inputs()
    for _, name, cls in zoo.estimators():
        assert zoo.fit_args(cls, data), name


def test_inputs_depend_only_on_the_seed():
    a, b = inputs.grid_inputs(8, 5), inputs.grid_inputs(8, 5)
    assert np.array_equal(a["X"], b["X"]) and a["grid"] == b["grid"]
    assert not np.array_equal(a["X"], inputs.grid_inputs(8, 6)["X"])
    small = inputs.request_dataset("small", 5, 0)
    assert small.shape == (798, 10)
    assert np.array_equal(small, inputs.request_dataset("small", 5, 0))
    assert not np.array_equal(small, inputs.request_dataset("small", 6, 0))
    assert not np.array_equal(small, inputs.request_dataset("small", 5, 1))
    assert inputs.request_dataset("large", 5, 0).shape == (400, 8)
