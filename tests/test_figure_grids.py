"""Pin the grid every grid-shaped figure command runs.

Each figure's grid is captured by replacing ``figures.run_grid`` with a
recorder that raises, and the ordered ``(label, cache key)`` list is
hashed.  The code fingerprint is fixed, so a digest moves only when a
figure builds different cells: a figure-layer refactor must keep them,
or every cached result of that figure goes cold.
"""

import hashlib

import pytest

from repro.cli import QUICK_WORKLOADS
from repro.experiments import figures, parallel
from repro.experiments import results_cache as rc

GRID_DIGESTS = {
    "fig2": "a011dee2e3eb96cd36a4d323b58360acaaac1d49c788e0cb4b2df5e78631ad99",
    "fig7": "fd14507d9fea496007f6c38426d5aeac5965faa5ef2b1116ec1eb7fe754f6851",
    "fig8": "506e336a87f6158489067939b68d3ab460180dfbc1c9795f1e7fe3e06b8f0afc",
    "fig9": "506e336a87f6158489067939b68d3ab460180dfbc1c9795f1e7fe3e06b8f0afc",
    "fig10": "6986208d984e36e6a8cef6c746f14df22f218a80381051961764876ef52012fa",
    "fig11": "5b368780cf5ad6dbcbd217034afc3b388339eb7d60c4939c641ab8e58aed0fb7",
    "fig12": "f3a7e65b858e5fcd1f76a81982ff13c35382ef077fb951932bb29f9483c509c7",
    "tau": "ada36d93ebb6180c3b8154c40fb52064f2ebbd73499220e2f1296959aa08ff0e",
    "fig13": "9555a3ce381b9e0a904a2782e4212d7f406952a5a0d4ded26a06111b1b087060",
    "fig14": "b4409bf02937e0e4195d6bb6e7da77bc186defbf0c769e22d6735c2500cf6006",
    "ablation": "5713922027ade7919d4f93bf11394db33fcd5bbd69d1cff0f0289b72ef3a3e74",
    "replacement": "20d8eae1bb3be88279f854550d51d3d7c3812e30b5bb7cf81ef761a5bf8c59ac",
    "prefetchers": "c8aa5061b3700a4fbc75d8de5ef3a34980723c88a17b82c805f350c42f8d7e56",
}


class _Captured(Exception):
    pass


def _grid(name, monkeypatch):
    """The grid ``run_figure`` hands to ``run_grid``, as the CLI runs it
    with ``--quick --tier tiny --length 4000`` (fig14: ``--mixes 2``)."""
    grids = []

    def record(grid, **kw):
        grids.append(list(grid))
        raise _Captured

    monkeypatch.setattr(figures, "run_grid", record)
    params = {"mixes": 2} if name == "fig14" else {}
    with pytest.raises(_Captured):
        figures.run_figure(name, QUICK_WORKLOADS, tier="tiny", length=4000,
                           **params)
    [grid] = grids
    return grid


def grid_digest(grid) -> str:
    h = hashlib.sha256()
    for job in grid:
        _, key = parallel._job_spec(job, backend="ref")
        h.update(f"{job.label}\t{key}\n".encode())
    return h.hexdigest()


@pytest.fixture(autouse=True)
def _fixed_fingerprint(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(rc, "code_fingerprint", lambda: "0" * 16)


@pytest.mark.parametrize("name", sorted(GRID_DIGESTS))
def test_grid_keys_pinned(name, monkeypatch):
    assert grid_digest(_grid(name, monkeypatch)) == GRID_DIGESTS[name]


def test_energy_reads_fig8_cells(monkeypatch):
    assert grid_digest(_grid("energy", monkeypatch)) == GRID_DIGESTS["fig8"]


def test_every_grid_entry_is_pinned():
    grid_entries = {name for name, fig in figures.FIGURES.items() if fig.grid}
    assert grid_entries == set(GRID_DIGESTS) | {"energy"}
