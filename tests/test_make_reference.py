"""The benchmark's reference generator still runs against the library.

perfbench/make_reference.py builds its expected outputs from library calls
(`h_matrix`, `rel_h_matrix`, `inner_samples_summary`, `test_from_h` with
`extra=`) and checks them against the CLI's reports for its first seeds.
Here it runs on two smoke workloads, and its output must match the
recorded perfbench/reference.json.
"""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def make_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import make_reference
    return make_reference


@pytest.mark.parametrize("name", ["gof-toy-n4000", "rel-toy-n1000-r64"])
def test_reference_matches_recorded(make_reference, name, tmp_path):
    import workloads

    seeds = make_reference.SEEDS["smoke"]
    got = make_reference.test_reference(workloads.get(name, smoke=True),
                                        tmp_path, seeds)
    want = json.loads((PERFBENCH / "reference.json").read_text())["smoke"][name]
    for key in ("statistic", "sigma_h_sq"):
        assert got[key] == pytest.approx(want[key], rel=1e-9, abs=0)
    assert list(seeds) == [0, 1, 2, 3]
    for seed in map(str, seeds):
        for key in ("reject", "position", "p_value"):
            assert got["seeds"][seed][key] == want["seeds"][seed][key], (
                seed, key)
