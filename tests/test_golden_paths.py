"""Byte-level goldens for every scan path: the 2D and 3D kernels under each
mode, `sample` decoding, the 1D screen, a 2D covering, CSV input and the
--plot-dir files.  Regenerate with tests/golden/regenerate.py."""

from __future__ import annotations

import pytest

from golden_pipelines import PATH_GOLDEN_DIR, PATH_PIPELINES, normalize, run_path_pipeline


@pytest.mark.parametrize("name", sorted(PATH_PIPELINES))
def test_path_pipeline_matches_golden(name, tmp_path):
    outputs = run_path_pipeline(name, tmp_path)
    stored = {
        path.name[len(name) + 1 :].removesuffix(".json"): path.read_bytes()
        for path in PATH_GOLDEN_DIR.glob(f"{name}_*")
    }
    assert sorted(outputs) == sorted(stored)
    for key, raw in outputs.items():
        if key.endswith(".csv"):
            assert raw == stored[key], f"{name}/{key} diverges"
        else:
            assert normalize(raw) == normalize(stored[key]), f"{name}/{key} diverges"


def test_path_goldens_are_small():
    assert sum(p.stat().st_size for p in PATH_GOLDEN_DIR.iterdir()) < 1 << 20
