"""Rebuild the stored golden reports from the current tool.

Usage (from the repo root): PYTHONPATH=src python tests/golden/regenerate.py
``oscgrid`` must be importable in the calling interpreter, either through
PYTHONPATH as above or as an installed package; the pipeline subprocesses
run that same package.
Only run this deliberately after an intended output-format change; the
acceptance suite (PIPELINES) and tests/test_golden_paths.py (PATH_PIPELINES,
stored under tests/golden/paths/) compare against these files byte for byte.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1]))

from golden_pipelines import (
    GOLDEN_DIR,
    PATH_GOLDEN_DIR,
    PATH_PIPELINES,
    PIPELINES,
    run_path_pipeline,
    run_pipeline,
)


def _write(target: Path, raw: bytes) -> None:
    target.write_bytes(raw)
    print(f"wrote {target} ({len(raw)} bytes)")


def main():
    for name in PIPELINES:
        with tempfile.TemporaryDirectory() as workdir:
            outputs = run_pipeline(name, Path(workdir))
        for step, raw in outputs.items():
            _write(GOLDEN_DIR / f"{name}_{step}.json", raw)
    PATH_GOLDEN_DIR.mkdir(exist_ok=True)
    for name in PATH_PIPELINES:
        with tempfile.TemporaryDirectory() as workdir:
            outputs = run_path_pipeline(name, Path(workdir))
        for key, raw in outputs.items():
            _write(PATH_GOLDEN_DIR / f"{name}_{key}{'' if key.endswith('.csv') else '.json'}", raw)


if __name__ == "__main__":
    main()
