"""Module layering: the modelling modules load none of the extraction code."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
MODELLING = (
    "linkcdr.io_utils",
    "linkcdr.scaling",
    "linkcdr.relations",
    "linkcdr.decompose",
    "linkcdr.bayes",
    "linkcdr.learn.pipeline",
)
EXTRACTION = (
    "linkcdr.ingest",
    "linkcdr.pairgraph",
    "linkcdr.features",
    "linkcdr.synthgen",
    "linkcdr.presets",
)


def test_modelling_modules_do_not_import_extraction():
    code = (
        "import importlib, sys\n"
        f"for name in {MODELLING!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(set({EXTRACTION!r}) & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
