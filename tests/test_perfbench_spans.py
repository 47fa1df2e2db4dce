"""Every entry point the repository benchmark traces still exists.

``perfbench/tracer.py`` patches the functions in its ``SPANS`` table by
module and attribute name.  A renamed or deleted entry point would only
surface when a traced benchmark run fails, so this test resolves each
one the way the tracer does.  The tracer module is loaded from its file
and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Read only: no bytecode cache is written next to the benchmark.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize(
    "module_name,path",
    [(module_name, path) for _, module_name, path, _ in TRACER.SPANS],
    ids=[name for name, *_ in TRACER.SPANS],
)
def test_span_entry_point_is_a_callable_in_src(module_name, path):
    owner, attr = TRACER._resolve(module_name, path)
    target = getattr(owner, attr, None)
    assert callable(target), f"{module_name}.{path} is gone"
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(SRC)


def test_span_names_are_unique():
    assert len(set(TRACER.SPAN_NAMES)) == len(TRACER.SPANS)
