"""Tests for tools/np_calls.py: the counting proxy, its summary and one
short run of the tool."""

import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("np_calls", _ROOT / "tools" / "np_calls.py")
np_calls = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(np_calls)


def _module():
    """A stand-in library module whose functions call numpy through its np."""
    mod = types.ModuleType("stand_in")
    mod.np = np
    code = (
        "def f(x):\n"
        "    with np.errstate(divide='ignore'):\n"
        "        y = np.log(x) + np.add.reduce(x)\n"
        "    return isinstance(y, np.ndarray), np.pi, y\n"
    )
    exec(compile(code, "stand_in.py", "exec"), mod.__dict__)
    return mod


def test_count_attributes_calls_to_the_caller_and_puts_np_back():
    # functions, ufuncs, ufunc methods and np.errstate count, under the
    # module and function that call them; classes and constants pass as
    # they are, and each module's np is numpy again afterwards
    mod = _module()
    out = []
    counts = np_calls.count([mod], lambda x: out.append(mod.f(x)), [np.ones(3), np.ones(4)])
    assert mod.np is np
    assert counts == {("stand_in.f", "errstate"): 2, ("stand_in.f", "log"): 2,
                      ("stand_in.f", "add.reduce"): 2}
    assert [(a, b) for a, b, _ in out] == [(True, np.pi)] * 2
    assert out[0][2].tolist() == [3.0] * 3


def test_summary_per_task_totals_by_caller_and_by_function():
    counts = {("m.f", "log"): 6, ("m.f", "errstate"): 2, ("m.g", "log"): 4}
    s = np_calls.summarize(counts, tasks=2)
    assert s["tasks"] == 2 and s["calls_per_task"] == 6.0
    assert s["errstate_per_task"] == 1.0
    assert s["by_caller"] == {"m.f": 4.0, "m.g": 2.0}
    assert s["by_function"] == {"log": 5.0, "errstate": 1.0}


def test_two_tasks_of_pipeline_cold_count_the_same_in_two_runs():
    # the count depends on the tasks and the code, not on the machine or
    # the run
    runs = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, str(_ROOT / "tools" / "np_calls.py"), "pipeline_cold",
             "--tasks", "2", "--seed", "1"],
            capture_output=True, text=True, check=True,
        ).stdout
        runs.append(json.loads(out.splitlines()[-1]))
    assert runs[0] == runs[1]
    assert runs[0]["tasks"] == 2 and runs[0]["calls_per_task"] > 100
    # "elliptic._SnpEngine.invert", or "elliptic.invert" before Python 3.11
    assert any(k.startswith("elliptic.") and k.endswith(".invert") for k in runs[0]["by_caller"])
