"""The library names the benchmark tracer wraps (`LAYERS` in
`benchmarks/tracing.py`) still resolve, so a rename fails the tests instead
of only the benchmark's smoke run."""

import ast
import importlib
import inspect
import re
import shutil
import sys
from pathlib import Path

import pytest

import ptqsim

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def traced_names() -> list[tuple[str, str]]:
    """(module, attribute) of each LAYERS entry, read from the file's source
    without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{TRACING} defines no LAYERS")


def lookup_problems(package: str) -> list[str]:
    """What the tracer would fail to find in the package of that name."""
    modules = {name: importlib.import_module(f"{package}.{name}") for name in ("cli", "dilation")}
    problems = []
    for module, attr in traced_names():
        if not callable(getattr(importlib.import_module(f"{package}.{module}"), attr, None)):
            problems.append(f"{module}.{attr} is not a callable")
    # the circuit-tools workload replays dilation-check through this hook
    if getattr(modules["cli"], "general_dilation", None) is not getattr(
        modules["dilation"], "general_dilation", None
    ):
        problems.append("cli.general_dilation is not dilation.general_dilation")
    # the tracer counts args[1] as the bytes written
    write = getattr(modules["cli"], "_write_text", None)
    if not callable(write) or list(inspect.signature(write).parameters) != [
        "path",
        "text",
        "append",
    ]:
        problems.append("cli._write_text does not take (path, text, append)")
    return problems


def test_traced_names_resolve():
    assert traced_names()
    assert lookup_problems("ptqsim") == []


@pytest.mark.parametrize("name", ["general_dilation", "_write_text"])
def test_renamed_traced_name_is_caught(tmp_path, monkeypatch, name):
    copy = tmp_path / "ptqsim_renamed"
    shutil.copytree(
        Path(ptqsim.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    for path in copy.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(rf"\b{name}\b", f"{name}_v2", text), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        problems = lookup_problems("ptqsim_renamed")
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] == "ptqsim_renamed"]:
            del sys.modules[key]
    assert any(f".{name} " in problem for problem in problems), problems
