"""The benchmark harness reaches into ``rss`` by name: these tests fail when a
change deletes or renames a function it wraps or calls."""

import importlib
import importlib.util
import pathlib
import sys

CHILD = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "child.py"

# the commands' main calls that child.py wraps (each workload's main_call)
MAIN_CALLS = [(f"cli.{name}", "rss.cli", name)
              for name in ("run_chain", "run_campaign", "run_validation_suite")]


def load_child(monkeypatch):
    # no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_traced_names_resolve(monkeypatch):
    child = load_child(monkeypatch)
    assert child.TRACED
    missing = []
    for span, module_name, attr in child.TRACED + MAIN_CALLS:
        module = importlib.import_module(module_name)
        if "." in attr:
            # child.install wraps the method found in the class's own __dict__
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{span}: {module_name}.{attr}")
    assert missing == []
