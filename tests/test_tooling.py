"""The benchmark harness reaches into ``rss`` by name, and README's configs
are read by ``rss``: these tests fail when a change deletes or renames a
function the harness wraps or calls, or when a README config stops parsing."""

import importlib
import importlib.util
import pathlib
import re
import sys

from rss.cli import load_config

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHILD = ROOT / "benchmarks" / "child.py"

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


def test_readme_ini_blocks_load(tmp_path):
    # configparser keeps an inline "; comment" in the value, so a README
    # config that annotates a value that way does not load
    blocks = re.findall(r"^```ini\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    assert blocks
    for index, block in enumerate(blocks):
        command = next((c for c in ("bench", "validate", "calibrate") if f"[{c}]" in block), "run")
        path = tmp_path / f"readme{index}.ini"
        path.write_text(block, encoding="utf-8")
        load_config(str(path), command)
