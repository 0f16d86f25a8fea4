"""The package's lazy layout: reference.py and tools.py are imported on first
use, every old import path still reaches them, and a default build or
query never imports them. Each check runs in a fresh interpreter, since an
import is done once per process."""

import os
import subprocess
import sys

import pytest

import jumbled

SRC = os.path.dirname(os.path.dirname(jumbled.__file__))

# old module -> {new module: names defined there, read through the old one};
# only names that a caller outside the tests reads through the old module
MOVED = {
    "jumbled": {"jumbled.reference": (
        "blocked_profile recursive_profile weighted_max_sums tree_profile "
        "enumerate_connected_oracle enumerate_max_sums")},
    "jumbled.strings": {"jumbled.reference": (
        "make_block_partition build_cross_tables blocked_profile recursive_profile "
        "weighted_max_sums")},
    "jumbled.trees": {"jumbled.reference": (
        "encode_delta tree_profile feasible_size_sets enumerate_connected_oracle")},
    "jumbled.minplus": {"jumbled.reference": (
        "min_plus_product min_plus_product_tiled min_plus_convolution "
        "min_plus_convolution_blocked")},
    "jumbled.cli": {
        "jumbled.reference": ("blocked_profile recursive_profile weighted_max_sums tree_profile "
                              "enumerate_connected_oracle enumerate_max_sums"),
        "jumbled.tools": "cmd_verify cmd_gen cmd_bench"},
}


def python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=120, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("first", ["jumbled", "jumbled.cli", "jumbled.strings", "jumbled.trees",
                                   "jumbled.minplus", "jumbled.reference"])
def test_old_paths_reach_the_one_definition(first):
    out = python(f"""
import importlib, sys
importlib.import_module({first!r})
import jumbled
bad = []
for name in jumbled.__all__:
    obj = getattr(jumbled, name)
    if getattr(importlib.import_module(obj.__module__), name) is not obj:
        bad.append(name)
for old, homes in {MOVED!r}.items():
    for new, names in homes.items():
        old_m, new_m = importlib.import_module(old), importlib.import_module(new)
        for name in names.split():
            if name in vars(old_m) or name not in vars(new_m) \\
                    or getattr(old_m, name) is not vars(new_m)[name]:
                bad.append(old + "." + name)
print(bad)
""")
    assert out.strip() == "[]"


# (module, name): unknown names, and names of reference.py and tools.py that
# no caller outside the tests reads through the module
UNKNOWN = [("jumbled", "no_such_name"), ("jumbled.cli", "no_such_name"),
           ("jumbled.minplus", "no_such_name"), ("jumbled.strings", "no_such_name"),
           ("jumbled.trees", "no_such_name"), ("jumbled.strings", "_blocked_sweep"),
           ("jumbled.trees", "micro_macro"), ("jumbled.minplus", "_product"),
           ("jumbled.cli", "_verify_case")]


def test_unknown_names_stay_unknown():
    out = python(f"""
import importlib, sys
for module, name in {UNKNOWN!r}:
    try:
        getattr(importlib.import_module(module), name)
    except AttributeError as exc:
        print(exc)
print(sorted(m for m in sys.modules if m in ("jumbled.reference", "jumbled.tools")))
""")
    lines = out.split("\n")
    assert lines[:len(UNKNOWN)] == [f"module {m!r} has no attribute {name!r}"
                                    for m, name in UNKNOWN]
    assert lines[len(UNKNOWN)] == "[]"


def test_default_builds_and_a_query_import_neither(tmp_path):
    out = python(f"""
import contextlib, io, sys
from jumbled import cli
from jumbled.inputs import gen_string, gen_tree, gen_weights
d = {str(tmp_path)!r}
texts = {{"string": gen_string(300, 1, 0.5), "tree": gen_tree(300, 1, 0.5),
         "weighted-string": gen_weights(300, 1),
         "weighted-tree": gen_tree(300, 1, 0.5, weighted=True)}}
codes = []
for kind, text in texts.items():
    open(f"{{d}}/{{kind}}.txt", "w").write(text)
    codes.append(cli.main(["build", "--input", f"{{d}}/{{kind}}.txt", "--kind", kind,
                           "--out", f"{{d}}/{{kind}}.csv"]))
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["query", "--profile", f"{{d}}/string.csv", "-i", "7", "-j", "3"]))
print(codes, [m for m in ("jumbled.reference", "jumbled.tools") if m in sys.modules])
""")
    assert out.strip() == "[0, 0, 0, 0, 0] []"


def test_run_as_a_module_verify_imports_no_second_cli():
    # python -m jumbled.cli runs the module as __main__; the verify command
    # must take its tables from there, not from an imported jumbled.cli
    out = python("""
import runpy, sys
sys.argv = ["jumbled", "verify", "--algo", "blocked", "--oracle", "naive", "--max-n", "30",
            "--seeds", "3"]
try:
    runpy.run_module("jumbled.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, sorted(m for m in sys.modules if m.startswith("jumbled.")))
""")
    assert out.split("\n")[-2] == ("0 ['jumbled.inputs', 'jumbled.minplus', 'jumbled.profiles', "
                                   "'jumbled.reference', 'jumbled.strings', 'jumbled.tools', "
                                   "'jumbled.trees']")
