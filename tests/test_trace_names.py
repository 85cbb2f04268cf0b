"""The traced benchmark run (``bench/traced.py``) finds each function it
spans by name and skips a name it cannot find, so a function renamed or
deleted here would read 0 in its per-layer metrics without an error.  These
tests read the names from that file, without importing it, and check that
each one still resolves."""

import ast
import importlib
import inspect
from pathlib import Path

import tilewalk.cli as cli
from tilewalk.ergodics import sample_paths
from tilewalk.kernels import EquivariantTableKernel
from tilewalk.tile_graph import diameter_comparability

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def _traced_constant(name):
    for node in ast.parse(TRACED.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == name):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_spanned_names_are_functions_of_their_modules():
    spanned = _traced_constant("SPANNED")
    assert spanned
    for layer, names in spanned.items():
        module = importlib.import_module(f"tilewalk.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


def test_kernel_methods_are_methods_of_the_table_kernel():
    methods = _traced_constant("KERNEL_METHODS")
    assert methods
    for name in methods:
        assert inspect.isfunction(vars(EquivariantTableKernel).get(name)), name


def test_command_spans_follow_the_handlers():
    assert cli.COMMANDS == tuple(cli._HANDLERS)


def test_counted_arguments_keep_their_names():
    # the trace's counters bind these arguments by name
    assert {"n_paths", "n_steps"} <= set(inspect.signature(sample_paths).parameters)
    assert "graph" in inspect.signature(diameter_comparability).parameters
