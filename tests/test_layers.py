"""The public functions of each layer stay plain functions of that layer.

The per-layer timing spans wrap every public function that
`inspect.isfunction` accepts and that its own module defines. A decorator
that turns a public function into another kind of callable (for example
`functools.cache`, whose result is not a function) would silently drop that
function from the spans, so cache a private helper instead. The spans read
only the names in `__all__`, so each layer lists every public function and
class it defines there, and nothing else.
"""

import ast
import inspect

import pytest

import tddq
from tddq import analytic, cli, sim, traffic


@pytest.mark.parametrize("module", [traffic, analytic, sim, cli],
                         ids=lambda m: m.__name__)
def test_public_callables_are_plain_module_functions(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or not callable(obj):
            continue
        assert inspect.isfunction(obj), f"{module.__name__}.{name} is not a plain function"
        assert obj.__module__ == module.__name__, (
            f"{module.__name__}.{name} is defined in {obj.__module__}")


@pytest.mark.parametrize("module", [traffic, analytic, sim, cli],
                         ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_functions_and_classes(module):
    public = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(module.__all__) == sorted(public)


def test_cli_reads_no_private_name_of_sim():
    # the CLI drives runs through sim's public API alone; sim keeps its own
    # state (the held draws) to itself
    tree = ast.parse(inspect.getsource(cli))
    private = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "sim" and node.attr.startswith("_")
    ] + [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("sim", "tddq.sim")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_package_exports_exactly_the_layers_public_names():
    layers = (traffic, analytic, sim)
    assert len(tddq.__all__) == len(set(tddq.__all__))
    assert set(tddq.__all__) == {"__version__"}.union(*(m.__all__ for m in layers))
    for layer in layers:
        for name in layer.__all__:
            assert getattr(tddq, name) is getattr(layer, name), name
    star: dict[str, object] = {}
    exec("from tddq import *", star)
    assert star.keys() - {"__builtins__"} == set(tddq.__all__)


def test_run_keyword_only_options_are_pinned():
    # a new option of run() shows up here as a diff
    params = inspect.signature(sim.run).parameters.values()
    keyword_only = tuple(p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY)
    assert keyword_only == ("mode", "keep_packets", "trace_path")
