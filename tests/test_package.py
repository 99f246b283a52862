"""The package's public names: layers imported on first access, the one
lazy loader, and the definitions the CLI parser shares with them."""

import ast
from pathlib import Path

import pytest

import nodalcodes
from helpers import fresh_python
from nodalcodes import classify, cli, covers, gf2, lattices

LAYERS = ("gf2", "lattices", "covers", "classify")

# in a process that has imported only the package, each way of reaching
# the layers loads them, and binds the modules it loaded
REACH = {
    "attribute": "bound = {m: getattr(nodalcodes, m) for m in LAYERS}",
    "star": "bound = {}\nexec('from nodalcodes import *', bound)\n"
            "del bound['__builtins__']\n"
            "assert bound.pop('__version__') == nodalcodes.__version__",
}

CHECK = """
import sys
import nodalcodes
assert not {"nodalcodes." + m for m in LAYERS} & set(sys.modules)
%s
assert bound == {m: sys.modules["nodalcodes." + m] for m in LAYERS}, bound
"""


@pytest.mark.parametrize("access", sorted(REACH))
def test_layers_load_on_first_access(access):
    script = f"LAYERS = {LAYERS!r}\n" + CHECK % REACH[access]
    proc = fresh_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("layer", LAYERS)
def test_star_import_binds_all(layer):
    # a stale __all__ entry makes import * raise
    bound = {}
    exec(f"from nodalcodes.{layer} import *", bound)
    del bound["__builtins__"]
    assert sorted(bound) == sorted(getattr(nodalcodes, layer).__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="frobnicate"):
        nodalcodes.frobnicate


def test_step_has_one_definition():
    assert classify.Step is covers.Step


def test_parser_choices_are_the_layer_constants():
    def choices(command, flag):
        (kwargs,) = [kw for flags, kw in cli._COMMANDS[command][2]
                     if flags == (flag,)]
        return kwargs["choices"]

    assert choices("lattice build", "--scaling") is lattices.SCALINGS
    assert lattices.MAX_ROOT_RANK is nodalcodes.MAX_ROOT_RANK
    assert choices("cover invariants", "--kodaira") is covers.KODAIRA
    # the weight rules are spelled in the parser: gf2 accepts each of them
    # and nothing else
    weights = choices("code enumerate", "--weights")
    for rule in weights:
        assert 4 in gf2._weight_rule(8, rule, 0, 8)
    assert "div8" not in weights
    with pytest.raises(ValueError, match="unknown weight rule: 'div8'"):
        gf2._weight_rule(8, "div8", 0, 8)


def test_no_function_imports_a_layer():
    # the package hook is the one lazy loader: a function reaches
    # nodalcodes.<layer>, and imports only from outside the package
    offending = []
    for path in sorted(Path(nodalcodes.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = ["." * node.level + (node.module or "")]
                else:
                    continue
                if any(m.startswith(".") or
                       m.split(".")[0] in ("nodalcodes", *LAYERS)
                       for m in modules):
                    offending.append(f"{path.name}:{node.lineno}")
    assert offending == []
