"""The library's settable values and public names, counted from its
source: every parameter with a default in a ``def`` or ``lambda`` under
``src/bergman``, every suite option read through an ``opt`` call, the
options of ``bergman-bench run``, and the names ``bergman`` exports.  A
new option or export changes a total here, so it shows up in the diff
that adds it."""

import ast
from pathlib import Path

import bergman
from bergman.cli import run

SRC = Path(__file__).resolve().parents[1] / "src" / "bergman"

DEFAULTED_PARAMETERS = 45
SUITE_OPTIONS = 0  # a suite is a name and a seed
RUN_OPTIONS = {"--seed", "--out"}
PUBLIC_NAMES = 41


def _trees():
    return [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]


def _functions():
    return [node for tree in _trees() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda))]


def _defaulted(args: ast.arguments) -> list:
    pos = args.posonlyargs + args.args
    return ([a.arg for a in pos[len(pos) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _suite_options() -> list:
    return [node for tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "opt"]


def test_defaulted_parameter_count():
    assert sum(len(_defaulted(f.args)) for f in _functions()) \
        == DEFAULTED_PARAMETERS


def test_suite_option_count():
    assert len(_suite_options()) == SUITE_OPTIONS


def test_run_takes_only_seed_and_out():
    options = {o for p in run.params if p.param_type_name == "option"
               for o in p.opts}
    assert options == RUN_OPTIONS


def test_no_tolerance_parameter():
    # the verdict rule has no tolerance; nothing may take one
    names = {a.arg for f in _functions()
             for a in (*f.args.posonlyargs, *f.args.args, *f.args.kwonlyargs)}
    assert "rtol" not in names


def test_public_name_count():
    assert len(bergman.__all__) == PUBLIC_NAMES
    assert len(set(bergman.__all__)) == PUBLIC_NAMES


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from bergman import *", namespace)
    assert set(bergman.__all__) <= namespace.keys()
