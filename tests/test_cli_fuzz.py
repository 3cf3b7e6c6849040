"""Fuzzed command lines end with a documented exit code (0, 2, 3 or 4).

Each argv is drawn from `build_parser()`'s own subcommands, positional
choices and flags.  Flag values come from a small pool of edge cases, plus
the names of a few prebuilt recipes and the bundled zero list, so that runs
get past the file checks.  Every command runs in-process through `cli.main`
in a temporary directory, with a small sieve budget; moduli stay <= 40 and
K/N/M/samples small, because the pool holds no larger integer.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import shutil
from importlib import resources

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from racelab import cli

POOL = ("0", "-1", "1", "2", "3", "7", "15", "40", "1e300", "nan", "inf",
        "-inf", "", "1:0", "1,nan", "inf,1")
RECIPES = {"t311.json": ["barrier", "build", "thm311", "--q", "7"],
           "t43.json": ["barrier", "build", "thm43", "--q", "7"],
           "t51.json": ["barrier", "build", "thm51", "--q", "5", "--tau", "500"]}
ZEROS = "chi3_zeros.txt"
EXTRA = {"recipe": tuple(RECIPES), "zeros": (ZEROS,),
         "window": ("0:1e7", "0:1e300"), "step": ("1e-320",),
         "gamma": ("1e308",),
         "checkpoints": ("linear:1", "geometric:2", "linear:inf",
                         "geometric:nan")}


def _commands():
    """(name, positionals, flags) for every subcommand of the parser."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    out = []
    for name, p in sub.choices.items():
        positionals = [a for a in p._actions if not a.option_strings]
        flags = [a for a in p._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)]
        out.append((name, positionals, flags))
    return out


def _values(action):
    if action.choices is not None:
        return st.sampled_from([c for c in action.choices if c is not None])
    if action.dest in EXTRA:  # an existing file half of the time
        return st.sampled_from(EXTRA[action.dest]) | st.sampled_from(POOL)
    return st.sampled_from(POOL)


@st.composite
def argvs(draw):
    name, positionals, flags = draw(st.sampled_from(_commands()))
    argv = [name]
    for action in positionals:
        if action.nargs == "?" and draw(st.booleans()):
            continue
        argv.append(draw(_values(action)))
    chosen = draw(st.lists(st.sampled_from(flags), unique_by=id, max_size=4))
    chosen += [a for a in flags if a.required and a not in chosen]
    for action in chosen:
        flag = action.option_strings[0]
        # --flag=value, so that values like -inf are not read as flags
        argv.append(flag if action.nargs == 0
                    else f"{flag}={draw(_values(action))}")
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        mp.setenv("RACE_LAB_BUDGET", "1e5")
        with resources.as_file(resources.files("racelab") / "data" / ZEROS) as p:
            shutil.copy(p, path / ZEROS)
        for out, argv in RECIPES.items():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--out", out]) == cli.EXIT_OK
        yield path


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_fuzzed_cli_exits_with_documented_code(workdir, argv):
    assert os.getcwd() == str(workdir)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except Exception as exc:  # an exit-1 traceback on the command line
            pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())


# --- recipe fuzz ----------------------------------------------------------------
#
# One JSON leaf of a README recipe mutated at a time, then loaded by every
# command that reads a recipe.

README_RECIPES = {
    "thm311": ["barrier", "build", "thm311", "--q", "7", "--tau", "1000"],
    "thm43": ["barrier", "build", "thm43", "--q", "7", "--D", "a,a2,a3"],
    "thm51": ["barrier", "build", "thm51", "--q", "5", "--tau", "1000"],
}
RECIPE_COMMANDS = (["barrier", "verify"], ["simulate", "--samples", "256"],
                   ["orderings", "--samples", "256"])


def _leaves(node, path=()):
    """The path of every leaf below node (a list's items by index)."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


def _mutated(value, how):
    if how == "wrong type":
        return 0 if isinstance(value, str) else "x"
    if how in ("+1", "-1"):
        if type(value) not in (int, float):
            return None
        return value + (1 if how == "+1" else -1)
    return {"negative": -1, "zero": 0, "huge": 10**9}[how]


@pytest.fixture(scope="module")
def readme_recipes(tmp_path_factory):
    path = tmp_path_factory.mktemp("recipes")
    payloads = {}
    for kind, argv in README_RECIPES.items():
        out = path / f"{kind}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
        payload = json.loads(out.read_text())
        del payload["config"]  # the build's own options, which nothing reads
        payloads[kind] = payload
    return path, payloads


@st.composite
def recipe_mutations(draw, payloads):
    kind = draw(st.sampled_from(sorted(payloads)))
    payload = copy.deepcopy(payloads[kind])
    *parents, key = draw(st.sampled_from(_leaves(payload)))
    node = payload
    for parent in parents:
        node = node[parent]
    how = draw(st.sampled_from(["+1", "-1", "negative", "zero", "huge",
                                "wrong type", "dropped"]))
    if how == "dropped":
        del node[key]
    else:
        value = _mutated(node[key], how)
        assume(value is not None)
        node[key] = value
    return kind, (*parents, key), how, payload


def test_mutated_recipes_exit_with_documented_code(readme_recipes, monkeypatch):
    path, payloads = readme_recipes
    monkeypatch.chdir(path)
    monkeypatch.setenv("RACE_LAB_BUDGET", "1e6")

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(mutation=recipe_mutations(payloads))
    def run(mutation):
        kind, where, how, payload = mutation
        (path / "mutated.json").write_text(json.dumps(payload))
        for command in RECIPE_COMMANDS:
            argv = [*command, "--recipe", "mutated.json", "--out", "out"]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    pytest.fail(f"{kind} {where} {how}, {argv}: "
                                f"{type(exc).__name__}: {exc}")
            assert code in (0, 2, 3, 4), (kind, where, how, argv, code,
                                          err.getvalue())

    run()
