"""The shape of racelab's imports and of its one work budget, read from the
source with `ast`: every racelab-internal import sits at module level, the
module-level import graph has no cycle, only `racelab.budget` reads
RACE_LAB_BUDGET or words a refusal, and no module imports `dataclasses`
(nor does importing the CLI load it).  Two checks run code: once the
character tables are built, the traces and the real-race comparison, and
the builders, load checks, verifiers, decompositions and exact g-sums, read
characters as labels and integer exponent vectors and build no
`DirichletCharacter`."""

import ast
import itertools
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from importlib import resources
from pathlib import Path

from racelab import barriers, budget, primes, residues, simulator, zerosys

PACKAGE = Path(primes.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _internal_targets(node):
    """The racelab modules a (relative or absolute) import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] if "." in a.name else "__init__"
                for a in node.names if a.name.split(".")[0] == "racelab"]
    if node.level == 0 and (node.module or "").split(".")[0] != "racelab":
        return []
    base = (node.module or "").removeprefix("racelab").strip(".")
    if base:
        return [base.split(".")[0]]
    # `from . import x`: a submodule when there is one, else the package
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def test_every_internal_import_is_at_module_level():
    nested = []
    for module in MODULES:
        tree = _tree(module)
        top = {id(n) for n in tree.body}
        nested += [f"{module}.py:{n.lineno}" for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom))
                   and _internal_targets(n) and id(n) not in top]
    assert nested == []


def test_module_import_graph_has_no_cycle():
    graph = {m: {t for n in _tree(m).body
                 if isinstance(n, (ast.Import, ast.ImportFrom))
                 for t in _internal_targets(n) if t != m}
             for m in MODULES}
    assert graph["primes"] >= {"budget", "residues"}
    assert graph["budget"] == set()
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


def test_only_the_budget_module_words_the_budget():
    def strings(tree):
        docs = {id(n.body[0].value) for n in ast.walk(tree)
                if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and n.body and isinstance(n.body[0], ast.Expr)}
        return [n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
                and id(n) not in docs]

    wording = {m: [s for s in strings(_tree(m))
                   if "RACE_LAB_BUDGET" in s or "exceeds budget" in s]
               for m in MODULES}
    assert {m for m, found in wording.items() if found} == {"budget"}


def test_primes_still_exports_the_budget():
    assert primes.BudgetExceededError is budget.BudgetExceededError
    assert primes.sieve_budget is budget.sieve_budget


def test_no_module_imports_dataclasses():
    found = [f"{module}.py:{n.lineno}" for module in MODULES
             for n in ast.walk(_tree(module))
             if isinstance(n, ast.Import) and any(
                 a.name.split(".")[0] == "dataclasses" for a in n.names)
             or isinstance(n, ast.ImportFrom)
             and (n.module or "").split(".")[0] == "dataclasses"]
    assert found == []


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, racelab.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _count_characters(monkeypatch):
    """The argument tuples of every `DirichletCharacter` built from now on."""
    built = []
    init = residues.DirichletCharacter.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(residues.DirichletCharacter, "__init__", counted)
    return built


def test_traces_build_no_characters(monkeypatch):
    recipes = [barriers.build_thm311(7, tau=1000.0),
               barriers.build_thm51(15, tau=1000.0)]
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        chi3 = zerosys.load_zero_data(p)
    table = primes.sieve_race(3, 10**5)
    built = _count_characters(monkeypatch)
    for recipe in recipes:
        units = residues.unit_group(recipe.system.q).units
        s = simulator.RaceFunctionSet(recipe.system.q, recipe.system, units,
                                      pi_proxy="zero")
        simulator.one_period_trace(s, samples=64)
        simulator.trace(s, (1.0, 3.0), 0.5)
        simulator.trace(s, (1.0, 3.0), 0.5, mode="full-formula")
    s = simulator.RaceFunctionSet(3, chi3, (2, 1))
    simulator.trace(s, (1.0, 3.0), 0.5)
    simulator.trace(s, (1.0, 3.0), 0.5, mode="full-formula")
    primes.compare_with_simulator(table, chi3, 0.5, 2, 1)
    assert built == []


def test_barriers_and_dominant_data_build_no_characters(monkeypatch):
    """thm311 (all three cases), thm43 and thm51: build, load and verify,
    and decompose the lattice kinds; the dominant data, profiles, sign-change candidacy and
    hypothesis checks of their pairs; conjugate labels and a zero list."""
    for q in (7, 15, 17, 35):
        residues.characters(q)
    built = _count_characters(monkeypatch)
    recipes = [barriers.build_thm311(q) for q in (7, 15, 17)]
    recipes += [barriers.build_extremal(7, 3, [3, 2, 6]),
                barriers.build_thm51(15), barriers.build_thm51(35)]
    for recipe in recipes:
        loaded = barriers.BarrierRecipe.from_json(recipe.to_json())
        if recipe.kind == "thm51_census":
            barriers.check_thm51_conditions(loaded)
        elif recipe.kind == "thm43_extremal":
            barriers.verify_extremal(loaded)
            simulator.theorem_decomposition(loaded.system, "thm43", loaded.params)
        else:
            barriers.verify_thm311(loaded)
            simulator.theorem_decomposition(loaded.system, "thm311", loaded.params)
        system = loaded.system
        members = residues.unit_group(system.q).units[:3]
        s = simulator.RaceFunctionSet(system.q, system, members)
        for a, b in itertools.combinations(members, 2):
            if not zerosys.dominant_data(system, a, b).empty:
                simulator.dominant_profile(s, a, b)
        zerosys.is_kt_candidate(system, members)
        barriers.check_hypotheses(31, system, members[1:])
        for label in range(len(system.chars)):
            system.conjugate_label(label)
    with resources.as_file(resources.files("racelab") / "data/chi3_zeros.txt") as p:
        chi3 = zerosys.load_zero_data(p)
    zerosys.dominant_data(chi3, 2, 1)
    assert built == []
