"""What `import domlab` and the solving subcommands load: the solver and its
modules, not the verification sweep. Each check runs in a fresh interpreter,
since this one has loaded every module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
EAGER = ["domlab", "domlab.graphs", "domlab.predicates", "domlab.solver"]
SWEEP = ["domlab.formulas", "domlab.smallgraphs", "domlab.verify",
         "domlab.witnesses"]


def fresh(code: str):
    """Run code in a new interpreter on ./src; return what it prints as
    JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] == 'domlab')))")


def test_import_loads_only_the_solver():
    assert fresh(f"import json, sys, domlab; {LOADED}") == EAGER


@pytest.mark.parametrize("argv", [
    ["gamma", "--family", "prism:cycle:6", "--k", "2"],
    ["gamma", "--family", "cycle:7", "--naive", "--certificate", "--stats"],
    ["domatic", "--family", "complete:7", "--certificate"],
    ["construct", "kjoin:cycle:4:complete:2:k=1"],
])
def test_solving_subcommands_leave_the_sweep_unloaded(argv):
    loaded = fresh("import json, sys; from domlab import cli; "
                   f"assert cli.main({argv!r}) == 0; {LOADED}")
    assert "domlab.cli" in loaded and "domlab.family_spec" in loaded
    assert [m for m in SWEEP if m in loaded] == []


def test_every_public_name_resolves_to_its_module_object():
    import domlab

    home = {name: getattr(domlab, name).__module__
            for name in domlab.__all__ if name != "__version__"}
    for name, module in home.items():
        assert getattr(sys.modules[module], name) is getattr(domlab, name)
    assert {name: module for name, module in home.items()
            if module not in EAGER} == {
        "FamilySpecError": "domlab.family_spec",
        "family_graph": "domlab.family_spec",
        "FormulaVerdict": "domlab.formulas", "Report": "domlab.verify",
        "SweepConfig": "domlab.verify", "run_sweep": "domlab.verify",
        "validate_witness": "domlab.witnesses"}
    assert domlab.SweepConfig is domlab.verify.SweepConfig


def test_unknown_name_raises_attribute_error():
    import domlab

    with pytest.raises(AttributeError, match="no_such_name"):
        domlab.no_such_name
    with pytest.raises(ImportError):
        from domlab import _no_such_module  # noqa: F401
