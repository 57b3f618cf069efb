"""What importing ncinv and running one subcommand load.  Each check runs in
a fresh interpreter, so that modules loaded by other tests do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncinv

SRC = str(Path(ncinv.__file__).resolve().parents[1])

# Every name the package exports.
EXPORTS = {
    "brackets": ["BracketExpression", "BracketMonomial", "VanishingBracketError",
                 "from_pairs", "pluecker_step", "to_noncrossing"],
    "freeprob": ["CumulantSequence", "MomentSequence", "cumulants_from_moments",
                 "moments_from_cumulants", "psi_mixed_moment", "psi_orthogonality"],
    "group_action": ["GroupElement", "act", "default_witnesses", "is_invariant",
                     "random_group_element", "random_witnesses", "sym_power"],
    "hilbert": ["DimensionSeries", "MethodComparison", "compare_methods", "dims_by_chebyshev",
                "dims_by_enumeration", "dims_by_quadrature"],
    "partitions": ["PairPartition", "SetPartition", "catalan",
                   "enumerate_m_partite_nc_pairings", "enumerate_nc", "is_m_partite",
                   "is_noncrossing", "leq", "nc_moebius", "one_partition", "thicken",
                   "unthicken", "zero_partition"],
    "symbolic": ["NcPolynomial", "iter_noncrossing_basis", "leading_term",
                 "noncrossing_basis", "predicted_leading_word", "restitution"],
}

LOADED = "sorted(k for k in sys.modules if k.startswith('ncinv.'))"


def fresh(code: str):
    """Run `code` in a new interpreter and return the JSON it prints last."""
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_module():
    assert fresh(f"import json, sys; import ncinv; print(json.dumps({LOADED}))") == []


def run_main(tmp_path, argv, probe: str):
    """Run ``main(argv)`` in a fresh interpreter, with a small bracket file in
    place of EXPRESSION, and return its exit code and the value of ``probe``,
    taken before the check's own json import."""
    expression = tmp_path / "expression.json"
    expression.write_text(json.dumps({
        "m": 4, "d": 1, "terms": [{"coeff": "1", "chords": [[1, 3], [2, 4]], "sign": 1}],
    }), encoding="utf-8")
    argv = [str(expression) if a == "EXPRESSION" else a for a in argv]
    code = ("import contextlib, io, sys\n"
            "from ncinv.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            f"probe = {probe}\n"
            "import json\n"
            "print(json.dumps([code, probe]))")
    return fresh(code)


@pytest.mark.parametrize("argv, layers", [
    (["dim", "--d", "4", "--m", "6"], ["hilbert"]),
    (["moments", "--rule", "semicircle", "--n", "6"], ["_rational", "freeprob"]),
    (["hilbert", "--d", "2", "--max-m", "4", "--method", "chebyshev"], ["hilbert"]),
    (["hilbert", "--d", "2", "--max-m", "4"], ["hilbert"]),
    (["rewrite", "EXPRESSION"], ["_rational", "brackets"]),
    (["basis", "--d", "2", "--m", "4"], ["_rational", "brackets", "symbolic"]),
    (["verify", "--d", "2", "--m", "4", "--witnesses", "1"],
     ["_rational", "brackets", "group_action", "symbolic"]),
], ids=["dim", "moments", "hilbert-chebyshev", "hilbert-all", "rewrite", "basis", "verify"])
def test_subcommand_loads_its_layers_only(tmp_path, argv, layers):
    # Every layer keeps its records on the private base in ncinv._value.
    want = ["ncinv.cli", "ncinv._value"] + [f"ncinv.{x}" for x in layers]
    assert run_main(tmp_path, argv, LOADED) == [0, sorted(want)]


@pytest.mark.parametrize("argv, reads_json", [
    (["dim", "--d", "4", "--m", "6"], False),
    (["moments", "--rule", "semicircle", "--n", "6"], False),
    (["hilbert", "--d", "2", "--max-m", "4", "--method", "chebyshev"], False),
    (["hilbert", "--d", "2", "--max-m", "4", "--method", "quadrature"], False),
    (["hilbert", "--d", "2", "--max-m", "4", "--method", "enumeration", "--format", "csv"],
     False),
    (["hilbert", "--d", "2", "--max-m", "4"], False),
    (["hilbert", "--d", "2", "--max-m", "4", "--format", "json"], True),
    (["hilbert", "--d", "2", "--max-m", "4", "--method", "chebyshev", "--format", "json"],
     True),
    (["rewrite", "EXPRESSION"], True),
    (["basis", "--d", "2", "--m", "4"], False),
    (["basis", "--d", "2", "--m", "4", "--format", "json"], False),
    (["verify", "--d", "2", "--m", "4", "--witnesses", "1"], False),
], ids=["dim", "moments", "hilbert-chebyshev", "hilbert-quadrature", "hilbert-enumeration-csv",
        "hilbert-all", "hilbert-all-json", "hilbert-chebyshev-json", "rewrite", "basis",
        "basis-json", "verify"])
def test_no_subcommand_loads_dataclasses_and_only_json_io_loads_json(tmp_path, argv,
                                                                    reads_json):
    probe = "sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules))"
    assert run_main(tmp_path, argv, probe) == [0, ["json"] if reads_json else []]


def test_psi_mixed_moment_loads_no_partitions():
    code = ("import json, sys\n"
            "from ncinv.freeprob import CumulantSequence, psi_mixed_moment\n"
            "value = psi_mixed_moment((2, 2), CumulantSequence.semicircle())\n"
            f"print(json.dumps([value, {LOADED}]))")
    assert fresh(code) == [1, ["ncinv._rational", "ncinv._value", "ncinv.freeprob"]]


def test_importtime_lists_the_layer_a_subcommand_loads():
    # Layers loaded through importlib.import_module would not be listed.
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "ncinv.cli", "hilbert",
                           "--d", "2", "--max-m", "4", "--method", "chebyshev"],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    listed = [line.split("|")[-1].strip() for line in done.stderr.splitlines()]
    assert "ncinv.hilbert" in listed and "ncinv._value" in listed


def test_every_export_resolves_to_its_home_object():
    pairs = [[home, name] for home, names in EXPORTS.items() for name in names]
    code = ("import importlib, json, ncinv\n"
            f"pairs = {pairs!r}\n"
            "print(json.dumps([[home, name] for home, name in pairs if getattr(ncinv, name)"
            " is not getattr(importlib.import_module('ncinv.' + home), name)]))")
    assert fresh(code) == []


def test_modules_resolve_as_attributes():
    code = ("import importlib, json, ncinv\n"
            f"print(json.dumps([getattr(ncinv, m) is importlib.import_module('ncinv.' + m)"
            f" for m in {sorted(EXPORTS)!r}]))")
    assert fresh(code) == [True] * len(EXPORTS)


def test_dir_lists_the_exports_and_unknown_names_raise():
    code = ("import json, ncinv\n"
            "try:\n"
            "    ncinv.no_such_name\n"
            "    raised = None\n"
            "except AttributeError as exc:\n"
            "    raised = str(exc)\n"
            "print(json.dumps([dir(ncinv), raised]))")
    listed, raised = fresh(code)
    names = [name for names in EXPORTS.values() for name in names]
    assert set(names) | set(EXPORTS) <= set(listed)
    assert raised == "module 'ncinv' has no attribute 'no_such_name'"


def test_star_import_binds_the_exports_and_modules():
    code = ("import json\n"
            "ns = {}\n"
            "exec('from ncinv import *', ns)\n"
            "print(json.dumps(sorted(k for k in ns if k != '__builtins__')))")
    names = [name for names in EXPORTS.values() for name in names]
    assert fresh(code) == sorted(names + list(EXPORTS))
