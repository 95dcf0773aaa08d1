"""The benchmark's traced run binds every layer function it names.

``perfbench/run.py --trace 1`` installs ``perfbench/spans.py``'s recorder,
which looks each ``LAYER_FUNCTIONS`` entry up in its home module and binds
a wrapper at every module that holds it.  A package change that deletes or
renames one of those names breaks the traced run; this test breaks first.
"""
import importlib.util
import sys
from pathlib import Path

import delpezzo.cli  # noqa: F401  (imports every module the recorder binds)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every function-valued attribute of every loaded package module, and
    ``PicardLattice.pair``, by (module name, attribute)."""
    bindings = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "delpezzo" or name.startswith("delpezzo.")
        for attr, value in vars(module).items()
        if callable(value)
    }
    bindings["PicardLattice", "pair"] = vars(sys.modules["delpezzo.lattice"].PicardLattice)["pair"]
    return bindings


def test_every_layer_function_resolves_in_its_home_module():
    spans = load_spans()
    for home, attr in spans.LAYER_FUNCTIONS:
        assert callable(getattr(sys.modules[f"delpezzo.{home}"], attr, None)), (home, attr)


def test_install_binds_every_entry_and_uninstall_restores_it():
    spans = load_spans()
    before = package_bindings()
    recorder = spans.Recorder()
    try:
        sites = recorder.install()
        bound = [attr for _, attr, _ in recorder._undo]
        assert sites == len(bound)
        for home, attr in spans.LAYER_FUNCTIONS:
            assert attr in bound, (home, attr)
    finally:
        recorder.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
