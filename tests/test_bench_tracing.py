"""The benchmark's tracer must find every library name it wraps.

``bench/tracing.py`` rebinds library functions by name, so deleting or
renaming one breaks the traced benchmark run.  This test builds the
library namespace the way ``bench/run.py`` does and enters the tracer;
it reads ``bench/`` and changes nothing there.
"""

import importlib
import io
from argparse import Namespace
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    lib = SimpleNamespace(**{layer: importlib.import_module(f"abelcheck.{layer}") for layer in run.LAYERS})
    originals = {(module, attr): getattr(getattr(lib, module), attr) for _, module, attr in tracing.SPANS}
    # The workloads also read these names directly.
    assert callable(lib.deciders.in_pure_injectivity_domain_of_witness)
    assert callable(lib.finite.Subgroup.generating_set)

    with tracing.Tracer(lib) as tracer:
        for (module, attr), fn in originals.items():
            assert getattr(getattr(lib, module), attr) is not fn, f"{module}.{attr} not wrapped"
        finite = lib.finite
        assert not finite.is_relatively_injective(finite.FiniteAbelianGroup([2]),
                                                  finite.FiniteAbelianGroup([4]))
        with redirect_stdout(io.StringIO()):
            assert lib.cli.cmd_analyze(Namespace(expression="tower(2) + Q", json=True)) == 0
    for (module, attr), fn in originals.items():
        assert getattr(getattr(lib, module), attr) is fn, f"{module}.{attr} not restored"

    # The library reaches the Smith reduction and the hom enumeration
    # through the names the tracer rebinds.
    layers = tracer.per_layer(1)
    assert layers["finite.enumerate_subgroups.calls"] == 1
    assert layers["snf.smith_normal_form.calls"] > 0
    assert layers["finite.homs_enumerated"] > 0
    # JSON output is written through cli._emit, so the traced benchmark
    # times it as the cli.emit span.
    assert layers["cli.emit.calls"] == 1
    assert layers["groups.structural_predicates.calls"] == 1
