"""The benchmark's trace wrappers still find every function they name.

perfbench/spans.py lists brauerkit functions by module and name; a
rename or deletion in src/ breaks `perfbench/run.py --trace 1` at
install time.  This test installs the tracer, reads every metric it
reports, and checks that uninstalling restores the originals.
"""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(module, attr):
    # the object each target names: a module attribute, or a class's own method
    mod = importlib.import_module(f"brauerkit.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(mod, cls_name)).get(meth)
    return getattr(mod, attr)


def test_every_span_target_installs_and_uninstalls(spans):
    originals = {(module, attr): _bound(module, attr) for module, attr, _ in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for key, original in originals.items():
            if original is not None:
                assert _bound(*key) is not original, key
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert list(metrics) == spans.metric_names()
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    for key, original in originals.items():
        assert _bound(*key) is original, key
