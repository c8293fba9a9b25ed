"""The benchmark tracer's seams: every name it wraps still exists.

`perfbench/tracer.py` patches package functions by name and reads some of
their leading positional arguments, so a rename or removal in the package
would break the benchmark, whose own tests are not part of this suite.
"""

import importlib.util
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    sites = tracer._sites()
    assert sites
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, *_ in sites
               if not callable(getattr(owner, attr, None))]
    assert missing == []


@pytest.mark.parametrize("module,name,leading", [
    ("network", "forward", ("net", "x")),
    ("activations", "sample_mask", ("kind", "shape")),
    ("activations", "activate", ("x", "mask")),
    ("activations", "dropout_forward", ("x", "spec")),
    ("inference", "mc_predict", ("net", "x", "n_passes")),
    ("inference", "single_predict", ("net", "x")),
    ("training", "train", ("net", "features", "labels", "opt", "epochs")),
])
def test_hooks_read_the_leading_arguments(tracer, module, name, leading):
    fn = getattr(getattr(tracer, module), name)
    params = list(inspect.signature(fn).parameters)
    assert tuple(params[:len(leading)]) == leading
