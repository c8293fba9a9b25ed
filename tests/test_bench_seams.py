"""The benchmark tracer's seams: every name it wraps still exists.

`perfbench/tracer.py` patches package functions by name, reads some of
their leading positional arguments and some attributes of what they take
and return, so a rename or removal in the package would break the
benchmark, whose own tests are not part of this suite.
"""

import importlib.util
import inspect
import os

import numpy as np
import pytest

from rra_uq import experiments as exp
from rra_uq import network as nn
from rra_uq.rng import RngStream
from rra_uq.training import OptimizerState, train

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


def test_hooks_read_the_attributes(tracer):
    # _layer_flops walks a built network's layer specs
    layers = exp.build_architecture("cnn-small", (1, 9, 9), 3, exp.method_spec("single"))
    net = nn.build_network(layers, (1, 9, 9), RngStream(0))
    assert net.input_shape == (1, 9, 9)
    convs = [(l.padding, l.in_channels, l.out_channels, l.kernel_size, l.stride)
             for l in net.layers if isinstance(l, nn.Conv2d)]
    assert convs == [("valid", 1, 8, 3, 1), ("valid", 8, 16, 3, 2)]
    dense = [(l.in_dim, l.out_dim) for l in net.layers if isinstance(l, nn.Dense)]
    assert dense == [(16 * 3 * 3, 64), (64, 3)]
    macs = 7 * 7 * 8 * 1 * 9 + 3 * 3 * 16 * 8 * 9 + 144 * 64 + 64 * 3
    assert tracer._layer_flops(net, 2) == 2 * 2 * macs
    # the rng hooks read a stream's counter, the train hook its result's steps
    stream = RngStream(1)
    before = stream.counter
    stream.uniform(0.0, 1.0, (5,))
    assert stream.counter - before == 5
    # training.steps counts member-steps: 2 members x 3 batches of one epoch
    stack = nn.build_members(layers, (1, 9, 9), [RngStream(0), RngStream(4)])
    result = train(stack, RngStream(2).normal(0.0, 1.0, (5, 1, 9, 9)), np.arange(5) % 3,
                   OptimizerState(0.01), 1, 2, [RngStream(3), RngStream(5)])
    assert result.steps == 6
