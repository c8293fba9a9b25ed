"""Library errors keep their type, message and attributes through pickle.

Suite rows run in worker processes, and a row's error reaches the caller
pickled.
"""

import pickle

import pytest

from rra_uq import errors


def error_types(cls=errors.RraError):
    return [cls] + [sub for direct in cls.__subclasses__() for sub in error_types(direct)]


def examples(cls):
    if cls is errors.TrainingDivergence:
        return [cls(3), cls(7, "loss went NaN in member 2")]
    return [cls("value 3 is out of range")]


@pytest.mark.parametrize("cls", error_types(), ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    for err in examples(cls):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert back.args == err.args
        assert vars(back) == vars(err)


def test_training_divergence_keeps_its_epoch():
    back = pickle.loads(pickle.dumps(errors.TrainingDivergence(3)))
    assert back.epoch == 3
    assert str(back) == "non-finite training loss at epoch 3"
