"""Library errors keep their type, message and attributes through pickle.

Suite rows run in worker processes, and a row's error reaches the caller
pickled.
"""

import pickle

import pytest

from rra_uq import errors


def error_types(cls=errors.RraError):
    return [cls] + [sub for direct in cls.__subclasses__() for sub in error_types(direct)]


@pytest.mark.parametrize("cls", error_types(), ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    err = cls("value 3 is out of range")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)
