"""Frozen value types with array fields compare and hash by identity."""

import numpy as np
import pytest

from transched.dataset import PSEUDO_INPUT, RegressionMatrices, TimeSeriesSet
from transched.regression import RidgeSolution
from transched.scheduler import PosteriorResult, Prior
from transched.simulator import ContinuousStateSpace, DiscreteStateSpace
from transched.transmissibility import FirModel, TransmissibilityFamily


def _fir():
    return FirModel(order=0, input_dim=1, theta=np.ones(1), sigma2=1.0)


# each builds a fresh instance of equal content on every call
MAKERS = {
    "TimeSeriesSet": lambda: TimeSeriesSet(sample_rate=1.0, names=("u",), roles=(PSEUDO_INPUT,),
                                           data=[[1.0, 2.0]]),
    "RegressionMatrices": lambda: RegressionMatrices(phi=np.ones((2, 1)), y=np.ones(2),
                                                     order=0, input_dim=1),
    "RidgeSolution": lambda: RidgeSolution(theta=np.ones(1), sigma2=1.0, dof=1, rho=0.0,
                                           kappa_before=1.0, kappa_after=1.0, c_lim=1.0e6),
    "FirModel": _fir,
    "TransmissibilityFamily": lambda: TransmissibilityFamily(kind="primary", labels=("C1",),
                                                             models=(_fir(),)),
    "Prior": lambda: Prior.uniform(2),
    "PosteriorResult": lambda: PosteriorResult(1, np.zeros(2), np.full(2, 0.5), 0),
    "ContinuousStateSpace": lambda: ContinuousStateSpace(np.eye(2), np.ones(2), np.eye(2),
                                                         np.zeros(2)),
    "DiscreteStateSpace": lambda: DiscreteStateSpace(np.eye(2), np.ones(2), np.eye(2),
                                                     np.zeros(2), 0.1),
}


@pytest.mark.parametrize("name", list(MAKERS))
def test_equality_is_identity_and_hash_works(name):
    # a generated __eq__ would raise "truth value ... is ambiguous" on the
    # array fields, and a generated __hash__ a TypeError
    a, b = MAKERS[name](), MAKERS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
