"""The package's record types: validation on every construction path, and
the value semantics of squeezesim.records."""

import copy
import pickle

import numpy as np
import pytest

from squeezesim import (
    BchCoeffs,
    FitResult,
    FrequencyProfile,
    InstSqueezeParams,
    PostTransitionSummary,
    SimulationConfig,
    SqueezeParams,
    Trajectory,
    bogoliubov_coeffs,
    compose_bch,
    tanh_profile,
)

# (a valid record, a field and a value its validation rejects) for each
# record that validates
VALIDATING = [
    (SqueezeParams(0.5, 0.1), "r", -1.0),
    (InstSqueezeParams(0.5, 0.1), "Phi", float("inf")),
    (bogoliubov_coeffs(0.3), "gamma1", 0.5),
    (compose_bch(SqueezeParams(0.5, 0.1), bogoliubov_coeffs(0.3)), "alpha", 1.5 + 0j),
    (tanh_profile(1.0, 3.0, 10.0, 0.5), "epsilon", -1.0),
    (SimulationConfig(), "n_slices", 0),
]
IDS = [type(rec).__name__ for rec, _, _ in VALIDATING]


def _fields(rec) -> dict:
    return {name: getattr(rec, name) for name in type(rec).__slots__}


@pytest.mark.parametrize("rec, name, bad", VALIDATING, ids=IDS)
def test_invalid_field_rejected_on_every_construction_path(rec, name, bad):
    with pytest.raises(ValueError):
        type(rec)(**_fields(rec) | {name: bad})
    with pytest.raises(ValueError):
        rec._replace(**{name: bad})


@pytest.mark.parametrize("rec, name, bad", VALIDATING, ids=IDS)
def test_frozen_records_reject_assignment(rec, name, bad):
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, bad)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):  # no field can be added either
        rec.extra = 1
    assert getattr(rec, name) == before


@pytest.mark.parametrize("rec", [rec for rec, _, _ in VALIDATING], ids=IDS)
def test_value_semantics(rec):
    same = rec._replace()
    assert same == rec and same is not rec and hash(same) == hash(rec)
    assert rec != tuple(_fields(rec).values())
    for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(clone) is type(rec) and clone == rec
    fields = ", ".join(f"{k}={v!r}" for k, v in _fields(rec).items())
    assert repr(rec) == f"{type(rec).__name__}({fields})"


def test_replace_runs_the_normalisation_and_rejects_unknown_fields():
    sp = SqueezeParams(0.5, 0.1)
    assert sp._replace(phi=4.0).phi == pytest.approx(4.0 - 2.0 * np.pi)
    assert InstSqueezeParams(0.5, 0.1)._replace(R=0.0, beta_mod=None).beta_mod == 1.0
    with pytest.raises(TypeError):
        sp._replace(R=1.0)
    assert SimulationConfig()._replace(n_slices=512) == SimulationConfig(n_slices=512)


def test_profile_is_still_callable_and_keyword_constructible():
    p = FrequencyProfile(kind="jump", omega0=1.0, omegaf=3.0, t0=10.0)
    assert p(9.0) == 1.0 and p(11.0) == 3.0
    assert p == FrequencyProfile("jump", 1.0, 3.0)
    assert p != FrequencyProfile("jump", 1.0, 3.0, 11.0)


def test_trajectory_is_mutable_unhashable_and_counts_records():
    arrays = [np.zeros(3) for _ in range(9)]
    traj = Trajectory(*arrays, profile=tanh_profile(), n_slices=2)
    assert len(traj) == 3
    assert traj.delta_history == []
    assert Trajectory(*arrays, tanh_profile(), 2).delta_history is not traj.delta_history
    traj.converged = True
    assert traj.converged is True
    with pytest.raises(TypeError):
        hash(traj)
    r = np.ones(3)
    moved = traj._replace(r=r)
    assert moved.r is r and moved.t is traj.t and moved.converged is True


def test_results_are_named_tuples():
    fit = FitResult(2.0, 1.0, 0.0, 3, "grid")
    c1, c2, *_ = fit
    assert (c1, c2) == (2.0, 1.0) and fit == (2.0, 1.0, 0.0, 3, "grid")
    assert fit._replace(c2=0.5).c2 == 0.5
    with pytest.raises(AttributeError):
        fit.c1 = 3.0
    assert PostTransitionSummary._fields[:2] == ("window_start", "window_end")


def test_bch_message_shows_the_record():
    with pytest.raises(ValueError, match=r"got BchCoeffs\(alpha=\(nan\+0j\), beta=1.0, gamma=0.0\)"):
        BchCoeffs(complex("nan"), 1.0, 0.0)

