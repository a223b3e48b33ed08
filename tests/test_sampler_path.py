"""One sampler path: every simulated path is drawn by the batched samplers.

simulate draws one row, whose samplers run the scalar rejection loop on
the one-row stream; avg_loglik_rate draws its replicas as the rows of one
call, and ergodicity_experiment its start x replica rows.  The paths keep
the bits of the scalar samplers that the one-row branch replaced, and a
sampler abort names the step and, over several rows, the replica, in its
message and as its step and replica attributes.
"""
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from filterjet import (
    GridMeasure,
    KernelCache,
    NormalStreams,
    avg_loglik_rate,
    embed,
    ergodicity_experiment,
    labeled_rng,
    labeled_seed,
    posterior_mean_phi,
    simulate,
)
from filterjet import models
from filterjet.cli import run
import filterjet.loglik as loglik

from conftest import THETA, make_model

MODELS = {
    "compact": {},
    "gaussian": {"variant": "gaussian"},
    # about a fifth of the observation trials land in this box
    "narrow-box": {"obs_box": (-0.5, 0.5)},
    # about 900 trials per observation
    "tight-box": {"obs_box": (-0.002, 0.002), "obs_scale": 2.0},
}

# sha256 over seeds 0-19 of the states' and then the observations' bytes of
# simulate(make_model(cells=16, order=1, **MODELS[name]), THETA, uniform, 30, seed),
# recorded with the scalar samplers that the one-row branch replaced.
PATH_DIGESTS = {
    "compact": "19da7594fd8b6d9dc09046bbf700e5ef97fa25825f2f77287fd99facd1da240c",
    "gaussian": "19da7594fd8b6d9dc09046bbf700e5ef97fa25825f2f77287fd99facd1da240c",
    "narrow-box": "9f41c2f403b1fd2a75d9550a4d8ae17734c42d71ff13f0f6c488d1af9011390f",
    "tight-box": "7234fe2ff2b886232647e27c5fd5d0c4a3e6aeaecedf6673416ee172944f5c84",
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_simulated_paths_keep_the_scalar_samplers_bits(name):
    model = make_model(cells=16, order=1, **MODELS[name])
    digest = hashlib.sha256()
    for seed in range(20):
        path = simulate(model, THETA, GridMeasure.uniform(model.grid), 30, seed=seed)
        digest.update(path.states.tobytes())
        digest.update(path.observations.tobytes())
    assert digest.hexdigest() == PATH_DIGESTS[name]


# Batched _draw_paths calls: (model kwargs, theta, starts, replicas, steps).
# Row s * replicas + r starts at starts[s] and reads replica r's stream, as
# ergodicity_experiment's rows do.
BATCHED_DRAWS = {
    # the shipped compact model in the ergodicity workload's shape
    "ergodicity": ({"cells": 24, "order": 1}, THETA, (-2.875, 2.875, 0.125), 20, 40),
    # rows reject in the width-1 round and go on to the wider rounds
    "narrow-box": ({"cells": 16, "order": 1, **MODELS["narrow-box"]}, THETA, (-2.9, 0.0, 1.5), 20, 40),
    # the streams refill and grow, and some rows go on stream by stream
    "tight-box": ({"cells": 16, "order": 1, **MODELS["tight-box"]}, THETA, (-2.9, 0.0, 1.5), 4, 10),
    # every feature kind but zero, in a theta box that spans 0
    "mixed-features": (
        {"cells": 16, "order": 1, "drift": ("one", "sin"), "obs": ("linear", "tanh"),
         "theta_box": ((-1.0, 1.0), (-1.0, 1.0))},
        np.array([-0.3, 0.7]), (-2.9, 0.0, 1.5), 6, 30,
    ),
}

# sha256 over seeds 0-4 of the states' and then the observations' bytes of
# the BATCHED_DRAWS calls on labeled_rng(seed, "ergodicity", r) streams,
# recorded with the sampler code before the first rejection round ran over
# every row without index arrays and the locations were summed by feature kind.
BATCHED_DIGESTS = {
    "ergodicity": "bee3e0f95977678f1919208c51b84615c46f5157eb6622e70bb21d1872fb4454",
    "mixed-features": "e5624c8ccc6a3d3b5631387d341db131aadd6e1343d01e615684ae47614cec78",
    "narrow-box": "79e727d04538dba971cf6240e7a478323033323be19cfd0a457997ef2e416217",
    "tight-box": "1df38a4196fde3adc93835f46db49dcb59207f25b26439bda9b357f6bacf3b0a",
}


def batched_draw_digest(name):
    kwargs, theta, starts, replicas, steps = BATCHED_DRAWS[name]
    model = make_model(**kwargs)
    digest = hashlib.sha256()
    for seed in range(5):
        generators = [labeled_rng(seed, "ergodicity", r) for r in range(replicas)]
        normals = NormalStreams(generators, np.tile(np.arange(replicas), len(starts)))
        states, observations = models._draw_paths(model, theta, np.repeat(starts, replicas), normals, steps)
        digest.update(states.tobytes())
        digest.update(observations.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(BATCHED_DRAWS))
def test_batched_draws_keep_their_recorded_bits(name):
    assert batched_draw_digest(name) == BATCHED_DIGESTS[name]


@pytest.mark.parametrize("name", ["compact", "gaussian", "narrow-box"])
def test_rate_paths_are_the_per_replica_simulate_paths(monkeypatch, name):
    # the (horizon, replicas) observations the rate estimate filters, drawn in one call
    model = make_model(cells=16, order=1, **MODELS[name])
    lam0, data_lam0 = GridMeasure.uniform(model.grid), GridMeasure.point_mass(model.grid, 3)
    data_theta = np.array([0.5, 1.2])
    fold, folded = loglik._fold, []
    monkeypatch.setattr(loglik, "_fold", lambda cache, ys, measure: folded.append(ys) or fold(cache, ys, measure))
    for seed in range(4):
        avg_loglik_rate(model, THETA, lam0, 20, 30, seed=seed, data_theta=data_theta, data_lam0=data_lam0)
        paths = [
            simulate(model, data_theta, data_lam0, 20, seed=labeled_seed(seed, "rate-replica", r)).observations
            for r in range(30)
        ]
        assert np.array_equal(folded[-1], np.stack(paths, axis=1))


def test_a_rate_sampler_abort_names_its_step_and_replica(monkeypatch):
    # each replica drawn alone gives up at its own step, if at all; the
    # batched draw gives up at the first of those steps and names the
    # first replica that gives up there
    monkeypatch.setattr(models, "SAMPLER_MAX_TRIALS", 3000)
    model = make_model(cells=16, order=1, **MODELS["tight-box"])
    lam0 = GridMeasure.uniform(model.grid)
    with pytest.raises(models.SamplerAbort) as info:
        avg_loglik_rate(model, THETA, lam0, 30, 6, seed=5)
    failures = []
    for r in range(6):
        try:
            simulate(model, THETA, lam0, 30, seed=labeled_seed(5, "rate-replica", r))
        except models.SamplerAbort as err:
            message, step = str(err).rsplit(" at step ", 1)
            assert (err.step, err.replica) == (int(step), None)
            failures.append((int(step), r, message))
    step, r, message = min(failures)
    assert step > 1 and len(failures) > 1
    assert str(info.value) == f"{message} for replica {r} at step {step}"
    assert (info.value.step, info.value.replica) == (step, r)


def test_an_ergodicity_sampler_abort_names_its_step_and_replica(monkeypatch):
    # the named row, drawn alone from its replica's stream, gives up at the named step
    monkeypatch.setattr(models, "SAMPLER_MAX_TRIALS", 3000)
    model = make_model(cells=16, order=1, **MODELS["tight-box"])
    grid, iset = model.grid, model.index_set()
    starts = [
        (float(grid.axis(0)[0]), -0.001, embed(GridMeasure.point_mass(grid, 0), iset)),
        (1.5, 0.0, embed(GridMeasure.uniform(grid), iset)),
    ]
    replicas = 3
    with pytest.raises(models.SamplerAbort) as info:
        ergodicity_experiment(model, THETA, posterior_mean_phi(model), starts, [0, 40], replicas, seed=5)
    named = re.fullmatch(r"(no draw inside \[-0\.002, 0\.002\] .*) for replica (\d+) at step (\d+)", str(info.value))
    assert named, str(info.value)
    row, step = int(named[2]), int(named[3])
    assert step > 1
    assert (info.value.step, info.value.replica) == (step, row)
    start, replica = divmod(row, replicas)
    alone = NormalStreams([labeled_rng(5, "ergodicity", replica)], [0])
    with pytest.raises(models.SamplerAbort) as one_row:
        models._draw_paths(model, THETA, np.array([starts[start][0]]), alone, 40)
    assert str(one_row.value) == f"{named[1]} at step {step}"
    assert (one_row.value.step, one_row.value.replica) == (step, None)


def test_a_vanished_compact_normalizer_names_the_box_the_state_and_theta():
    model = make_model(cells=24, order=1, obs_box=(5.0, 6.0), obs_scale=0.1)
    named = (
        r"^observation normalizer vanished on the quadrature over obs_box \[5\.0, 6\.0\] "
        r"at grid state x = -2\.875 at theta \[0\.8, 0\.9\]$"
    )
    with pytest.raises(ValueError, match=named):
        KernelCache(model, THETA)


def test_the_tail_box_ergodicity_config_exits_3_naming_the_normalizer(tmp_path, monkeypatch, capsys):
    # the repro of CI's tail-box step: the cache build aborts before any draw
    monkeypatch.setenv("FILTERJET_OUTDIR", str(tmp_path / "out"))
    cfg = tmp_path / "tail.cfg"
    shipped = (Path(__file__).resolve().parents[1] / "configs" / "ergodicity.cfg").read_text()
    cfg.write_text(shipped + "\n[model]\nobs_min = 5\nobs_max = 6\nobs_scale = 0.1\n")
    assert run("ergodicity", str(cfg)) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "numerical abort in ergodicity: observation normalizer vanished on the quadrature over obs_box [5.0, 6.0] "
    ), err
