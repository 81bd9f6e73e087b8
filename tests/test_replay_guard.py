"""The benchmark's traced replay must still reproduce the program.

`benchmarks/replay.py` re-implements the evaluation path call by call so
`benchmarks/run.py --trace 1` can time each layer; that run fails when the
replay and the program disagree. This test runs the same comparison on a
few episodes so a model change that breaks the replay fails here too, and
also compares per-episode logits bit for bit: an `EvalResult` of an untrained
model, whose logits are about 1e-3, does not move when a float-order change
shifts each logit by 1e-10. The replay module is loaded from its file and
not modified.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from samnet import tensor as T
from samnet import training
from samnet.cell import SAMNet
from samnet.minicog import generate_corpus
from samnet.training import config_from_preset, evaluate_episodes

REPLAY_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "replay.py"


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("samnet_bench_replay", REPLAY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n_slots", [None, 6])
def test_replay_evaluation_matches_the_program(replay, n_slots):
    cfg = config_from_preset("toy-canonical", task_family="all")
    model = SAMNet(cfg.model_config(), init_seed=5)
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               12, seed=11)
    expected = evaluate_episodes(model, episodes, n_slots=n_slots)
    got = replay.evaluate(model, episodes, replay.Tracer(), n_slots=n_slots)
    assert got.loss == expected.loss
    assert got.accuracy == expected.accuracy
    assert got.per_class == expected.per_class


@pytest.mark.parametrize("n_slots", [None, 16])
def test_replay_logits_match_the_program(replay, n_slots):
    cfg = config_from_preset("toy-hard", task_family="all")
    model = SAMNet(cfg.model_config(), init_seed=5)
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               12, seed=11)
    assert len({len(ep.tokens) for ep in episodes}) > 2
    got = training._eval_logits(model, episodes, n_slots, None)
    with T.no_grad():
        for i, ep in enumerate(episodes):
            expected = replay.episode_forward(
                model, ep.token_ids, ep.frames_symbolic(), replay.Tracer(),
                n_slots=n_slots,
            ).data
            assert np.array_equal(got[i], expected), f"episode {i} logits differ"
    result = evaluate_episodes(model, episodes, n_slots=n_slots)
    replayed = replay.evaluate(model, episodes, replay.Tracer(), n_slots=n_slots)
    assert replayed.loss == result.loss
    assert replayed.accuracy == result.accuracy
    assert replayed.per_class == result.per_class
