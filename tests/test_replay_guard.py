"""The benchmark's traced replay must still reproduce the program.

`benchmarks/replay.py` re-implements the evaluation path call by call so
`benchmarks/run.py --trace 1` can time each layer; that run fails when the
replay and the program disagree. This test runs the same comparison on a
few episodes so a model change that breaks the replay fails here too. The
replay module is loaded from its file and not modified.
"""

import importlib.util
from pathlib import Path

import pytest

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
