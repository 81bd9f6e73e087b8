"""A guard that the model learns at all.

The model pins detect a change of bits, not a loss of learning: a training
loop that stopped updating the weights would fail them only until they
were re-pinned. This trains `toy-canonical` on the Exist classes (yes/no
answers) for 100 steps of batch 16, about 3.5 s, and asserts an accuracy
on 64 held-out episodes well above the majority-answer rate.

Readings (init seeds 0-9, each with data seed init seed + 1, validation
seed 2; the test runs init seed 0): accuracy 0.750-0.781, median 0.766,
against a majority rate of 0.492, so a margin of 0.258-0.289. The test
asks for 0.20: 0.058 below the lowest reading, about twice the spread over
seeds. With the Adam step skipped the test fails: the untrained model
answers neither yes nor no and scores 0.0.
"""

from samnet import training
from samnet.minicog import generate_corpus

MARGIN = 0.20


def test_training_beats_the_majority_answer(tmp_path):
    cfg = training.config_from_preset(
        "toy-canonical", task_family="Exist", batch_size=16, max_steps=100,
        eval_every=0, val_episodes=64, val_seed=2, init_seed=0, data_seed=1,
        out_dir=str(tmp_path))
    result = training.train(cfg)
    val = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                          cfg.val_episodes, seed=cfg.val_seed)
    majority = training.majority_class_rate(val)
    [(step, accuracy, _)] = result.history
    assert step == 100
    assert accuracy >= majority + MARGIN, (accuracy, majority)
