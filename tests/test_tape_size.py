"""A guard on what a training tape holds per episode.

`training._train_chunk` forwards and back-propagates a chunk of episodes on
one tape, and `training._TAPE_BUDGET` sizes the chunks from what that tape
holds per episode. The tracemalloc peak of one chunk of the budget's size,
per episode, must stay within 5% of its last reading, for toy-canonical,
toy-hard and six-frame toy-canonical videos (the temporal transfer
target): 23, 8 and 15 episodes per tape at a budget of eight toy-hard
episodes. The readings were last taken when the budget rose to that from
16, 5 and 10 episodes, and each pin fell (294 -> 279, 779 -> 733 and 431 ->
419 KB). Each of these broke all three against the readings when the
first budget was set:
- `Tensor.backward` keeping the values it has swept: +20%, +27%, +19%;
- the frame CNN keeping both layers' pre-activations on the tape: +16%,
  +17%, +16%;
- one per-frame copy of the frame features: +8%, +9%, +8%.
Numpy's small-buffer cache moves a reading by up to about 1.5%.

One episode's loss records a fixed number of tape nodes per preset, which
the README quotes; the count and the README change together. A chunk's
tape records as many nodes whatever its questions' lengths: one padded
batch runs each op once.
"""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from samnet import tensor as T
from samnet import training
from samnet.cell import SAMNet
from samnet.minicog import generate_corpus
from samnet.training import config_from_preset

# KB per episode, measured with numpy 2.4.6 on CPython 3.11
MEASURED_KB = {"toy-canonical": 279, "toy-hard": 733, "six-frame": 419}
# tape nodes of one episode's loss
EPISODE_TAPE_NODES = {"toy-canonical": 713, "toy-hard": 1365}
README = Path(__file__).resolve().parents[1] / "README.md"


def chunk_peak_kb_per_episode(preset, **overrides):
    cfg = config_from_preset(preset, task_family="all", **overrides)
    size = training._train_chunk_size(cfg)
    model = SAMNet(cfg.model_config(), init_seed=3)
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               size, seed=9)
    training._train_chunk(model, episodes[:2])  # first-call allocations
    model.store.zero_grad()
    tracemalloc.start()
    try:
        training._train_chunk(model, episodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return size, peak / size / 1024


# each shape's preset and overrides, and the episodes per tape of the budget
SHAPES = {
    "toy-canonical": ("toy-canonical", {}, 23),
    "toy-hard": ("toy-hard", {}, 8),
    "six-frame": ("toy-canonical", {"frames": 6}, 15),  # the transfer target
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tape_peak_per_episode_stays_under_its_ceiling(shape):
    preset, overrides, size = SHAPES[shape]
    got_size, kb = chunk_peak_kb_per_episode(preset, **overrides)
    assert got_size == size
    assert kb <= 1.05 * MEASURED_KB[shape], f"{kb:.0f} KB per episode"


def tape_nodes(root) -> int:
    """Nodes that `Tensor.backward` visits from `root`."""
    visited = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in visited:
            visited.add(id(node))
            stack += [p for p in node._parents if p.requires_grad]
    return len(visited)


@pytest.mark.parametrize("preset", sorted(EPISODE_TAPE_NODES))
def test_episode_tape_nodes_are_the_readme_count(preset):
    cfg = config_from_preset(preset, task_family="all")
    model = SAMNet(cfg.model_config(), init_seed=3)
    [ep] = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                           1, seed=9)
    loss = model.episode_loss(ep.token_ids, ep.frames_symbolic(), ep.answer_ids)
    count = EPISODE_TAPE_NODES[preset]
    assert tape_nodes(loss) == count
    readme = " ".join(README.read_text(encoding="utf-8").split())
    assert re.search(rf"`{preset}` episode (records )?{count:,}\b",
                     readme), f"README does not quote {count:,} for {preset}"


def test_chunk_tape_nodes_do_not_depend_on_question_lengths():
    cfg = config_from_preset("toy-canonical", task_family="all")
    model = SAMNet(cfg.model_config(), init_seed=3)
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               16, seed=9)
    questions = [ep.token_ids for ep in episodes]
    assert len({len(q) for q in questions}) > 2
    frames = np.stack([ep.frames_symbolic() for ep in episodes])
    answers = [ep.answer_ids for ep in episodes]
    counts = []
    for batch in (questions, [max(questions, key=len)] * 16, [[1]] * 16):
        with T.episode_batch():
            counts.append(tape_nodes(model.episode_loss(batch, frames, answers)))
    assert counts == [EPISODE_TAPE_NODES["toy-canonical"]] * 3
