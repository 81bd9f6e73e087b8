"""Pinned generator output: corpus bytes and question tokens.

The determinism tests elsewhere compare two runs of the same code; these
digests compare against a fixed record, so a refactor of the oracle, the
templates or the planners that changes any generated byte fails here.

Change a digest only together with a `GENERATOR_VERSION` bump: a corpus
written by the old code must not be mistaken for one written by the new.
"""

import hashlib

import pytest

from samnet.minicog import (
    GENERATOR_VERSION,
    TASK_CLASSES,
    enumerate_programs,
    generate_corpus,
    write_corpus,
)
from samnet.training import config_from_preset

ALL_CLASSES = {c: 1.0 for c in TASK_CLASSES}
EPISODES = 200
SEED = 20191126

CORPUS_DIGESTS = {
    ("toy-canonical", "any"):
        "03a698696d52310cb624ac2bc344d030452b3b832ae01f0032d02d4e8b3f343f",
    ("toy-canonical", "A"):
        "bb0c0733b372fa04e58f37c367c09ff2cef01144674c561ee1453c410644b105",
    ("toy-canonical", "B"):
        "7081776ae36895ef1f8841301f61aecb0749099c7a5d1a638220274a3dd2e729",
    ("toy-hard", "any"):
        "9b97ba2a64a0e216e43b4034196c90fa36e355639010de644d9fa5ee6bb3ce34",
    ("toy-hard", "A"):
        "446dcc423fd69db5d69d6f89eac5cba3024e84482ef63d091744aa0448751a4d",
    ("toy-hard", "B"):
        "b847e41c33b8df50be9dd07669f8d8240b1e87bc77e90da1006b4bedac938ae1",
}
# Windows shorter than the episode, where the generator's widened-window
# check can reject a construction (it rejected 29 and 6 of these 200
# episodes' attempts when the digests were recorded).
SHORT_WINDOW_DIGESTS = {
    ("toy-canonical", 1):
        "0ede6931637a3bce8c3ba850ecf566f87ada29ab869061dc53f244f89a95ff81",
    ("toy-hard", 3):
        "aaf14f08c5bbe0f3eb0d28f98bb02fec3ba04f5625b08fb8f2bb65be28e74b85",
}
TOKENS_DIGEST = (
    "282014b3c42f74ca9dde660e73374e7bcedb745256c2d50b6a7688e7b7b3d542"
)


def test_generator_version_matches_pins():
    assert GENERATOR_VERSION == "minicog-1"


@pytest.mark.parametrize("preset,family", sorted(CORPUS_DIGESTS))
def test_corpus_bytes_are_pinned(tmp_path, preset, family):
    cfg = config_from_preset(preset, family=family).episode_config()
    episodes = generate_corpus(cfg, ALL_CLASSES, EPISODES, SEED)
    assert {ep.program.task_class for ep in episodes} == set(TASK_CLASSES)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, episodes, cfg, ALL_CLASSES, SEED)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CORPUS_DIGESTS[preset, family]


@pytest.mark.parametrize("preset,history", sorted(SHORT_WINDOW_DIGESTS))
def test_short_window_corpus_bytes_are_pinned(tmp_path, preset, history):
    cfg = config_from_preset(preset, family="any",
                             history=history).episode_config()
    episodes = generate_corpus(cfg, ALL_CLASSES, EPISODES, SEED)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, episodes, cfg, ALL_CLASSES, SEED)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SHORT_WINDOW_DIGESTS[preset, history]


def test_program_tokens_are_pinned():
    h = hashlib.sha256()
    count = 0
    for cls in TASK_CLASSES:
        for program in enumerate_programs(cls):
            h.update(" ".join(program.tokens()).encode() + b"\n")
            count += 1
    assert count == 14364
    assert h.hexdigest() == TOKENS_DIGEST
