"""Pinned trained-model output: metrics, checkpoint payloads and eval JSON.

The determinism tests elsewhere compare two runs of the same tree; these
digests compare against a fixed record, so a change to the forward, the
backward, the loss or the optimizer that moves any trained bit fails here.

The digests depend on the float arithmetic of numpy and its BLAS. They were
recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas64, Haswell
kernels) on x86-64. Change a digest only together with a `CHANGES.md` line
that says why the trained bits moved.
"""

import hashlib
import json

import pytest

from samnet.checkpoint import load_checkpoint
from samnet.cli import main
from samnet.minicog import generate_corpus, write_corpus
from samnet.training import config_from_preset, train

# (preset, batch size, steps, validate every, validation episodes). Batch 6
# is not a multiple of four episodes.
RUNS = {
    "toy-canonical": (8, 12, 4, 60),
    "toy-hard": (6, 6, 3, 40),
}
# A model without memory: its gates g_m, h_r and h_a are forced to 0, so
# only g_v carries a gradient into the gate network.
MEMORYLESS_RUN = ("toy-canonical", 8, 10, 2, 40)
EVAL_EPISODES = 120
EVAL_SEED = 20191126

RUN_DIGESTS = {
    "toy-canonical": {
        "metrics.csv":
            "e3640a7881ea2839ec3a0f49a8ae8357bda736c454d4ac81e2d2ea1b0cfab702",
        "final.ckpt":
            "3ed589fae721ddd6ccbb9de4febaca93741c2fa2e26a0ad86b2b40cda8bdbdd4",
        "best.ckpt":
            "1259c3da2a1ff55dceeaf8d8b0bf625f538393a95e4e28be9209c276d6be45ef",
    },
    "toy-hard": {
        "metrics.csv":
            "b8f20a9b0396837ace45af949ac92a48f194804b740505a77237059286784f1e",
        "final.ckpt":
            "b49b7b2ea703a6d94fdfbf04ddab68b6bec02391d47c17122d5c178c349377d4",
        "best.ckpt":
            "82f4f9c7837ad58cd04a397b9f636329f5fc1f110797df97ae7080a28384d929",
    },
}
MEMORYLESS_DIGESTS = {
    "metrics.csv":
        "def5a0cbeba5b85ad0e6a9a3bb492ab9c8aafef4ba17ab085b4be6058a793d0d",
    "final.ckpt":
        "e25680aa5966f84db37d0b9a206339f12bb4f40c90be4c146e134c9c3f0bb50b",
    "best.ckpt":
        "1f58e4ed2bee894506f66954942a1e24d8fa57d6b085ec4d199698aa1174ac2e",
}
EVAL_DIGESTS = {
    ():
        "4a35d50850ff5dcbedc9ba2ff5d2f18ccd0f2d1f907736c0937a2ed40783120a",
    ("--mem-slots", "16"):
        "c3e726893391ca027420a62a96875a1fdae111f9bd17bb9cd3911d9d9507d844",
    ("--ablate-writes",):
        "1606918baca351c514d8c2bfe5da6518e7d32041067c99105eddae379abf5173",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_digest(path) -> str:
    """Digest of a checkpoint's parameters in stored order. The header is
    left out: it names the output directory."""
    arrays, _, _ = load_checkpoint(path)
    h = hashlib.sha256()
    for name, array in arrays.items():
        h.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for preset, (batch, steps, every, val) in RUNS.items():
        cfg = config_from_preset(
            preset, task_family="all", batch_size=batch, max_steps=steps,
            eval_every=every, val_episodes=val,
            out_dir=str(tmp_path_factory.mktemp(preset)))
        out[preset] = (cfg, train(cfg, deterministic=True))
    return out


@pytest.mark.parametrize("preset", sorted(RUNS))
def test_trained_run_is_pinned(runs, preset):
    _, result = runs[preset]
    with open(result.metrics_path, "rb") as fh:
        got = {"metrics.csv": sha256(fh.read()),
               "final.ckpt": payload_digest(result.final_checkpoint),
               "best.ckpt": payload_digest(result.best_checkpoint)}
    assert got == RUN_DIGESTS[preset]


def test_memoryless_run_is_pinned(tmp_path):
    # the gradient path of forced gates, which evaluation pins do not reach
    preset, batch, steps, every, val = MEMORYLESS_RUN
    cfg = config_from_preset(
        preset, task_family="all", memory_enabled=False, batch_size=batch,
        max_steps=steps, eval_every=every, val_episodes=val,
        out_dir=str(tmp_path))
    result = train(cfg, deterministic=True)
    with open(result.metrics_path, "rb") as fh:
        got = {"metrics.csv": sha256(fh.read()),
               "final.ckpt": payload_digest(result.final_checkpoint),
               "best.ckpt": payload_digest(result.best_checkpoint)}
    assert got == MEMORYLESS_DIGESTS


def test_eval_json_is_pinned(runs, tmp_path, capsys):
    cfg, result = runs["toy-hard"]
    corpus = str(tmp_path / "eval.jsonl")
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               EVAL_EPISODES, seed=EVAL_SEED)
    write_corpus(corpus, episodes, cfg.episode_config(),
                 cfg.task_family_weights(), seed=EVAL_SEED)
    got = {}
    for flags in EVAL_DIGESTS:
        capsys.readouterr()
        assert main(["eval", "--ckpt", result.final_checkpoint,
                     "--data", corpus, *flags]) == 0
        text = capsys.readouterr().out
        assert json.loads(text)["episodes"] == EVAL_EPISODES
        got[flags] = sha256(text.encode())
    assert got == EVAL_DIGESTS
