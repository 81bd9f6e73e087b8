import itertools
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from samnet import tensor as T
from samnet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from samnet.minicog import episode_stream, generate_corpus
from samnet.training import (
    Adam,
    NonFiniteLossError,
    TrainConfig,
    blind_prior_rate,
    clip_global_norm,
    config_from_kv,
    config_from_preset,
    evaluate_checkpoint,
    evaluate_episodes,
    load_eval_data,
    load_model,
    majority_class_rate,
    parse_config_file,
    train,
)


DATA = Path(__file__).resolve().parent / "data"
# A toy-canonical model (d=8, steps=2, mem_slots=3, one Adam step) saved
# while checkpoints still carried `hyper gate_mode softmax` and
# `hyper cfg.gate_mode softmax`, with its logits on four seeded episodes.
GATE_MODE_CKPT = DATA / "gate_mode_header.ckpt"
GATE_MODE_LOGITS = DATA / "gate_mode_header_logits.npy"


def write_non_finite(path, arrays, hypers, name, index, value):
    """Save a checkpoint, then set entry `index` of parameter `name` to a
    non-finite `value` in the file: `save_checkpoint` refuses to write one."""
    save_checkpoint(path, arrays, hypers)
    _, _, manifest = load_checkpoint(path)
    [line] = [l for l in manifest.splitlines() if l.startswith(f"param {name} ")]
    at = len(manifest.encode("utf-8")) + int(line.split()[-1]) + 4 * index
    raw = bytearray(path.read_bytes())
    raw[at:at + 4] = np.array(value, dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))


def tiny_cfg(out_dir, **kw):
    base = dict(
        d=16, reasoning_steps=2, mem_slots=3,
        grid_height=3, grid_width=3, frames=2, history=1, distractors=1,
        max_objects=4, task_family="Basic",
        learning_rate=3e-4, batch_size=4, max_steps=4, eval_every=2,
        val_episodes=12, out_dir=str(out_dir),
    )
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_round_trip_through_kv(self):
        cfg = tiny_cfg("x", memory_enabled=False)
        cfg2, _ = config_from_kv(cfg.to_kv())
        assert cfg2 == cfg

    def test_config_file_with_preset_and_overrides(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text(
            "# comment\npreset = toy-canonical\nmax_steps = 7\n"
            "task_family = Basic\n"
        )
        cfg = parse_config_file(p)
        assert cfg.d == 64
        assert cfg.max_steps == 7
        assert cfg.frames == 4 and cfg.history == 3 and cfg.distractors == 1

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            parse_config_file(p)

    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("false", False), (" NO ", False),
    ])
    def test_booleans_read_strictly(self, tmp_path, raw, value):
        p = tmp_path / "c.conf"
        p.write_text(f"memory_enabled = {raw}\n")
        assert parse_config_file(p).memory_enabled is value

    @pytest.mark.parametrize("raw", ["ture", "2", "on", ""])
    def test_bad_boolean_names_the_key(self, tmp_path, raw):
        p = tmp_path / "c.conf"
        p.write_text(f"memory_enabled = {raw}\n")
        with pytest.raises(ValueError, match="memory_enabled"):
            parse_config_file(p)

    @pytest.mark.parametrize("line", [
        "max_steps = two", "batch_size = 3.5", "d = ",
        "learning_rate = fast", "learning_rate = 1e-3x",
    ])
    def test_bad_number_names_the_key(self, tmp_path, line):
        key, _, raw = line.partition(" = ")
        p = tmp_path / "c.conf"
        p.write_text(line + "\n")
        with pytest.raises(ValueError, match=f"^{key}: expected .*{raw!r}"):
            parse_config_file(p)

    @pytest.mark.parametrize("key, value, message", [
        ("batch_size", 0, "must be >= 1, got 0"),
        ("max_steps", -1, "must be >= 0, got -1"),
        ("d", 7, "must be even, got 7"),
        ("d", 0, "must be >= 2, got 0"),
        ("reasoning_steps", 0, "must be >= 1, got 0"),
        ("mem_slots", 0, "must be >= 1, got 0"),
        ("eval_every", -1, "must be >= 0, got -1"),
        ("init_seed", -1, "must be >= 0, got -1"),
        ("data_seed", -1, "must be >= 0, got -1"),
        ("val_seed", -1, "must be >= 0, got -1"),
        ("learning_rate", 0.0, "must be finite and > 0, got 0.0"),
        ("learning_rate", -1e-3, "must be finite and > 0, got -0.001"),
        ("learning_rate", float("nan"), "must be finite and > 0, got nan"),
        ("learning_rate", float("inf"), "must be finite and > 0, got inf"),
        ("grad_clip", -1.0, "must be finite and >= 0, got -1.0"),
        ("grad_clip", float("nan"), "must be finite and >= 0, got nan"),
        ("grad_clip", float("inf"), "must be finite and >= 0, got inf"),
    ])
    def test_bad_count_names_the_key(self, key, value, message):
        # before any training: batch_size 0 made every step divide by zero,
        # a negative seed ended in numpy's ValueError and a NaN learning
        # rate in a bare NonFiniteError
        with pytest.raises(ValueError, match=f"^{key}: {message}$"):
            config_from_preset("toy-canonical", **{key: value})

    def test_zero_grad_clip_and_eval_every_are_accepted(self):
        # 0 means no clipping and no periodic evaluation
        cfg = config_from_preset("toy-canonical", grad_clip=0.0, eval_every=0)
        assert (cfg.grad_clip, cfg.eval_every) == (0.0, 0)

    def test_unknown_preset_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("preset = nope\n")
        with pytest.raises(ValueError, match="nope"):
            parse_config_file(p)


class TestOptimizer:
    def test_adam_minimizes_quadratic(self):
        from samnet.params import ParameterStore
        store = ParameterStore(np.random.default_rng(0))
        x = store.new("x", (3,))
        x.data = np.array([5.0, -3.0, 2.0], dtype=np.float32)
        opt = Adam(store.parameters(), lr=0.1)
        for _ in range(200):
            grads = [2.0 * x.data]
            opt.step(grads)
        assert np.abs(x.data).max() < 1e-2

    def test_clip_global_norm(self):
        grads = [np.array([3.0, 4.0])]
        clipped, norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(clipped[0]) == pytest.approx(1.0)
        same, norm2 = clip_global_norm(grads, 10.0)
        assert norm2 == pytest.approx(5.0)
        assert np.array_equal(same[0], grads[0])


class TestTraining:
    def test_zero_steps_emits_initial_checkpoint_and_no_rows(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", max_steps=0)
        result = train(cfg)
        assert os.path.exists(result.final_checkpoint)
        lines = open(result.metrics_path).read().splitlines()
        assert len(lines) == 1  # header only
        assert lines[0].startswith("step,split,loss,accuracy,seconds")

    def test_metrics_columns_cover_family_classes(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run")
        result = train(cfg)
        header = open(result.metrics_path).read().splitlines()[0].split(",")
        for cls in ("Exist", "ExistColor", "ExistShape", "GetColor", "GetShape"):
            assert f"acc_{cls}" in header

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", max_steps=4)
        ra = train(cfg, deterministic=True)
        first_ckpt = open(ra.final_checkpoint, "rb").read()
        first_metrics = open(ra.metrics_path).read()
        rb = train(cfg, deterministic=True)  # same config, same out_dir
        assert open(rb.final_checkpoint, "rb").read() == first_ckpt
        assert open(rb.metrics_path).read() == first_metrics

    def test_non_finite_loss_aborts_with_diagnostic(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", learning_rate=1e8, max_steps=50,
                       eval_every=1)
        with pytest.raises(NonFiniteLossError, match="episode seeds"):
            with np.errstate(all="ignore"):
                train(cfg)
        # last-good checkpoint still loads
        model, _ = load_model(str(tmp_path / "run" / "final.ckpt"))
        assert model is not None

    def test_zero_val_episodes_rejected_before_any_checkpoint(self, tmp_path):
        with pytest.raises(ValueError, match="val_episodes: must be >= 1, got 0"):
            train(tiny_cfg(tmp_path / "run", val_episodes=0))
        assert not (tmp_path / "run").exists()

    def test_unknown_task_family_rejected_before_any_directory(self, tmp_path):
        with pytest.raises(ValueError, match="task_family: unknown task family"):
            tiny_cfg(tmp_path / "run", task_family="Bogus")
        cfg = tiny_cfg(tmp_path / "run")
        cfg.task_family = "Bogus"  # set after the config's own checks
        with pytest.raises(ValueError, match="unknown task family"):
            train(cfg)
        assert not (tmp_path / "run").exists()

    def test_empty_evaluation_rejected(self):
        from samnet.cell import SAMNet
        model = SAMNet(tiny_cfg("x").model_config(), init_seed=0)
        with pytest.raises(ValueError, match="at least one episode"):
            evaluate_episodes(model, [])

    def test_checkpoint_round_trip_evaluation_bit_identical(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run")
        result = train(cfg)
        episodes = generate_corpus(cfg.episode_config(),
                                   cfg.task_family_weights(), 20, seed=9)
        model, _ = load_model(result.final_checkpoint)
        direct = evaluate_episodes(model, episodes)
        reloaded, _ = evaluate_checkpoint(result.final_checkpoint, episodes)
        assert direct.accuracy == reloaded.accuracy
        assert direct.loss == reloaded.loss

    def test_mem_slot_override_executes(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run")
        result = train(cfg)
        episodes = generate_corpus(cfg.episode_config(),
                                   cfg.task_family_weights(), 10, seed=4)
        bigger, _ = evaluate_checkpoint(result.final_checkpoint, episodes,
                                        n_slots=8)
        assert 0.0 <= bigger.accuracy <= 1.0

    def test_per_class_map_covers_present_classes(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run")
        result = train(cfg)
        episodes = generate_corpus(cfg.episode_config(),
                                   {"Exist": 1.0, "GetColor": 1.0}, 30, seed=5)
        res, _ = evaluate_checkpoint(result.final_checkpoint, episodes)
        assert set(res.per_class) == {"Exist", "GetColor"}

    def test_warm_start_from_checkpoint(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run")
        result = train(cfg)
        cfg2 = tiny_cfg(tmp_path / "run2", max_steps=1)
        result2 = train(cfg2, init_from=result.final_checkpoint)
        assert os.path.exists(result2.final_checkpoint)


class TestEvalData:
    def test_load_from_corpus_file(self, tmp_path):
        from samnet.minicog import EpisodeConfig, write_corpus
        cfg = EpisodeConfig(height=3, width=3, frames=2, history=1,
                            max_objects=4)
        fam = {"Exist": 1.0}
        episodes = generate_corpus(cfg, fam, 8, seed=1)
        path = tmp_path / "c.jsonl"
        write_corpus(path, episodes, cfg, fam, seed=1)
        loaded = load_eval_data(path)
        assert len(loaded) == 8

    def test_load_from_config_file(self, tmp_path):
        p = tmp_path / "data.conf"
        p.write_text(
            "grid_height = 3\ngrid_width = 3\nframes = 2\nhistory = 1\n"
            "max_objects = 4\ntask_family = Basic\nval_episodes = 6\n"
            "val_seed = 11\n"
        )
        episodes = load_eval_data(p)
        assert len(episodes) == 6

    def test_majority_class_rate(self):
        from samnet.minicog import EpisodeConfig
        cfg = EpisodeConfig(height=3, width=3, frames=2, history=1,
                            max_objects=4)
        episodes = generate_corpus(cfg, {"Exist": 1.0}, 50, seed=2)
        rate = majority_class_rate(episodes)
        assert 0.3 <= rate <= 0.8

    def test_blind_prior_rate_is_the_probe_baseline(self):
        """The probe's baselines on its 500 validation episodes (ROADMAP):
        the blind prior, fitted on the first 3,000 training-stream
        episodes, and the global majority answer. 3 of the 93 fitted keys
        tie; taking the smallest answer id on a tie would read 0.506."""
        cfg = config_from_preset("toy-canonical", task_family="all")
        stream = episode_stream(cfg.episode_config(), cfg.task_family_weights(),
                                cfg.data_seed)
        fit = list(itertools.islice(stream, 3000))
        val = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                              500, seed=cfg.val_seed)
        assert (cfg.data_seed, cfg.val_seed) == (1, 2)
        assert blind_prior_rate(fit, val) == 0.504
        assert majority_class_rate(val) == 0.314

    def test_blind_prior_ties_and_unseen_keys(self):
        def ep(task_class, answers):
            return SimpleNamespace(program=SimpleNamespace(task_class=task_class),
                                   answer_ids=answers)

        # frame 0 of A ties 1 against 0, and 1 was met first; frame 1 of A
        # is 2. Overall 1 and 2 tie and 1 was met first, so class B and
        # frame 2 of A fall back to 1.
        fit = [ep("A", [1, 2]), ep("A", [0, 2]), ep("C", [1])]
        assert blind_prior_rate(fit, [ep("A", [1, 2])]) == 1.0
        assert blind_prior_rate(fit, [ep("A", [0, 2])]) == 0.5
        assert blind_prior_rate(fit, [ep("B", [1, 0]), ep("A", [1, 2, 1])]) == 0.8
        with pytest.raises(ValueError, match="fitting frame"):
            blind_prior_rate([], fit)


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "a.w": rng.normal(size=(3, 4)).astype(np.float32),
            "b.v": rng.normal(size=(7,)).astype(np.float32),
        }
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays, {"d": "16", "gate_mode": "softmax"})
        loaded, hypers, manifest = load_checkpoint(path)
        assert hypers["d"] == "16"
        assert manifest.startswith("SAMCKPT v1\n")
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])

    def test_magic_line_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_data_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.zeros(4, dtype=np.float32)}, {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(CheckpointError, match="data section"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new", [
        (b"hyper d 16", b"hyper d \xff16"),
        (b"param w 4 0", b"param w 4 0 0"),
        (b"hyper d 16", b"hyper d"),
        (b"param w 4 0", b"param w 4.0 0"),
        (b"param w 4 0", b"param w 4 z"),
        (b"data 16", b"data 16.0"),
        (b"param w 4 0", b"param w 4 4"),
    ], ids=["bad-utf8", "param-fields", "hyper-fields", "shape", "offset",
            "byte-count", "offset-past-data"])
    def test_malformed_header_line_is_typed(self, tmp_path, old, new):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.zeros(4, dtype=np.float32)}, {"d": "16"})
        raw = path.read_bytes()
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, new))
        with pytest.raises(CheckpointError, match="m.ckpt: "):
            load_checkpoint(path)

    def _two_params(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.arange(2, dtype=np.float32),
                               "b": np.arange(7, 9, dtype=np.float32)}, {})
        raw = path.read_bytes()
        assert raw.count(b"param b 2 8\n") == 1
        return path, raw

    def test_duplicate_param_name_rejected(self, tmp_path):
        # loaded `a` with b's values and dropped `b`
        path, raw = self._two_params(tmp_path)
        path.write_bytes(raw.replace(b"param b 2 8\n", b"param a 2 8\n"))
        with pytest.raises(CheckpointError, match="m.ckpt: parameter a listed twice"):
            load_checkpoint(path)

    def test_overlapping_params_rejected(self, tmp_path):
        # loaded b as [1.0, 7.0]: a's second value and b's first
        path, raw = self._two_params(tmp_path)
        path.write_bytes(raw.replace(b"param b 2 8\n", b"param b 2 4\n"))
        with pytest.raises(CheckpointError, match="m.ckpt: parameters a and b share"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_is_typed(self, tmp_path, value):
        # before: a NaN in answer.b2 loaded silently and `samnet eval` ended
        # in a bare NonFiniteError
        arrays, hypers, _ = load_checkpoint(GATE_MODE_CKPT)
        path = tmp_path / "m.ckpt"
        write_non_finite(path, arrays, hypers, "answer.b2", 1, value)
        message = "m.ckpt: parameter answer.b2 holds a non-finite value"
        with pytest.raises(CheckpointError, match=message):
            load_model(path)
        with pytest.raises(CheckpointError, match=message):
            train(tiny_cfg(tmp_path / "run"), init_from=str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
    def test_save_refuses_non_finite(self, tmp_path, value):
        # 1e39 is finite in float64 and infinite in the file's float32
        arrays, hypers, _ = load_checkpoint(GATE_MODE_CKPT)
        arrays["answer.b2"] = arrays["answer.b2"].astype(np.float64)
        arrays["answer.b2"][1] = value
        path = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError,
                           match="m.ckpt: parameter answer.b2 holds a non-finite value"):
            with np.errstate(over="ignore"):
                save_checkpoint(path, arrays, hypers)
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_a_0d_array(self, tmp_path):
        # before: its shape was written as 1, so it loaded back as (1,)
        arrays = {"s": np.array(2.0, np.float32),
                  "v": np.zeros(3, np.float32)}
        with pytest.raises(CheckpointError, match="m.ckpt: parameter s is 0-d"):
            save_checkpoint(tmp_path / "m.ckpt", arrays, {})
        assert list(tmp_path.iterdir()) == []

    def test_header_bit_flips_load_or_raise_typed(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "a.w": rng.normal(size=(3, 4)).astype(np.float32),
            "b.v": rng.normal(size=(7,)).astype(np.float32),
            "c": np.zeros((2, 2, 3), dtype=np.float32),
        }
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays, {"d": "16", "gate_mode": "softmax"})
        raw = path.read_bytes()
        header_len = raw.index(b"\n", raw.index(b"\ndata ") + 1) + 1
        raised = 0
        for _ in range(1000):
            flipped = bytearray(raw)
            flipped[int(rng.integers(header_len))] ^= 1 << int(rng.integers(8))
            path.write_bytes(bytes(flipped))
            try:
                load_checkpoint(path)
            except CheckpointError:
                raised += 1
        assert raised > 500  # most flips break the header; the rest must load

    def test_manifest_mismatch_lists_names(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "run", max_steps=0)
        result = train(cfg)
        arrays, hypers, _ = load_checkpoint(result.final_checkpoint)
        del arrays["answer.w1"]
        arrays["rogue.extra"] = np.zeros(2, dtype=np.float32)
        path = tmp_path / "patched.ckpt"
        save_checkpoint(path, arrays, hypers)
        with pytest.raises(CheckpointError, match="patched.ckpt: .*answer.w1"):
            load_model(path)

    @pytest.mark.parametrize("old, new", [
        (b"\nhyper d 8\n", b"\nhyper d 32\n"),
        (b"\nhyper d 8\n", b"\nhyper d abc\n"),
        (b"\nhyper d 8\n", b"\n"),
        (b"\nhyper steps 2\n", b"\nhyper steps 0\n"),
        (b"\nhyper mem_slots 3\n", b"\nhyper mem_slots 0\n"),
        (b"\nhyper gate_mode softmax\n", b"\nhyper gate_mode sigmoid\n"),
        (b"\nhyper memory_enabled 1\n", b"\nhyper memory_enabled 7\n"),
        (b"\nhyper gate_hidden 8\n", b"\nhyper gate_hidden 16\n"),
    ], ids=["d-32", "d-abc", "d-missing", "steps-0", "mem_slots-0",
            "gate_mode-sigmoid", "memory_enabled-7", "gate_hidden-16"])
    def test_bad_architecture_header_is_typed(self, tmp_path, old, new):
        raw = GATE_MODE_CKPT.read_bytes()
        assert raw.count(old) == 1
        path = tmp_path / "m.ckpt"
        path.write_bytes(raw.replace(old, new))
        with pytest.raises(CheckpointError, match="m.ckpt: bad model header"):
            load_model(path)

    def test_gate_mode_header_loads_to_the_same_logits(self):
        raw = GATE_MODE_CKPT.read_bytes()
        assert b"\nhyper gate_mode softmax\n" in raw
        assert b"\nhyper cfg.gate_mode softmax\n" in raw
        assert b"\nhyper d 8\n" in raw and b"\nhyper gate_hidden 8\n" in raw
        model, _ = load_model(GATE_MODE_CKPT)
        cfg = config_from_preset("toy-canonical")
        episodes = generate_corpus(cfg.episode_config(),
                                   cfg.task_family_weights(), 4, seed=5)
        with T.no_grad():
            logits = np.concatenate([
                model.episode_forward(ep.token_ids, ep.frames_symbolic()).data
                for ep in episodes])
        assert np.array_equal(logits, np.load(GATE_MODE_LOGITS))
