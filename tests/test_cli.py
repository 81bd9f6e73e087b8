import json
import os

import numpy as np
import pytest

from samnet import gradsuite, training
from samnet import tensor as T
from samnet.cell import SAMNet
from samnet.cli import main
from samnet.gradcheck import grad_check
from samnet.minicog import ANSWERS, VOCABULARY, read_corpus


@pytest.fixture
def tiny_conf(tmp_path):
    path = tmp_path / "tiny.conf"
    path.write_text(
        "d = 16\nreasoning_steps = 2\nmem_slots = 3\n"
        "grid_height = 3\ngrid_width = 3\nframes = 2\nhistory = 1\n"
        "max_objects = 4\ntask_family = Basic\n"
        "batch_size = 4\nmax_steps = 2\neval_every = 2\nval_episodes = 8\n"
        f"out_dir = {tmp_path / 'run'}\n"
    )
    return path


@pytest.fixture
def tiny_ckpt(tiny_conf, tmp_path):
    """An untrained checkpoint of tiny_conf's model."""
    cfg = training.parse_config_file(tiny_conf)
    path = tmp_path / "tiny.ckpt"
    training.save_model(str(path), SAMNet(cfg.model_config()), cfg, 0)
    return path


def test_gen_writes_corpus_and_vocab(tiny_conf, tmp_path, capsys):
    out = str(tmp_path / "corpus.jsonl")
    rc = main(["gen", "--config", str(tiny_conf), "--count", "12",
               "--seed", "5", "--out", out])
    assert rc == 0
    episodes, header = read_corpus(out)
    assert len(episodes) == 12
    assert header["seed"] == 5
    # the header carries the token and answer tables; no side file is written
    assert header["vocabulary"] == list(VOCABULARY)
    assert header["answers"] == list(ANSWERS)
    assert not os.path.exists(out + ".vocab")


@pytest.mark.parametrize("count", ["0", "-3", "two"])
def test_gen_count_below_one_is_a_usage_error(tiny_conf, tmp_path, capsys,
                                              count):
    out = tmp_path / "corpus.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--config", str(tiny_conf), "--count", count,
              "--seed", "5", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: samnet gen" in err
    assert f"--count: expected an int >= 1, got '{count}'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "gen", "transfer"])
@pytest.mark.parametrize("line,message", [
    ("max_steps = two", "max_steps: expected int, got 'two'"),
    ("learning_rate = fast", "learning_rate: expected float, got 'fast'"),
    ("memory_enabled = maybe", "memory_enabled: expected one of"),
    ("batch = 4", "unknown config keys ['batch']"),
    ("batch_size = 0", "batch_size: must be >= 1, got 0"),
    ("max_steps = -1", "max_steps: must be >= 0, got -1"),
    ("d = 7", "d: must be even, got 7"),
    ("reasoning_steps = 0", "reasoning_steps: must be >= 1, got 0"),
    ("mem_slots = 0", "mem_slots: must be >= 1, got 0"),
    ("val_episodes = 0", "val_episodes: must be >= 1, got 0"),
    ("grid_height = 0", "grid_height: must be >= 1, got 0"),
    ("task_family = Bogus", "task_family: unknown task family name 'Bogus'"),
])
def test_bad_config_value_is_a_usage_error(tiny_conf, tmp_path, capsys,
                                           command, line, message):
    tiny_conf.write_text(tiny_conf.read_text() + line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(config_argv(command, tiny_conf, tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: samnet {command}" in err
    assert f"{tiny_conf}: {message}" in err
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "corpus.jsonl").exists()


@pytest.mark.parametrize("command", ["train", "gen", "transfer"])
def test_missing_config_file_is_a_usage_error(tmp_path, capsys, command):
    conf = tmp_path / "nope.conf"
    with pytest.raises(SystemExit) as exc:
        main(config_argv(command, conf, tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: samnet {command}" in err
    assert f"{conf}: [Errno 2] No such file or directory" in err
    assert not (tmp_path / "corpus.jsonl").exists()


def config_argv(command, conf, tmp_path):
    """`samnet <command>` on config file `conf`, writing under tmp_path."""
    if command == "gen":
        return ["gen", "--config", str(conf), "--count", "3",
                "--seed", "5", "--out", str(tmp_path / "corpus.jsonl")]
    if command == "transfer":
        return ["transfer", "--split", "reasoning", "--mode", "zero_shot",
                "--config", str(conf)]
    return ["train", "--config", str(conf)]


def test_generate_corpus_rejects_a_negative_count():
    from samnet.minicog import EpisodeConfig, generate_corpus

    assert generate_corpus(EpisodeConfig(), {"Exist": 1.0}, 0, seed=1) == []
    with pytest.raises(ValueError, match="-3"):
        generate_corpus(EpisodeConfig(), {"Exist": 1.0}, -3, seed=1)


def test_train_eval_round_trip(tiny_conf, tmp_path, capsys):
    assert main(["train", "--config", str(tiny_conf), "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert "final checkpoint" in out
    ckpt = str(tmp_path / "run" / "final.ckpt")
    assert os.path.exists(ckpt)

    corpus = str(tmp_path / "corpus.jsonl")
    main(["gen", "--config", str(tiny_conf), "--count", "10",
          "--seed", "2", "--out", corpus])
    capsys.readouterr()
    assert main(["eval", "--ckpt", ckpt, "--data", corpus,
                 "--mem-slots", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) >= {"loss", "accuracy", "per_class_accuracy"}
    assert payload["episodes"] == 10

    # zero slots is a usage error, not the trained size
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ckpt", ckpt, "--data", corpus, "--mem-slots", "0"])
    assert exc.value.code == 2

    # ablating memory writes is a valid evaluation mode
    assert main(["eval", "--ckpt", ckpt, "--data", corpus,
                 "--ablate-writes"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["accuracy"] <= 1.0


@pytest.mark.parametrize("slots", ["0", "-1", "two"])
def test_eval_slot_count_below_one_is_a_usage_error(slots, capsys):
    # rejected while parsing, before the checkpoint or the data is read
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ckpt", "missing.ckpt", "--data", "missing.jsonl",
              "--mem-slots", slots])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: samnet eval" in err
    assert f"--mem-slots: expected an int >= 1, got '{slots}'" in err


@pytest.mark.parametrize("case", [
    "missing data", "data is a directory", "bad data config",
    "missing checkpoint", "checkpoint is a directory",
])
def test_eval_unreadable_input_is_a_usage_error(tiny_conf, tiny_ckpt, tmp_path,
                                                capsys, monkeypatch, case):
    # tiny_conf doubles as a data config; the checkpoint is opened before
    # it, so no corpus is generated for an unreadable checkpoint
    data, ckpt = tiny_conf, tiny_ckpt
    if case == "missing data":
        data = tmp_path / "missing.jsonl"
    elif case == "data is a directory":
        data = tmp_path
    elif case == "bad data config":
        tiny_conf.write_text(tiny_conf.read_text() + "max_steps = two\n")
    elif case == "missing checkpoint":
        ckpt = tmp_path / "missing.ckpt"
    elif case == "checkpoint is a directory":
        ckpt = tmp_path
    if "checkpoint" in case:
        def generate_corpus(*args, **kwargs):
            raise AssertionError("data read before the checkpoint")
        monkeypatch.setattr(training, "generate_corpus", generate_corpus)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: samnet eval" in err
    named = ckpt if "checkpoint" in case else data
    assert f"error: {named}: " in err
    if case == "bad data config":
        assert "max_steps: expected int, got 'two'" in err


def test_eval_malformed_files_stay_typed_errors(tiny_conf, tiny_ckpt, tmp_path):
    from samnet.checkpoint import CheckpointError
    from samnet.minicog import CorpusError

    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text("not a checkpoint\n")
    with pytest.raises(CheckpointError, match="bad.ckpt"):
        main(["eval", "--ckpt", str(ckpt), "--data", str(tiny_conf)])
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text('{"format": "something else"}\n')
    with pytest.raises(CorpusError, match="bad.jsonl"):
        main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(corpus)])


def test_transfer_emits_report(tmp_path, capsys):
    conf = tmp_path / "transfer.conf"
    conf.write_text(
        "d = 16\nreasoning_steps = 2\nmem_slots = 3\n"
        "grid_height = 3\ngrid_width = 3\nframes = 2\nhistory = 1\n"
        "max_objects = 4\ntask_family = Basic\n"
        "batch_size = 4\nmax_steps = 2\neval_every = 2\nval_episodes = 8\n"
        f"out_dir = {tmp_path / 'tr'}\n"
        "reasoning_mode = all_but_t\nreasoning_t = Cognitive\n"
        "eval_episodes = 10\n"
    )
    rc = main(["transfer", "--split", "reasoning", "--mode", "zero_shot",
               "--config", str(conf)])
    assert rc == 0
    report = json.loads(open(tmp_path / "tr" / "report.json").read())
    assert report["split_kind"] == "reasoning"
    out = capsys.readouterr().out
    assert "aggregate_accuracy" in out


@pytest.mark.parametrize("value", ["0", "-1", "two"])
@pytest.mark.parametrize("key", ["eval_episodes", "target_mem_slots"])
def test_transfer_count_below_one_is_a_usage_error(tmp_path, capsys, key, value):
    conf = tmp_path / "transfer.conf"
    conf.write_text(f"d = 16\nout_dir = {tmp_path / 'tr'}\n{key} = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--split", "reasoning", "--mode", "zero_shot",
              "--config", str(conf)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: samnet transfer" in err
    assert f"{key}: expected an int >= 1, got '{value}'" in err
    assert not (tmp_path / "tr").exists()  # rejected before any training


TEMPORAL_COUNTS = ("source_objects = 3\nsource_frames = 2\n"
                   "target_objects = 4\ntarget_frames = 3\n")


@pytest.mark.parametrize("line,message", [
    ("finetune_episodes = two", "finetune_episodes: expected an int >= 0, got 'two'"),
    ("finetune_episodes = -1", "finetune_episodes: expected an int >= 0, got '-1'"),
    ("finetune_epochs = 0", "finetune_epochs: expected an int >= 1, got '0'"),
    ("finetune_epochs = 1.5", "finetune_epochs: expected an int >= 1, got '1.5'"),
    ("source_objects = two", "source_objects: expected an int >= 1, got 'two'"),
    ("source_frames = 0", "source_frames: expected an int >= 1, got '0'"),
    ("target_objects = -2", "target_objects: expected an int >= 1, got '-2'"),
    ("target_frames = three", "target_frames: expected an int >= 1, got 'three'"),
    ("target_frames =", "the temporal split needs target_frames"),
])
def test_transfer_split_count_is_a_usage_error(tmp_path, capsys, line, message):
    key = line.partition(" =")[0]
    counts = "".join(f"{kv}\n" for kv in TEMPORAL_COUNTS.splitlines()
                     if not kv.startswith(key + " ="))
    conf = tmp_path / "transfer.conf"
    conf.write_text(f"d = 16\nout_dir = {tmp_path / 'tr'}\n{counts}"
                    + ("" if line.endswith("=") else line + "\n"))
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--split", "temporal", "--mode", "finetune",
              "--config", str(conf)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: samnet transfer" in err
    assert message in err
    assert not (tmp_path / "tr").exists()  # rejected before any training


def cheap_checks(*names):
    # tests/test_gradsuite.py runs the whole suite; the CLI contract needs
    # only checks that run in milliseconds
    return [check for check in gradsuite._CHECKS if check[0] in names]


def test_gradcheck_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(gradsuite, "_CHECKS", cheap_checks("elu", "linear"))
    assert main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["PASS elu", "PASS linear"]


def _check_wrong_backward(rng, eps):
    """A doubling op whose backward forgets the factor 2."""
    store = gradsuite._store(0)
    x = store.new("x", (4,))
    x.data = rng.normal(size=4)

    def f():
        doubled = T.Tensor._from_op(2.0 * x.data, (x,), lambda g: (g,))
        return gradsuite._readout_from(np.ones(4), doubled)

    return grad_check(f, store.parameters(), eps=eps)


@pytest.mark.parametrize("flags", [[], ["--f64"]])
def test_gradcheck_failure_exits_one(capsys, monkeypatch, flags):
    monkeypatch.setattr(gradsuite, "_CHECKS", cheap_checks("elu") + [
        ("wrong_backward", _check_wrong_backward)])
    assert main(["gradcheck", *flags]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS elu", "FAIL wrong_backward"]


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
