"""The float64 gradient suite (`samnet gradcheck --f64`) runs in tier-1,
with a bound 100 times tighter than its threshold; the float32 suite is
checked for the dtype of its leaves, and each whole-model check for taking
every parameter as one; the README quotes the suite's size."""

from pathlib import Path

import numpy as np

from samnet import gradsuite
from samnet.gradsuite import run_gradient_suite

CHECK_NAMES = [
    "add", "mul", "div", "matmul", "elu", "sigmoid", "softmax",
    "cross_entropy_logits", "concat", "stack", "select", "take_rows",
    "reshape", "attention_aggregate", "linear_rank1", "linear_rank2",
    "linear_per_row", "lstm_direction_forward", "lstm_direction_reverse",
    "word_attention", "attention_weights", "weighted_sum", "memory_blend",
    "write_head_shift", "conv2d_same3_elu_one_layer",
    "conv2d_same3_elu_two_layers", "attention_weights_projected",
    "control_query", "elu_mlp_softmax", "elu_mlp_two_parts", "gate_mlp",
    "mixed_linear", "memory_write",
    "full_episode_2frames", "full_episode_batch3",
]
README = Path(__file__).resolve().parents[1] / "README.md"


def test_float64_suite_passes_every_check():
    results = run_gradient_suite(use_float64=True)
    assert [r.name for r in results] == CHECK_NAMES
    assert all(r.threshold == 1e-5 for r in results)
    # every check, the two whole-model ones included, stays 100 times
    # inside its threshold; the largest measured is 8.2e-10
    high = [(r.name, r.max_rel_err) for r in results if not r.max_rel_err < 1e-7]
    assert not high


def test_float32_suite_checks_float32_leaves(monkeypatch):
    # a float64 draw assigned to a leaf would make `samnet gradcheck` check
    # float64 arithmetic; the spy runs no finite differences
    leaves = []
    models = []

    def spy(f, params, eps):
        leaves.append({p.name: p.data.dtype for p in params})
        return 0.0

    class RecordedSAMNet(gradsuite.SAMNet):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    monkeypatch.setattr(gradsuite, "grad_check", spy)
    monkeypatch.setattr(gradsuite, "SAMNet", RecordedSAMNet)
    results = run_gradient_suite(use_float64=False)
    assert [r.name for r in results] == CHECK_NAMES
    assert len(leaves) == len(CHECK_NAMES) and all(leaves)
    wide = {r.name: sorted(name for name, dtype in check.items()
                           if dtype != np.float32)
            for r, check in zip(results, leaves)}
    assert {name: names for name, names in wide.items() if names} == {}
    # the op table has no module, so the two whole-model checks are what
    # hold the modules' wiring: each takes every parameter of its model
    checks = dict(zip(CHECK_NAMES, leaves))
    assert [sorted(checks[name]) for name in CHECK_NAMES[-2:]] == [
        sorted(model.store.names()) for model in models]


def test_readme_quotes_the_number_of_checks():
    readme = " ".join(README.read_text(encoding="utf-8").split())
    count = len(gradsuite._CHECKS)
    for phrase in (f"pins its {count} check names",
                   f"gradient-check suite: {count} checks"):
        assert phrase in readme, f"README does not say {phrase!r}"
