"""The float64 gradient suite (`samnet gradcheck --f64`) runs in tier-1,
with a bound 100 times tighter than its threshold; the float32 suite is
checked for the dtype of its leaves."""

import numpy as np

from samnet import gradsuite
from samnet.gradsuite import run_gradient_suite

CHECK_NAMES = [
    "add", "mul", "div", "matmul", "elu", "softmax", "cross_entropy_logits",
    "concat", "stack", "select", "take_rows", "reshape",
    "attention_aggregate", "linear_rank1", "linear_rank2", "linear_per_row",
    "lstm_direction_forward", "lstm_direction_reverse", "word_attention",
    "attention_weights", "weighted_sum", "memory_blend", "write_head_shift",
    "gate_mlp", "conv2d_same3_elu_one_layer", "conv2d_same3_elu_two_layers",
    "attention_weights_projected", "control_query", "elu_mlp_softmax",
    "elu_mlp_two_parts", "mixed_linear", "memory_write",
    "question_encoder", "frame_encoder", "controller_step",
    "temporal_classifier", "visual_retrieval", "memory_retrieval",
    "gate_network", "memory_update", "summary_update", "cell_two_steps",
    "full_episode_2frames", "full_episode_batch3",
]


def test_float64_suite_passes_every_check():
    results = run_gradient_suite(use_float64=True)
    assert [r.name for r in results] == CHECK_NAMES
    assert all(r.threshold == 1e-5 for r in results)
    # every check, the components' included, stays 100 times inside its
    # threshold; the largest measured is 8.2e-10
    high = [(r.name, r.max_rel_err) for r in results if not r.max_rel_err < 1e-7]
    assert not high


def test_float32_suite_checks_float32_leaves(monkeypatch):
    # a float64 draw assigned to a leaf would make `samnet gradcheck` check
    # float64 arithmetic; the spy runs no finite differences
    leaves = []

    def spy(f, params, eps):
        leaves.append({p.name: p.data.dtype for p in params})
        return 0.0

    monkeypatch.setattr(gradsuite, "grad_check", spy)
    results = run_gradient_suite(use_float64=False)
    assert [r.name for r in results] == CHECK_NAMES
    assert len(leaves) == len(CHECK_NAMES) and all(leaves)
    wide = {r.name: sorted(name for name, dtype in check.items()
                           if dtype != np.float32)
            for r, check in zip(results, leaves)}
    assert {name: names for name, names in wide.items() if names} == {}
