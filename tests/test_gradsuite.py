"""The float64 gradient suite (`samnet gradcheck --f64`) runs in tier-1."""

from samnet.gradsuite import run_gradient_suite

CHECK_NAMES = [
    "softmax_cross_entropy", "dot_attention", "elu", "conv2d_same3_elu",
    "linear", "lstm_direction", "attention_weights", "weighted_sum",
    "memory_blend", "write_head_shift", "gate_mlp", "question_encoder",
    "frame_encoder", "controller_step", "temporal_classifier",
    "visual_retrieval", "memory_retrieval", "gate_network", "memory_update",
    "summary_update", "cell_two_steps", "full_episode_2frames",
    "full_episode_batch3",
]


def test_float64_suite_passes_every_check():
    results = run_gradient_suite(use_float64=True)
    assert [r.name for r in results] == CHECK_NAMES
    failed = [(r.name, r.max_rel_err) for r in results if not r.passed]
    assert not failed
    assert all(r.threshold == 1e-5 for r in results)
