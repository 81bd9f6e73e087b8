import numpy as np
import numpy.testing as npt
import pytest

from samnet import tensor as T
from samnet.encoders import FrameEncoder, QuestionEncoder, VocabularyError
from samnet.params import ParameterStore


def store_with_seed(seed=0):
    return ParameterStore(np.random.default_rng(seed))


class TestQuestionEncoder:
    def test_single_token_shapes(self):
        enc = QuestionEncoder(store_with_seed(0), vocab_size=10, d=8)
        out = enc.encode([3])
        assert out.cw.shape == (1, 8)
        assert out.q.shape == (8,)
        assert np.all(np.isfinite(out.q.data))

    def test_shapes_contract(self):
        enc = QuestionEncoder(store_with_seed(1), vocab_size=10, d=16)
        out = enc.encode([1, 2, 3, 4, 5])
        assert out.cw.shape == (5, 16)
        assert out.q.shape == (16,)

    def test_out_of_range_token_raises(self):
        enc = QuestionEncoder(store_with_seed(2), vocab_size=4, d=8)
        with pytest.raises(VocabularyError):
            enc.encode([1, 4])
        with pytest.raises(VocabularyError):
            enc.encode([])

    def test_batch_outside_episode_batch_is_a_vocabulary_error(self):
        enc = QuestionEncoder(store_with_seed(2), vocab_size=4, d=8)
        for batch in ([[1, 2], [3]], np.array([[1, 2], [3, 0]])):
            with pytest.raises(VocabularyError, match="T.episode_batch"):
                enc.encode(batch)

    def test_reversal_changes_question_embedding(self):
        # the bidirectional encoder is order sensitive for nearly every init
        tokens = [1, 2, 3, 4]
        changed = 0
        for seed in range(100):
            enc = QuestionEncoder(store_with_seed(seed), vocab_size=6, d=8)
            q_fwd = enc.encode(tokens).q.data
            q_rev = enc.encode(tokens[::-1]).q.data
            if not np.allclose(q_fwd, q_rev, atol=1e-6):
                changed += 1
        assert changed >= 95

    def test_ragged_batch_equals_each_sequence(self):
        enc = QuestionEncoder(store_with_seed(11), vocab_size=12, d=16)
        rng = np.random.default_rng(11)
        seqs = [rng.integers(0, 12, size=n).tolist()
                for n in (5, 3, 5, 1, 7, 3, 5)]
        with T.no_grad():
            with T.episode_batch():
                out = enc.encode(seqs)
            single = [enc.encode(s) for s in seqs]
        assert out.q.shape == (len(seqs), 16)
        # one padded batch: its longest question's width, the lengths kept
        assert out.cw.shape == (len(seqs), 7, 16)
        assert out.lengths.tolist() == [5, 3, 5, 1, 7, 3, 5]
        for i, one in enumerate(single):
            assert one.lengths is None
            assert np.array_equal(out.q.data[i], one.q.data)
            n = len(seqs[i])
            assert np.array_equal(out.cw.data[i, :n], one.cw.data)
            # a pad row is the cw linear's bias
            assert np.array_equal(out.cw.data[i, n:],
                                  np.broadcast_to(enc.cw_b.data, (7 - n, 16)))

    def test_equal_length_array_equals_the_list(self):
        enc = QuestionEncoder(store_with_seed(12), vocab_size=6, d=8)
        ids = np.array([[1, 2, 3], [3, 2, 1]])
        with T.no_grad(), T.episode_batch():
            out = enc.encode(ids)
            expected = enc.encode(ids.tolist())
        assert out.cw.shape == (2, 3, 8) and out.lengths.tolist() == [3, 3]
        assert np.array_equal(out.q.data, expected.q.data)
        assert np.array_equal(out.cw.data, expected.cw.data)

    def test_ragged_batch_records_and_matches(self):
        store = store_with_seed(13)
        enc = QuestionEncoder(store, vocab_size=6, d=8)
        seqs = [[1, 2], [3, 4, 5], [0, 5], [2]]
        targets = [1, 7, 0, 3]
        # the reference: one tape per question, a cross-entropy read of q;
        # backward() releases inner values, so they are read before it
        single = []
        for ids, target in zip(seqs, targets):
            enc_one = enc.encode(ids)
            single.append((enc_one.q.data, enc_one.cw.data))
            T.cross_entropy_logits(enc_one.q, target).backward()
        expected = {p.name: p.grad for p in store.parameters()}
        store.zero_grad()
        with T.episode_batch():
            out = enc.encode(seqs)  # recorded on one tape
        assert out.q.requires_grad
        assert np.array_equal(out.q.data, np.stack([q for q, _ in single]))
        for i, (_, cw) in enumerate(single):
            assert np.array_equal(out.cw.data[i, :len(seqs[i])], cw)
        with T.episode_batch():  # one loss per question
            T.cross_entropy_logits(out.q, targets).backward()
        for p in store.parameters():
            want = expected[p.name]
            if want is None:  # the cw linear is not read
                assert p.grad is None, p.name
            else:
                assert np.array_equal(p.grad, want), p.name
        with pytest.raises(VocabularyError), T.episode_batch():
            enc.encode([[1, 2], []])

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            QuestionEncoder(store_with_seed(3), vocab_size=4, d=7)

class TestFrameEncoder:
    def test_shape_contract(self):
        enc = FrameEncoder(store_with_seed(5), in_channels=15, d=64)
        feats = enc.encode(np.zeros((1, 5, 5, 15), dtype=np.float32))
        assert feats.shape == (1, 25, 64)

    def test_constant_input_gives_identical_interior_rows(self):
        enc = FrameEncoder(store_with_seed(6), in_channels=4, d=8)
        feats = enc.encode(np.zeros((1, 6, 6, 4), dtype=np.float32)).data[0]
        grid = feats.reshape(6, 6, 8)
        interior = grid[2:4, 2:4].reshape(-1, 8)
        for row in interior[1:]:
            npt.assert_allclose(row, interior[0], atol=1e-6)

    def test_translation_equivariance_in_interior(self):
        enc = FrameEncoder(store_with_seed(7), in_channels=3, d=8)
        a = np.zeros((7, 7, 3), dtype=np.float32)
        b = np.zeros((7, 7, 3), dtype=np.float32)
        a[3, 2, 1] = 1.0
        b[3, 3, 1] = 1.0  # same object moved one cell to the right
        fa = enc.encode(a[None]).data[0].reshape(7, 7, 8)
        fb = enc.encode(b[None]).data[0].reshape(7, 7, 8)
        for i in range(2, 5):
            for j in (3, 4):
                npt.assert_allclose(fb[i, j], fa[i, j - 1], atol=1e-5)

    def test_empty_grid_rejected(self):
        enc = FrameEncoder(store_with_seed(8), in_channels=3, d=8)
        with pytest.raises(T.ShapeError):
            enc.encode(np.zeros((1, 0, 4, 3), dtype=np.float32))

    def test_channel_mismatch_rejected(self):
        enc = FrameEncoder(store_with_seed(9), in_channels=3, d=8)
        with pytest.raises(T.ShapeError):
            enc.encode(np.zeros((1, 4, 4, 5), dtype=np.float32))
