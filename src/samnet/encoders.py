"""Input encoders: token sequences and symbolic frame grids to feature tensors.

The question path embeds tokens, runs a bidirectional LSTM (hidden width d/2
per direction), and produces per-token contextual vectors plus a single
question embedding. The visual path runs two 3x3 same-padded ELU convolution
layers over the one-hot attribute grid and flattens the result to one feature
row per grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .params import ParameterStore
from .tensor import Tensor


class VocabularyError(ValueError):
    pass


@dataclass
class QuestionEncoding:
    """One question: q (d,) and its contextual words cw (L, d).

    A batch of B questions of any lengths: q (B, d) in batch order, and cw
    one (rows, words) pair per question length, in order of first
    appearance, where rows are the batch indices of that length in
    ascending order and words is (B_g, L, d).
    """

    cw: Tensor | list[tuple[np.ndarray, Tensor]]
    q: Tensor


def question_batch(token_ids) -> int | None:
    """B for a batch of B token sequences, None for one sequence."""
    if len(token_ids) and np.ndim(token_ids[0]) == 1:
        return len(token_ids)
    return None


class QuestionEncoder:
    def __init__(self, store: ParameterStore, vocab_size: int, d: int, prefix="question"):
        if d % 2 != 0:
            raise ValueError(f"question encoder width must be even, got {d}")
        self.vocab_size = vocab_size
        self.d = d
        hh = d // 2
        self.embed = store.new(f"{prefix}.embed", (vocab_size, d), fan_in=d)
        self.dir_params = {}
        for direction in ("fwd", "bwd"):
            self.dir_params[direction] = (
                store.new(f"{prefix}.{direction}.wx", (d, 4 * hh), fan_in=d),
                store.new(f"{prefix}.{direction}.wh", (hh, 4 * hh), fan_in=hh),
                store.new(f"{prefix}.{direction}.b", (4 * hh,), fan_in=0),
            )
        self.cw_w = store.new(f"{prefix}.cw.w", (d, d), fan_in=d)
        self.cw_b = store.new(f"{prefix}.cw.b", (d,), fan_in=0)
        self.q_w = store.new(f"{prefix}.q.w", (d, d), fan_in=d)
        self.q_b = store.new(f"{prefix}.q.b", (d,), fan_in=0)

    def _checked_ids(self, token_ids) -> np.ndarray:
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size < 1:
            raise VocabularyError("expected a non-empty token id sequence")
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            bad = ids[(ids < 0) | (ids >= self.vocab_size)][0]
            raise VocabularyError(
                f"token id {int(bad)} outside vocabulary of size {self.vocab_size}"
            )
        return ids

    def _contextual(self, ids: np.ndarray):
        """cw and the final states [fwd last, bwd first] of one sequence (L,)
        or, inside `T.episode_batch`, of an equal-length batch (B, L)."""
        embeds = T.take_rows(self.embed, ids)
        fwd = T.lstm_direction(embeds, *self.dir_params["fwd"])
        bwd = T.lstm_direction(embeds, *self.dir_params["bwd"], reverse=True)
        cw = T.linear(T.concat([fwd, bwd], axis=-1), self.cw_w, self.cw_b)
        last = ids.shape[-1] - 1
        return cw, T.concat([fwd[..., last, :], bwd[..., 0, :]], axis=-1)

    def encode(self, token_ids) -> QuestionEncoding:
        """Encode one token sequence (L,) to cw (L, d) and q (d,).

        A batch is B sequences of any lengths (a list, or a (B, L) array),
        encoded inside `T.episode_batch`. The LSTM and the cw linear run
        once per length group as on one equal-length batch, inside
        `T.episode_batch(rows)`; `T.merge_rows` joins the groups' final
        states and the q linear runs once on all B. See `QuestionEncoding`
        for the batch layout.
        """
        if question_batch(token_ids) is None:
            cw, final = self._contextual(self._checked_ids(token_ids))
            return QuestionEncoding(cw=cw, q=T.linear(final, self.q_w, self.q_b))
        seqs = [self._checked_ids(s) for s in token_ids]
        by_length: dict[int, list[int]] = {}
        for i, ids in enumerate(seqs):
            by_length.setdefault(ids.size, []).append(i)
        groups, finals = [], []
        with T.episode_batch():
            for members in by_length.values():
                rows = np.array(members)
                with T.episode_batch(rows):
                    cw, final = self._contextual(
                        np.stack([seqs[i] for i in members]))
                groups.append((rows, cw))
                finals.append(final)
            final = finals[0] if len(groups) == 1 else T.merge_rows(
                finals, [rows for rows, _ in groups], len(seqs))
            q = T.linear(final, self.q_w, self.q_b)
        return QuestionEncoding(cw=groups, q=q)


class FrameEncoder:
    def __init__(self, store: ParameterStore, in_channels: int, d: int, prefix="frame"):
        self.in_channels = in_channels
        self.d = d
        self.conv1_w = store.new(
            f"{prefix}.conv1.w", (3, 3, in_channels, d), fan_in=9 * in_channels
        )
        self.conv1_b = store.new(f"{prefix}.conv1.b", (d,), fan_in=0)
        self.conv2_w = store.new(f"{prefix}.conv2.w", (3, 3, d, d), fan_in=9 * d)
        self.conv2_b = store.new(f"{prefix}.conv2.b", (d,), fan_in=0)

    def encode(self, frames: np.ndarray) -> Tensor:
        """Map (K, H, W, C) grids to a (K, H*W, d) feature map batch.

        Inside `T.episode_batch`, a batch of episodes (B, K, H, W, C) gives
        one (B, K, H*W, d) array; the convolutions run one episode at a
        time, so their patch matrices stay one episode's size.
        """
        frames = np.asarray(frames, dtype=T.default_dtype())
        if frames.ndim == 3:
            frames = frames[None]
        *lead, h, w, c = frames.shape
        if h * w == 0:
            raise T.ShapeError("frame grid has no cells")
        if c != self.in_channels:
            raise T.ShapeError(
                f"frame has {c} channels, encoder expects {self.in_channels}"
            )
        x = T.conv2d_same3_elu(Tensor(frames), (self.conv1_w, self.conv1_b),
                               (self.conv2_w, self.conv2_b))
        return T.reshape(x, (*lead, h * w, self.d))
