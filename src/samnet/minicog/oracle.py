"""Exact symbolic answerer.

Frame k of an episode is answered from the look-back window
frames[max(0, k-h) .. k]. Temporal tags select frame scopes inside that
window: "now" is frame k alone, "last" is every windowed frame strictly
before k, "latest" is the whole window. Referent resolution scans the scope
from the most recent frame backwards and breaks ties within one frame by
(row, col) order. Every question is total: when a referent cannot be
resolved the frame's answer is the explicit invalid marker.
"""

from __future__ import annotations

from .programs import (
    COMPARE_SCOPE,
    EXIST_CLASSES,
    EXIST_OF_SCOPE,
    INVALID,
    QuestionProgram,
    matches,
)
from .scenes import SceneGraph, SceneObject


def _scope(tag: str, k: int, history: int) -> range:
    lo = max(0, k - history)
    if tag == "now":
        return range(k, k + 1)
    if tag == "last":
        return range(lo, k)
    if tag == "latest":
        return range(lo, k + 1)
    raise ValueError(f"unknown tag {tag!r}")


def _find_referent(scenes, frames: range, desc):
    """Most recent match of `desc` in the scope; ties broken by (row, col)."""
    for k in reversed(frames):
        hits = [o for o in scenes[k].objects if matches(o.color, o.shape, desc)]
        if hits:
            hits.sort(key=lambda o: (o.row, o.col))
            return k, hits[0]
    return None


def _any_match(scenes, frames: range, desc) -> bool:
    return any(
        matches(o.color, o.shape, desc)
        for k in frames for o in scenes[k].objects
    )


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _relation_holds(o: SceneObject, ref: SceneObject, relation: str) -> bool:
    if relation == "left":
        return o.col < ref.col
    if relation == "right":
        return o.col > ref.col
    if relation == "above":
        return o.row < ref.row
    if relation == "below":
        return o.row > ref.row
    raise ValueError(f"unknown relation {relation!r}")


def _spatial_candidates(scene: SceneGraph, ref: SceneObject, relation: str):
    hits = [
        o for o in scene.objects
        if o is not ref and _relation_holds(o, ref, relation)
    ]
    hits.sort(key=lambda o: (abs(o.row - ref.row) + abs(o.col - ref.col),
                             o.row, o.col))
    return hits


def _frame_answer(p: QuestionProgram, scenes, k: int, history: int) -> str:
    cls, attr = p.task_class, p.attribute

    if cls in EXIST_CLASSES:
        frames = _scope(p.tag, k, history)
        if len(frames) == 0:
            return INVALID
        return _bool(_any_match(scenes, frames, p.query))

    if cls in ("GetColor", "GetShape"):
        frames = _scope(p.tag, k, history)
        if len(frames) == 0:
            return INVALID
        ref = _find_referent(scenes, frames, p.keyed(p.keys[0]))
        return INVALID if ref is None else getattr(ref[1], attr)

    if cls in COMPARE_SCOPE:
        now = _scope("now", k, history)
        second = _scope(COMPARE_SCOPE[cls], k, history)
        same = True
        for key1, key2 in p.key_pairs():
            r1 = _find_referent(scenes, now, p.keyed(key1))
            r2 = _find_referent(scenes, second, p.keyed(key2))
            if r1 is None or r2 is None:
                return INVALID
            same = same and getattr(r1[1], attr) == getattr(r2[1], attr)
        return _bool(same)

    if cls in EXIST_OF_SCOPE:
        ref = _find_referent(scenes, _scope(EXIST_OF_SCOPE[cls], k, history),
                             p.keyed(p.keys[0]))
        if ref is None:
            return INVALID
        ref_frame, ref_obj = ref
        value = getattr(ref_obj, attr)
        # the referent itself is not "another object"
        return _bool(any(
            getattr(o, attr) == value for o in scenes[k].objects
            if ref_frame != k or o != ref_obj
        ))

    if p.group == "Spatial":
        ref = _find_referent(scenes, _scope("now", k, history), p.reference)
        if ref is None:
            return INVALID
        hits = _spatial_candidates(scenes[k], ref[1], p.relation)
        if attr is not None:  # Get*Space reads the nearest related object
            return getattr(hits[0], attr) if hits else INVALID
        return _bool(any(matches(o.color, o.shape, p.query) for o in hits))

    if cls == "ExistLastObjectSameObject":
        anchor = None
        for j in reversed(_scope("last", k, history)):
            if scenes[j].objects:
                anchor = j
                break
        if anchor is None:
            return INVALID
        past_pairs = {(o.color, o.shape) for o in scenes[anchor].objects}
        now_pairs = {(o.color, o.shape) for o in scenes[k].objects}
        return _bool(bool(past_pairs & now_pairs))

    raise ValueError(f"no oracle rule for {cls!r}")


def oracle_answer(program: QuestionProgram, scenes, history: int) -> list[str]:
    """Per-frame answers for a scene sequence under the given look-back."""
    scenes = list(scenes)
    return [_frame_answer(program, scenes, k, history) for k in range(len(scenes))]
