"""Synthetic video-QA task suite: scenes, question programs, oracle, generator."""

from .generator import (
    CorpusError,
    Episode,
    EpisodeConfig,
    EpisodeConfigError,
    GenerationError,
    GENERATOR_VERSION,
    episode_stream,
    gen_episode,
    generate_corpus,
    read_corpus,
    write_corpus,
)
from .oracle import oracle_answer
from .programs import (
    ANSWER_INDEX,
    ANSWERS,
    GROUP_OF,
    GROUP_TREE,
    INVALID,
    QuestionProgram,
    RELATIONS,
    TAGS,
    TASK_CLASSES,
    TASK_GROUPS,
    VOCABULARY,
    answer_set,
    encode_tokens,
    enumerate_programs,
    named_task_family,
    parse_task_family,
)
from .scenes import (
    COLOR_FAMILY_A,
    COLOR_FAMILY_B,
    COLORS,
    CONSTRAINED_SHAPES,
    FeatureFamily,
    GRID_CHANNELS,
    SHAPES,
    SceneGraph,
    SceneObject,
    render_symbolic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
