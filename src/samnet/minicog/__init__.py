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
    ANSWERS,
    GROUP_OF,
    GROUP_TREE,
    INVALID,
    QuestionProgram,
    RELATIONS,
    TASK_CLASSES,
    TASK_GROUPS,
    VOCABULARY,
    answer_set,
    enumerate_programs,
    parse_task_family,
)
from .scenes import (
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
