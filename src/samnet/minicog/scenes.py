"""Scene graphs, attribute inventory, and the frame grid format.

Objects live on a small grid, at most one per cell, each carrying a color
and a shape. The 8 colors split into two 4-color families so that
constrained attribute-combination variants (family A / family B) can swap
which shapes may take which colors; four of the six shapes are neutral and
may take any color in every variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

COLORS = ("gray", "blue", "brown", "yellow", "red", "green", "purple", "cyan")
COLOR_FAMILY_A = COLORS[:4]
COLOR_FAMILY_B = COLORS[4:]

SHAPES = ("circle", "square", "triangle", "cross", "star", "ring")
CONSTRAINED_SHAPES = ("square", "triangle")

COLOR_INDEX = {c: i for i, c in enumerate(COLORS)}
SHAPE_INDEX = {s: i for i, s in enumerate(SHAPES)}

GRID_CHANNELS = 1 + len(COLORS) + len(SHAPES)


class SceneObject(NamedTuple):
    row: int
    col: int
    color: str
    shape: str


@dataclass(frozen=True)
class FeatureFamily:
    """Per-shape allowed color sets (the attribute-combination constraint)."""

    name: str
    allowed: dict[str, tuple[str, ...]] = field(compare=False)

    def colors_for(self, shape: str) -> tuple[str, ...]:
        return self.allowed[shape]

    def shapes_for(self, color: str) -> tuple[str, ...]:
        return tuple(s for s in SHAPES if color in self.allowed[s])

    def pairs(self) -> list[tuple[str, str]]:
        return [(c, s) for s in SHAPES for c in self.allowed[s]]

    @staticmethod
    def unrestricted() -> "FeatureFamily":
        return FeatureFamily("any", {s: COLORS for s in SHAPES})

    @staticmethod
    def variant_a() -> "FeatureFamily":
        allowed = {s: COLORS for s in SHAPES}
        allowed[CONSTRAINED_SHAPES[0]] = COLOR_FAMILY_A
        allowed[CONSTRAINED_SHAPES[1]] = COLOR_FAMILY_B
        return FeatureFamily("A", allowed)

    @staticmethod
    def variant_b() -> "FeatureFamily":
        allowed = {s: COLORS for s in SHAPES}
        allowed[CONSTRAINED_SHAPES[0]] = COLOR_FAMILY_B
        allowed[CONSTRAINED_SHAPES[1]] = COLOR_FAMILY_A
        return FeatureFamily("B", allowed)

    @staticmethod
    def by_name(name: str) -> "FeatureFamily":
        """The one shared instance of a named family."""
        if name not in FAMILIES:
            raise ValueError(f"unknown feature family {name!r}")
        return FAMILIES[name]


FAMILIES = {
    family.name: family for family in (
        FeatureFamily.unrestricted(), FeatureFamily.variant_a(),
        FeatureFamily.variant_b(),
    )
}


@dataclass(frozen=True)
class SceneGraph:
    height: int
    width: int
    objects: tuple[SceneObject, ...]

    def __post_init__(self):
        seen = set()
        for o in self.objects:
            if not (0 <= o.row < self.height and 0 <= o.col < self.width):
                raise ValueError(f"object {o} outside {self.height}x{self.width} grid")
            if (o.row, o.col) in seen:
                raise ValueError(f"two objects in cell ({o.row}, {o.col})")
            if o.color not in COLOR_INDEX or o.shape not in SHAPE_INDEX:
                raise ValueError(f"unknown attributes on {o}")
            seen.add((o.row, o.col))

    def __len__(self):
        return len(self.objects)


def render_symbolic(scene: SceneGraph) -> np.ndarray:
    """The model's frame input: a one-hot (H, W, GRID_CHANNELS) float32 grid.

    Channel 0 marks an occupied cell, the next len(COLORS) channels its
    color and the last len(SHAPES) its shape; empty cells are all zero.
    """
    grid = np.zeros((scene.height, scene.width, GRID_CHANNELS), dtype=np.float32)
    for o in scene.objects:
        grid[o.row, o.col, 0] = 1.0
        grid[o.row, o.col, 1 + COLOR_INDEX[o.color]] = 1.0
        grid[o.row, o.col, 1 + len(COLORS) + SHAPE_INDEX[o.shape]] = 1.0
    return grid
