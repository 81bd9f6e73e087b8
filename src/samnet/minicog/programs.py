"""Question programs: task classes, their groups, templates, and answer sets.

A program is a task class plus typed arguments (attribute constants, one
spatial relation, a temporal tag). Each program realizes to a deterministic
token sequence; the vocabulary and answer list are fixed module-wide so all
generated corpora share one id space.

The signature table gives each class its argument arity and, in its
`attribute` column, the attribute ("color" or "shape") the class reads.
Get, compare and exist-of referents are keyed by the other attribute:
GetColor(star) reads the color of the latest star. Exist and Spatial
classes ask about a descriptor (color|None, shape|None), their `query`,
and Spatial ones relate it to a `reference` object. As in COG, where one
operator takes the attribute or descriptor as an argument, each family has
one template here and one oracle rule, and the planners read the same
facts; `matches` is the one descriptor test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .scenes import COLORS, SHAPES

RELATIONS = ("left", "right", "above", "below")
TAGS = ("now", "last", "latest")

BOOLEAN_ANSWERS = ("false", "true")
INVALID = "invalid"
ANSWERS = BOOLEAN_ANSWERS + (INVALID,) + COLORS + SHAPES
ANSWER_INDEX = {a: i for i, a in enumerate(ANSWERS)}

EXIST_CLASSES = ("Exist", "ExistColor", "ExistShape")
TASK_GROUPS = {
    "Basic": EXIST_CLASSES + ("GetColor", "GetShape"),
    "Obj-Attr": (
        "SimpleCompareColor", "SimpleCompareShape",
        "AndSimpleCompareColor", "AndSimpleCompareShape",
    ),
    "Compare": (
        "CompareColor", "CompareShape", "AndCompareColor", "AndCompareShape",
        "ExistColorOf", "ExistShapeOf",
    ),
    "Spatial": (
        "ExistSpace", "ExistColorSpace", "ExistShapeSpace",
        "GetColorSpace", "GetShapeSpace",
    ),
    "Cognitive": (
        "ExistLastColorSameShape", "ExistLastShapeSameColor",
        "ExistLastObjectSameObject",
    ),
}
GROUP_TREE = {"A": ("Basic", "Obj-Attr", "Compare"), "B": ("Spatial", "Cognitive")}
TASK_CLASSES = tuple(itertools.chain.from_iterable(TASK_GROUPS.values()))
GROUP_OF = {
    cls: group for group, classes in TASK_GROUPS.items() for cls in classes
}

class Signature(NamedTuple):
    """Argument arity of a class and the attribute it reads.

    colors/shapes list the argument arity, query argument first, reference
    descriptor last. `attribute` ("color" or "shape") is the attribute a
    class reads: of referents keyed by the other one, which are then its
    arguments, or for Get*Space of the object related to the reference. It
    is None for the Exist* and ExistLastObjectSameObject classes.
    """

    n_colors: int
    n_shapes: int
    uses_relation: bool
    uses_tag: bool
    attribute: str | None = None


_SIGNATURES = {
    "Exist": Signature(0, 0, False, True),
    "ExistColor": Signature(1, 0, False, True),
    "ExistShape": Signature(0, 1, False, True),
    "GetColor": Signature(0, 1, False, True, "color"),
    "GetShape": Signature(1, 0, False, True, "shape"),
    "SimpleCompareColor": Signature(0, 2, False, False, "color"),
    "SimpleCompareShape": Signature(2, 0, False, False, "shape"),
    "AndSimpleCompareColor": Signature(0, 4, False, False, "color"),
    "AndSimpleCompareShape": Signature(4, 0, False, False, "shape"),
    "CompareColor": Signature(0, 2, False, False, "color"),
    "CompareShape": Signature(2, 0, False, False, "shape"),
    "AndCompareColor": Signature(0, 4, False, False, "color"),
    "AndCompareShape": Signature(4, 0, False, False, "shape"),
    "ExistColorOf": Signature(0, 1, False, False, "color"),
    "ExistShapeOf": Signature(1, 0, False, False, "shape"),
    "ExistSpace": Signature(1, 1, True, False),
    "ExistColorSpace": Signature(2, 1, True, False),
    "ExistShapeSpace": Signature(1, 2, True, False),
    "GetColorSpace": Signature(1, 1, True, False, "color"),
    "GetShapeSpace": Signature(1, 1, True, False, "shape"),
    "ExistLastColorSameShape": Signature(0, 1, False, False, "color"),
    "ExistLastShapeSameColor": Signature(1, 0, False, False, "shape"),
    "ExistLastObjectSameObject": Signature(0, 0, False, False),
}

# The two attribute families that relate referents, each mapped to the scope
# of the referent compared against: the second referent of a pair for the
# compares (the first is always "now"), the one referent for the exist-ofs.
COMPARE_SCOPE = {
    "SimpleCompareColor": "now", "SimpleCompareShape": "now",
    "AndSimpleCompareColor": "now", "AndSimpleCompareShape": "now",
    "CompareColor": "last", "CompareShape": "last",
    "AndCompareColor": "last", "AndCompareShape": "last",
}
EXIST_OF_SCOPE = {
    "ExistColorOf": "latest", "ExistShapeOf": "latest",
    "ExistLastColorSameShape": "last", "ExistLastShapeSameColor": "last",
}


@dataclass(frozen=True)
class QuestionProgram:
    task_class: str
    colors: tuple[str, ...] = ()
    shapes: tuple[str, ...] = ()
    relation: str | None = None
    tag: str | None = None

    def __post_init__(self):
        if self.task_class not in _SIGNATURES:
            raise ValueError(f"unknown task class {self.task_class!r}")
        sig = _SIGNATURES[self.task_class]
        if len(self.colors) != sig.n_colors or len(self.shapes) != sig.n_shapes:
            raise ValueError(
                f"{self.task_class} expects {sig.n_colors} colors / "
                f"{sig.n_shapes} shapes, got {self.colors} / {self.shapes}"
            )
        if any(c not in COLORS for c in self.colors):
            raise ValueError(f"unknown color in {self.colors}")
        if any(s not in SHAPES for s in self.shapes):
            raise ValueError(f"unknown shape in {self.shapes}")
        if sig.uses_relation != (self.relation is not None) or (
            self.relation is not None and self.relation not in RELATIONS
        ):
            raise ValueError(f"bad relation {self.relation!r} for {self.task_class}")
        if sig.uses_tag != (self.tag is not None) or (
            self.tag is not None and self.tag not in TAGS
        ):
            raise ValueError(f"bad tag {self.tag!r} for {self.task_class}")

    @property
    def group(self) -> str:
        return GROUP_OF[self.task_class]

    @property
    def attribute(self) -> str | None:
        return _SIGNATURES[self.task_class].attribute

    @property
    def keys(self) -> tuple[str, ...]:
        """Referent keys of an attribute class: the values of the other one."""
        return self.shapes if self.attribute == "color" else self.colors

    def keyed(self, key: str, value: str | None = None) -> tuple:
        """(color, shape) of an object with referent key `key` carrying
        `value` of the read attribute; None leaves a descriptor slot open."""
        return (value, key) if self.attribute == "color" else (key, value)

    @property
    def query(self) -> tuple:
        """(color|None, shape|None) an Exist or Spatial class asks about: its
        leading color and shape arguments beyond the reference, if any."""
        n_ref = 1 if self.relation is not None else 0
        colors = self.colors[:len(self.colors) - n_ref]
        shapes = self.shapes[:len(self.shapes) - n_ref]
        return (colors[0] if colors else None, shapes[0] if shapes else None)

    @property
    def reference(self) -> tuple[str, str]:
        """(color, shape) of a Spatial class's reference object."""
        return self.colors[-1], self.shapes[-1]

    def key_pairs(self) -> list[tuple[str, str]]:
        """Referent key pairs of a compare class, first referent first."""
        keys = self.keys
        return [(keys[i], keys[i + 1]) for i in range(0, len(keys), 2)]

    def tokens(self) -> list[str]:
        return _render_tokens(self)

    def to_dict(self) -> dict:
        return {
            "task_class": self.task_class,
            "colors": list(self.colors),
            "shapes": list(self.shapes),
            "relation": self.relation,
            "tag": self.tag,
        }

    @staticmethod
    def from_dict(d: dict) -> "QuestionProgram":
        return QuestionProgram(
            task_class=d["task_class"],
            colors=tuple(d.get("colors") or ()),
            shapes=tuple(d.get("shapes") or ()),
            relation=d.get("relation"),
            tag=d.get("tag"),
        )


def matches(color: str, shape: str, desc) -> bool:
    """Whether an object of this color and shape fits the descriptor
    (color|None, shape|None); a None slot matches any value."""
    want_color, want_shape = desc
    return ((want_color is None or want_color == color)
            and (want_shape is None or want_shape == shape))


def _referent(p: QuestionProgram, key: str) -> list[str]:
    """A referent keyed by shape is named by it; one keyed by color is a
    colored object."""
    return [key] if p.attribute == "color" else [key, "object"]


def _described(desc) -> list[str]:
    """A query descriptor: "red object", "any star" or "any object"."""
    color, shape = desc
    return [color or "any", shape or "object"]


def _render_tokens(p: QuestionProgram) -> list[str]:
    cls, attr = p.task_class, p.attribute
    if cls in EXIST_CLASSES:
        return ["exist", *_described(p.query), p.tag]
    if cls in ("GetColor", "GetShape"):
        return ["query", attr, "of", *_referent(p, p.keys[0]), p.tag]
    if cls in COMPARE_SCOPE:
        # within-frame compares tag the question once; across-frame ones tag
        # each referent of a pair
        within = COMPARE_SCOPE[cls] == "now"
        first, second = ([], []) if within else (["now"], ["last"])
        words = ["same", attr]
        for i, (key1, key2) in enumerate(p.key_pairs()):
            if i:
                words.append("also")
            words += ["of", *_referent(p, key1), *first,
                      "and", *_referent(p, key2), *second]
        return words + (["now"] if within else [])
    if cls in EXIST_OF_SCOPE:
        return ["exist", "now", "object", "with", attr, "of",
                EXIST_OF_SCOPE[cls], *_referent(p, p.keys[0])]
    if p.group == "Spatial":
        if attr is not None:
            subject = ["query", attr, "of", "object"]
        elif cls == "ExistSpace":
            # worded without "any"; the pinned token digest fixes this
            subject = ["exist", "object"]
        else:
            subject = ["exist", *_described(p.query)]
        return subject + [p.relation, "of", *p.reference, "now"]
    if cls == "ExistLastObjectSameObject":
        return ["exist", "now", "object", "same", "as", "last", "object"]
    raise ValueError(f"no template for {cls!r}")


_FUNCTION_WORDS = (
    "exist", "any", "object", "query", "color", "shape", "of",
    "same", "and", "also", "with", "as",
)
VOCABULARY = _FUNCTION_WORDS + COLORS + SHAPES + RELATIONS + TAGS
TOKEN_INDEX = {w: i for i, w in enumerate(VOCABULARY)}


def encode_tokens(words) -> list[int]:
    return [TOKEN_INDEX[w] for w in words]


def answer_set(task_class: str) -> frozenset:
    """Answers a task class can produce (including the invalid marker)."""
    if task_class in ("GetColor", "GetColorSpace"):
        return frozenset(COLORS) | {INVALID}
    if task_class in ("GetShape", "GetShapeSpace"):
        return frozenset(SHAPES) | {INVALID}
    return frozenset(BOOLEAN_ANSWERS) | {INVALID}


def named_task_family(name: str) -> dict[str, float]:
    """Uniform class weights for a named family: 'all', a group name,
    or 'Group-A'/'Group-B' from the two-level hierarchy."""
    if name == "all":
        classes = TASK_CLASSES
    elif name in TASK_GROUPS:
        classes = TASK_GROUPS[name]
    elif name in ("Group-A", "Group-B"):
        groups = GROUP_TREE[name[-1]]
        classes = tuple(
            cls for g in groups for cls in TASK_GROUPS[g]
        )
    else:
        raise ValueError(f"unknown task family name {name!r}")
    return {cls: 1.0 for cls in classes}


def parse_task_family(spec: str) -> dict[str, float]:
    """Parse 'all', a group name, or comma-separated 'Class[:weight]' terms."""
    spec = spec.strip()
    if ":" not in spec and "," not in spec and spec not in TASK_CLASSES:
        return named_task_family(spec)
    family = {}
    for part in spec.split(","):
        cls, _, weight = part.strip().partition(":")
        if cls not in TASK_CLASSES:
            raise ValueError(f"unknown task class {cls!r}")
        family[cls] = float(weight) if weight else 1.0
    return family


def enumerate_programs(task_class: str, colors=COLORS, shapes=SHAPES,
                       relations=RELATIONS, tags=TAGS):
    """All argument combinations of one class over restricted attribute sets."""
    sig = _SIGNATURES[task_class]
    color_choices = itertools.product(colors, repeat=sig.n_colors)
    out = []
    for cs in color_choices:
        for ss in itertools.product(shapes, repeat=sig.n_shapes):
            rels = relations if sig.uses_relation else (None,)
            tgs = tags if sig.uses_tag else (None,)
            for rel in rels:
                for tag in tgs:
                    out.append(QuestionProgram(
                        task_class, colors=tuple(cs), shapes=tuple(ss),
                        relation=rel, tag=tag,
                    ))
    return out
