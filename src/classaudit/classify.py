"""Group assignment from the class name and static-member flag.

Precedence: a *Utils-style suffix wins; otherwise a lowercase "er"/"or"
tail (preceded by at least one character) puts the class in the agent-noun
group unless the name ends with one of the excluded everyday words
(Logger, Color, Calculator, ...); everything else lands in Rest, except
that Rest classes carrying static members are dropped from the study.
Excluded names fall through to the Rest rules by default; the drop policy
is a knob because the routing is genuinely ambiguous.
"""

import os
from enum import Enum
from typing import Iterable, List, Optional, Tuple, Union

from ._record import FrozenRecord
from .errors import ConfigError

DEFAULT_UTILS_SUFFIXES: Tuple[str, ...] = ("Utils", "Util", "Utilities", "Utility")

# The agent-noun tail that defines the study's ErOr group; not a setting.
EROR_SUFFIXES: Tuple[str, ...] = ("er", "or")

DEFAULT_EXCLUSION_SUFFIXES: Tuple[str, ...] = (
    "Inner", "Actor", "Logger", "Member", "Order", "Parameter",
    "Error", "Calculator", "Vector", "Computer", "Customer",
    "Trigger", "Cluster", "Cipher", "Cursor", "Number", "Owner",
    "Meter", "Letter", "Answer", "Author", "Folder", "Other",
    "Cashier", "Broker", "Motor", "Mirror", "Spider", "Color",
    "Center", "Layer", "Never", "Browser", "Either", "Tensor",
    "Cylinder", "Meteor", "Flower", "Banner", "Chapter", "Developer",
)

EXCLUDED_TO_REST = "rest"
EXCLUDED_TO_DROP = "drop"


class GroupKind(Enum):
    UTILS = "Utils"
    EROR = "ErOr"
    REST = "Rest"
    DROPPED = "Dropped"


class GroupLabel(FrozenRecord):
    __slots__ = ("kind", "drop_reason")

    def __init__(self, kind: GroupKind, drop_reason: Optional[str] = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "drop_reason", drop_reason)


class SuffixRules(FrozenRecord):
    __slots__ = ("utils_suffixes", "exclusion_suffixes")

    def __init__(
        self,
        utils_suffixes: Iterable[str] = DEFAULT_UTILS_SUFFIXES,
        exclusion_suffixes: Iterable[str] = DEFAULT_EXCLUSION_SUFFIXES,
    ):
        # str.endswith takes a tuple of suffixes, not a list
        object.__setattr__(self, "utils_suffixes", tuple(utils_suffixes))
        object.__setattr__(self, "exclusion_suffixes", tuple(exclusion_suffixes))
        if not self.utils_suffixes:
            raise ValueError("utils suffix list must be non-empty")
        if len(set(self.exclusion_suffixes)) != len(self.exclusion_suffixes):
            raise ValueError("exclusion suffixes must be unique")


_UTILS = GroupLabel(GroupKind.UTILS)
_EROR = GroupLabel(GroupKind.EROR)
_REST = GroupLabel(GroupKind.REST)
_DROPPED_EXCLUDED = GroupLabel(GroupKind.DROPPED, "excluded-name")
_DROPPED_STATIC = GroupLabel(GroupKind.DROPPED, "static-member")


def has_utils_suffix(name: str, rules: SuffixRules) -> bool:
    return name.endswith(rules.utils_suffixes)


def has_eror_tail(name: str) -> bool:
    """Case-sensitive lowercase tail with at least one preceding character."""
    return name[1:].endswith(EROR_SUFFIXES)


def has_exclusion_suffix(name: str, rules: SuffixRules) -> bool:
    return name.endswith(rules.exclusion_suffixes)


def classify(
    name: str,
    has_static_member: bool,
    rules: SuffixRules = SuffixRules(),
    excluded_to: str = EXCLUDED_TO_REST,
) -> GroupLabel:
    """Total function: every name gets exactly one label."""
    if not name:
        raise ValueError("class name must be non-empty")
    if has_utils_suffix(name, rules):
        return _UTILS
    if has_eror_tail(name):
        if not has_exclusion_suffix(name, rules):
            return _EROR
        if excluded_to == EXCLUDED_TO_DROP:
            return _DROPPED_EXCLUDED
    if has_static_member:
        return _DROPPED_STATIC
    return _REST


def load_rules(path: Union[str, os.PathLike]) -> SuffixRules:
    """Rules file: one suffix per line under `[utils]` / `[exclude]` headers.

    Blank lines and `#` comments are ignored. A missing section keeps the
    default list for that section. An unknown `[...]` header, a suffix
    before the first header, a repeated exclusion suffix and a file that is
    not UTF-8 raise ConfigError, the first three at `path:line`.
    """
    utils: List[str] = []
    exclude: List[str] = []
    sections = {"[utils]": utils, "[exclude]": exclude}
    current: Optional[List[str]] = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            lines = fh.read().split("\n")  # file lines, as an editor counts them
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = sections.get(line.lower())
            if current is None:
                raise ConfigError(f"{path}:{lineno}: unknown section {line}, "
                                  f"expected [utils] or [exclude]")
        elif current is None:
            raise ConfigError(f"{path}:{lineno}: suffix {line!r} before any section header")
        elif current is exclude and line in exclude:
            raise ConfigError(f"{path}:{lineno}: repeated exclusion suffix {line!r}")
        else:
            current.append(line)
    return SuffixRules(
        utils_suffixes=tuple(utils) if utils else DEFAULT_UTILS_SUFFIXES,
        exclusion_suffixes=tuple(exclude) if exclude else DEFAULT_EXCLUSION_SUFFIXES,
    )
