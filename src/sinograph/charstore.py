"""Character store: codepoints, readings and allographic classes.

An *allographic class* groups a character with its graphical variants
(simplified/traditional forms, combining shapes).  Classes are the
connected components of a user-supplied variant relation; characters not
named in any variant pair become singleton classes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import DataError, InputError


class Language(str, Enum):
    MANDARIN = "cmn"
    JAPANESE_ON = "ja_on"
    JAPANESE_KUN = "ja_kun"

    @classmethod
    def parse(cls, token: str) -> "Language":
        try:
            return cls(token)
        except ValueError:
            raise InputError(f"unknown language code {token!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


MAX_KUN_SYLLABLES = 12


@dataclass(frozen=True)
class Reading:
    """One pronunciation of a character in one language."""

    language: Language
    syllables: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.syllables:
            raise InputError("reading must have at least one syllable")
        if self.language is Language.MANDARIN and len(self.syllables) != 1:
            raise InputError(
                f"mandarin reading must be monosyllabic, got {self.syllables!r}")
        if self.language is Language.JAPANESE_KUN and len(self.syllables) > MAX_KUN_SYLLABLES:
            raise InputError(
                f"kun reading longer than {MAX_KUN_SYLLABLES} syllables: {self.syllables!r}")


@dataclass
class Sinograph:
    """A stored character: identity plus the data attached to it."""

    codepoint: int
    readings: list[Reading] = field(default_factory=list)


@dataclass(frozen=True)
class AllographClass:
    """A set of codepoints treated as one graphical identity."""

    id: int
    members: frozenset[int]
    representative: int

    def __post_init__(self) -> None:
        if not self.members:
            raise InputError("allographic class must have at least one member")
        if self.representative not in self.members:
            raise InputError("representative must be a class member")


@dataclass(frozen=True)
class ClassStatistics:
    count: int
    singleton_fraction: float
    max_size: int
    mean_size: float


def build_allograph_classes(
    variant_pairs: Iterable[tuple[int, int]],
    chars: Iterable[int],
    frequencies: Mapping[int, float] | None = None,
) -> list[AllographClass]:
    """Partition ``chars`` into allographic classes.

    Classes are the connected components of the (undirected) variant
    relation; every character outside the relation becomes a singleton.
    Class ids are assigned in ascending order of each class's minimal
    member codepoint.  The representative is the member with the highest
    frequency in ``frequencies`` (ties, or no frequency data: lowest
    codepoint).

    Raises ``InputError`` if a pair references a codepoint not in ``chars``.
    """
    charset = set(chars)
    parent: dict[int, int] = {cp: cp for cp in charset}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in variant_pairs:
        if a not in charset or b not in charset:
            raise InputError(
                f"variant pair (U+{a:04X}, U+{b:04X}) references a codepoint "
                f"outside the character set")
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, set[int]] = defaultdict(set)
    for cp in charset:
        groups[find(cp)].add(cp)

    freq = frequencies or {}
    classes = []
    for class_id, members in enumerate(sorted(groups.values(), key=min)):
        rep = min(members, key=lambda cp: (-freq.get(cp, 0.0), cp))
        classes.append(AllographClass(class_id, frozenset(members), rep))
    return classes


def class_statistics(classes: Sequence[AllographClass]) -> ClassStatistics:
    """Exact arithmetic over a class partition."""
    if not classes:
        raise DataError("cannot compute statistics of an empty class set")
    sizes = [len(c.members) for c in classes]
    n_chars = sum(sizes)
    return ClassStatistics(
        count=len(classes),
        singleton_fraction=sum(1 for s in sizes if s == 1) / len(classes),
        max_size=max(sizes),
        mean_size=n_chars / len(classes),
    )


class CharacterStore:
    """Immutable-after-build store of characters and their class partition."""

    def __init__(
        self,
        chars: Iterable[int],
        variant_pairs: Iterable[tuple[int, int]] = (),
        frequencies: Mapping[int, float] | None = None,
    ) -> None:
        self._chars: dict[int, Sinograph] = {
            cp: Sinograph(cp) for cp in sorted(set(chars))
        }
        self.classes: list[AllographClass] = build_allograph_classes(
            variant_pairs, self._chars.keys(), frequencies)
        self._class_by_cp: dict[int, int] = {}
        for cls in self.classes:
            for cp in cls.members:
                self._class_by_cp[cp] = cls.id

    def __contains__(self, codepoint: int) -> bool:
        return codepoint in self._chars

    def __len__(self) -> int:
        return len(self._chars)

    @property
    def codepoints(self) -> list[int]:
        return list(self._chars.keys())

    def sinograph(self, codepoint: int) -> Sinograph:
        try:
            return self._chars[codepoint]
        except KeyError:
            raise DataError(f"codepoint U+{codepoint:04X} not in store") from None

    def class_of(self, codepoint: int) -> int:
        """Id of the allographic class containing ``codepoint``."""
        try:
            return self._class_by_cp[codepoint]
        except KeyError:
            raise DataError(f"codepoint U+{codepoint:04X} not in store") from None

    def class_by_id(self, class_id: int) -> AllographClass:
        try:
            return self.classes[class_id]
        except IndexError:
            raise DataError(f"no allographic class with id {class_id}") from None

    def add_reading(self, codepoint: int, reading: Reading) -> None:
        self.sinograph(codepoint).readings.append(reading)

    def readings(self, codepoint: int, language: Language) -> list[Reading]:
        """All readings of ``codepoint`` in ``language`` (may be empty)."""
        return [r for r in self.sinograph(codepoint).readings
                if r.language is language]
