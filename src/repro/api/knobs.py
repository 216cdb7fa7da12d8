"""Request knobs: each request field is declared once, with :func:`knob`.

A knob declaration is a dataclass ``field`` whose metadata holds one
:class:`Knob`: the CLI flag and metavar, the help text, the range or
choice rule, the "``None`` means" build default, and how the flag's text
becomes the field value.  Everything else derives from it:

- :meth:`Request.rule_violations <repro.api.requests.Request.rule_violations>`
  walks the fields and applies each knob's rule (:meth:`Knob.violations`);
- :meth:`Request.resolved <repro.api.requests.Request.resolved>` fills a
  ``None`` field with the knob's ``none_means``;
- :mod:`repro.cli` builds each command's options from the fields it
  names, and turns the parsed flags back into request keyword arguments.

A field without a knob is API-only and has no rule of its own (explicit
scenario lists, serving traces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

#: ``Knob.cli_default`` when the flag defaults to the field's own default.
FIELD_DEFAULT: Any = object()


@dataclass(frozen=True)
class AtLeast:
    """``value >= minimum``; on a tuple field, every non-None entry."""

    minimum: int

    def check(self, name: str, value: Any) -> List[str]:
        if isinstance(value, tuple):
            if any(v is not None and v < self.minimum for v in value):
                return [f"{name} values must be >= {self.minimum}, got {list(value)}"]
        elif value is not None and value < self.minimum:
            return [f"{name} must be >= {self.minimum}, got {value}"]
        return []


@dataclass(frozen=True)
class Above:
    """``value > bound`` (so NaN fails); on a tuple field, per entry."""

    bound: int = 0

    def check(self, name: str, value: Any) -> List[str]:
        label = f"{name} values" if isinstance(value, tuple) else name
        return [
            f"{label} must be > {self.bound}, got {v}"
            for v in (value if isinstance(value, tuple) else (value,))
            if v is not None and not v > self.bound
        ]


@dataclass(frozen=True)
class OneOf:
    """Membership in ``choices`` (per entry on a tuple field); ``noun``
    names a rejected value.  ``cli=False`` leaves the check to request
    validation instead of also handing the choices to argparse."""

    choices: Sequence
    noun: str
    cli: bool = True

    def check(self, name: str, value: Any) -> List[str]:
        return [
            f"unknown {self.noun} {v!r}; have {self.choices}"
            for v in (value if isinstance(value, tuple) else (value,))
            if v is not None and v not in self.choices
        ]


Rule = Union[AtLeast, Above, OneOf]


@dataclass(frozen=True)
class Comma:
    """A flag whose text is a comma-separated list of ``item`` values.

    ``none``: the entry ``none`` reads as None.  ``blank``: empty text
    keeps the field default.  ``bounded``: an :class:`AtLeast` rule is
    also checked while parsing, naming the flag."""

    item: type = str
    none: bool = False
    blank: bool = False
    bounded: bool = True


def parse_list(text: str, item: type, minimum: Optional[int] = None, none: bool = False):
    """``text`` split on commas into ``item`` values; raises
    ``ValueError`` with the reason a flag's text is invalid."""
    values = []
    for entry in text.split(","):
        if none and entry.strip().lower() == "none":
            values.append(None)
            continue
        try:
            values.append(item(entry))
        except ValueError:
            kind = "integers" if item is int else "numbers"
            raise ValueError(
                f"expected comma-separated {kind}" + (" or 'none'" if none else "")
            ) from None
    if minimum is not None and any(v < minimum for v in values):
        raise ValueError(f"values must be >= {minimum}")
    return tuple(values)


@dataclass(frozen=True)
class Knob:
    """One request field's declaration (see the module docstring)."""

    flag: Optional[str] = None
    metavar: Optional[str] = None
    help: Optional[str] = None
    rule: Optional[Rule] = None
    #: On a tuple field: the noun of "must name at least one ...".
    unit: Optional[str] = None
    #: The value a ``None`` field builds with.
    none_means: Any = None
    cli_default: Any = FIELD_DEFAULT
    #: argparse choices when they differ from the rule's.
    cli_choices: Optional[Tuple] = None
    comma: Optional[Comma] = None
    #: Converts the flag's text when it is neither a list nor a scalar.
    parse: Optional[Callable[[str], Any]] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def takes_text(self) -> bool:
        """The flag's text is converted here, not by argparse."""
        return self.comma is not None or self.parse is not None

    def violations(self, name: str, value: Any) -> List[str]:
        if self.unit is not None and value == ():
            return [f"{name} must name at least one {self.unit}"]
        return self.rule.check(name, value) if self.rule is not None else []

    def from_text(self, text: str) -> Any:
        """The field value the flag's ``text`` names (None: keep the
        default); raises ``ValueError`` with the reason it is invalid."""
        if self.parse is not None:
            return self.parse(text)
        if self.comma.blank and not text:
            return None
        bounded = self.comma.bounded and isinstance(self.rule, AtLeast)
        return parse_list(
            text,
            self.comma.item,
            minimum=self.rule.minimum if bounded else None,
            none=self.comma.none,
        )


def knob(
    default: Any = None,
    flag: Optional[str] = None,
    metavar: Optional[str] = None,
    rule: Optional[Rule] = None,
    **declaration: Any,
) -> Any:
    """A dataclass field whose metadata holds its :class:`Knob`."""
    declared = Knob(flag=flag, metavar=metavar, rule=rule, **declaration)
    return field(default=default, metadata={"knob": declared})


def knob_of(cls: type, name: str) -> Knob:
    """The :class:`Knob` declared for field ``name`` of request ``cls``."""
    return cls.__dataclass_fields__[name].metadata["knob"]
