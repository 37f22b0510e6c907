"""Structured diagnostics shared by the checkers, the compiler and the CLI.

A Diagnostic names the rule whose side condition failed, the source span it
was raised at (when one is known), what was expected and what was found.  The
``trail`` records the judgment frames between the failure leaf and the root
judgment, innermost first.

A failure travels as a ``DiagnosticError`` holding its Diagnostic: a
``CheckError`` from any rule of either checker, a ``ParseError`` from a
reader, a ``CompileFail`` from the clause compiler.
"""

from __future__ import annotations

from .record import record


@record
class Span:
    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


@record
class Diagnostic:
    rule: str
    expected: str = ""
    found: str = ""
    note: str = ""
    span: Span | None = None
    trail: tuple[str, ...] = ()

    def at(self, span: Span | None) -> "Diagnostic":
        """Attach a span if none is recorded yet."""
        if self.span is not None or span is None:
            return self
        return Diagnostic(self.rule, self.expected, self.found, self.note,
                          span, self.trail)

    def pushed(self, frame: str) -> "Diagnostic":
        return Diagnostic(self.rule, self.expected, self.found, self.note,
                          self.span, self.trail + (frame,))

    def render(self) -> str:
        """Line-oriented text form: ``ERROR <rule> at <file>:<line>:<col>: ...``."""
        loc = str(self.span) if self.span is not None else "<input>:0:0"
        msg = f"ERROR {self.rule} at {loc}: expected {self.expected or '?'}, found {self.found or '?'}"
        if self.note:
            msg += f" ({self.note})"
        return msg

    def __str__(self) -> str:
        return self.render()


class SeqcoreError(Exception):
    """Base for all errors raised out of the kernel."""


class DiagnosticError(SeqcoreError):
    """An error carrying its Diagnostic.  The message is the rendered text,
    built only when asked for, so raising one costs no rendering."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic

    def __str__(self) -> str:
        return self.diagnostic.render()


class CheckError(DiagnosticError):
    """A typechecking failure."""


class ParseError(DiagnosticError):
    """A syntax failure in surface or core text."""
