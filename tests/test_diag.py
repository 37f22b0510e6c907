"""Diagnostics: the text a diagnostic and the error carrying it print as."""

from seqcore.diag import CheckError, Diagnostic, ParseError, Span


def test_str_is_the_rendered_line():
    d = Diagnostic("axiom", expected="a", found="b", note="unfinished spine",
                   span=Span("p.seq", 3, 7))
    line = "ERROR axiom at p.seq:3:7: expected a, found b (unfinished spine)"
    assert d.render() == line
    assert str(d) == line
    assert str(CheckError(d)) == str(ParseError(d)) == line


def test_str_without_span_or_fields():
    assert str(Diagnostic("parse")) == \
        "ERROR parse at <input>:0:0: expected ?, found ?"
