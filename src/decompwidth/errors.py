"""Shared exception types and the lexical rules of the text formats.

Every text format (``.dw``, ``.bd``, matroid files) is read line by line:
blank lines and lines starting with '#' are skipped, tokens are separated
by whitespace, integers are decimal, fields have the form ``key=<int>``,
and every error names its 1-based line.
"""


class ParseError(ValueError):
    """Malformed input text.  Carries the 1-based line number (0 when the
    failure is not tied to a line, e.g. an unreadable file)."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line > 0 else message)
        self.line = line


def records(text: str):
    """(line number, tokens) of every line that is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens


def integers(tokens: list[str], line: int, what: str) -> list[int]:
    """The decimal integers ``tokens`` spell; otherwise a ParseError at
    ``line`` that says ``what`` and quotes the tokens."""
    try:
        return [int(token) for token in tokens]
    except ValueError:
        raise ParseError(line, f"{what}, got {' '.join(tokens)!r}") from None


def keyed(token: str, key: str, line: int) -> int:
    """The integer of a ``key=<int>`` token."""
    if not token.startswith(key + "="):
        raise ParseError(line, f"expected {key}=<int>, got {token!r}")
    try:
        return int(token[len(key) + 1 :])
    except ValueError:
        raise ParseError(line, f"bad integer in {token!r}") from None
