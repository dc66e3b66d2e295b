"""Count the code lines of the package, per module and in total.

    python scripts/code_lines.py [SRC]

SRC is the package directory, by default ``src/asymptotica`` of the
checkout this script is in.  A code line is a source line that holds part
of a token other than a comment, an indentation change, a line break or a
docstring; a docstring is a string that makes up a statement of its own.
A token that spans lines, a multi-line string say, counts on each line it
covers.  Blank lines, comment lines and docstring lines are left out,
whatever their layout, since the count is read off Python's own tokenizer.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent
# tokens, besides comments and blank lines, that hold no code
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}
# the tokens after which a string starts a statement
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The code lines of one module's ``source``."""
    tokens = [tok for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, tok, after in zip([None] + tokens, tokens, tokens[1:] + [None]):
        docstring = (tok.type == tokenize.STRING and before.type in STATEMENT_START
                     and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=HERE.parent / "src" / "asymptotica")
    args = parser.parse_args(argv)
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(args.src.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<12} {count:>6,}")
    print(f"{'total':<12} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
