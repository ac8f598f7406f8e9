"""Doc link guard: what the documents name must exist.

README.md, DESIGN.md, EXPERIMENTS.md and the verify skill name files
(``tests/test_x.py``, ``benchmarks/ab.py``, ``repro/sim/engine.py``,
``verbs/qp.py``) and ``make`` targets.  A PR that deletes or renames one
of them fails here, by document and by name, until the prose follows.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]

#: A path is written from the repo root, from ``src/`` or from ``src/repro/``.
BASES = [ROOT, ROOT / "src", ROOT / "src" / "repro"]
_TOPS = sorted(
    {"src", "repro", "tests", "benchmarks", "examples"}
    | {p.name for p in (ROOT / "src" / "repro").iterdir() if (p / "__init__.py").exists()}
)
#: ``top/dir/file.ext`` or ``top/dir/``; a glob or template part (``*``,
#: ``<date>``, ``{name}``, ``$(...)``) ends the match, and what stands before
#: it is checked as a directory.
_PATH = re.compile(
    r"(?<![\w./-])((?:%s)/(?:[\w.-]+/)*)([\w.-]*\.(?:py|json|md|csv|txt|yml)\b)?"
    % "|".join(map(re.escape, _TOPS))
)
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_MAKE = re.compile(r"(?:^|[\s;&])make ([a-z][\w-]*)", re.M)


def named_paths(text):
    return sorted({directory + (name or "") for directory, name in _PATH.findall(text)})


def named_make_targets(text):
    """``make <target>`` inside code: fenced blocks and backtick spans."""
    code = _FENCE.findall(text) + _SPAN.findall(_FENCE.sub("", text))
    return sorted({target for piece in code for target in _MAKE.findall(piece)})


def make_targets():
    return set(re.findall(r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(), re.M))


def missing(text):
    gone = [path for path in named_paths(text)
            if not any((base / path).exists() for base in BASES)]
    gone += [f"make {target}" for target in sorted(set(named_make_targets(text)) - make_targets())]
    return gone


@pytest.mark.parametrize("doc", DOCS)
def test_every_path_and_make_target_a_document_names_exists(doc):
    text = (ROOT / doc).read_text()
    assert named_paths(text), f"{doc}: the guard found no path to check"
    assert missing(text) == []


def test_the_guard_sees_what_it_should():
    text = (
        "see `tests/test_doc_links.py`, sim/no_such_core.py and `benchmarks/GONE_<date>.json`;\n"
        "run `REPRO_X=1 make test` or\n```\nmake no-such-target PARENT=<sha>\n```\n"
        "but make sure prose about verbs/LITE is left alone\n"
    )
    assert missing(text) == ["sim/no_such_core.py", "make no-such-target"]
    assert "benchmarks/" in named_paths(text) and "test" in named_make_targets(text)
