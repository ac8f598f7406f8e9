"""Doc link guard: what the documents name must exist.

README.md, DESIGN.md, EXPERIMENTS.md and the verify skill name files
(``tests/test_x.py``, ``benchmarks/ab.py``, ``repro/sim/engine.py``,
``verbs/qp.py``) and ``make`` targets.  A PR that deletes or renames one
of them fails here, by document and by name, until the prose follows.

Those documents, the code under ``src/`` and ``tests/``, the Makefile
and CI also cite DESIGN.md by section: ``DESIGN.md §n`` (the file name
backticked or not), ``DESIGN §n`` and ``§n "Title"``.  Section ``n``
must be a ``## n.`` heading, and a quoted title must begin a ``**…**``
lead or a ``###`` heading inside it.  A bare ``§4.2`` is the paper's
and is not checked.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]
#: Everything checked for section references: the documents, then code.
REF_SOURCES = DOCS + ["Makefile", ".github/workflows/ci.yml", "src", "tests"]

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
_SECTION_REF = re.compile(
    r"(DESIGN(?:\.md)?`?\s+)?\u00a7(\d+)(?![.\d])(?:\s+[\"\u201c]([^\"\u201d]+)[\"\u201d])?"
)


def named_paths(text):
    return sorted({directory + (name or "") for directory, name in _PATH.findall(text)})


def named_make_targets(text):
    """``make <target>`` inside code: fenced blocks and backtick spans."""
    code = _FENCE.findall(text) + _SPAN.findall(_FENCE.sub("", text))
    return sorted({target for piece in code for target in _MAKE.findall(piece)})


def make_targets():
    return set(re.findall(r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(), re.M))


def design_sections():
    """DESIGN.md's ``## n.`` sections: number -> the texts of the
    ``**…**`` leads and ``###`` headings inside it."""
    text = (ROOT / "DESIGN.md").read_text()
    sections = {}
    for number, body in re.findall(r"^## (\d+)\.(.*?)(?=^## |\Z)", text, re.M | re.S):
        leads = re.findall(r"^\*\*(.+?)\*\*", body, re.M | re.S)
        leads += re.findall(r"^### (.+)$", body, re.M)
        sections[number] = [" ".join(lead.split()) for lead in leads]
    return sections


def dangling_sections(text, sections):
    """The DESIGN section references in ``text`` that name no section,
    or a title that begins no lead or heading of it."""
    bad = []
    for design, number, title in _SECTION_REF.findall(text):
        if not design and not title:
            continue
        title = " ".join(title.split())
        leads = sections.get(number)
        if leads is None or (title and not any(lead.startswith(title) for lead in leads)):
            bad.append(f"\u00a7{number}" + (f' "{title}"' if title else ""))
    return bad


def _ref_files(source):
    path = ROOT / source
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


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


@pytest.mark.parametrize("source", REF_SOURCES)
def test_every_design_section_a_file_cites_exists(source):
    sections = design_sections()
    bad = {}
    for path in _ref_files(source):
        dangling = dangling_sections(path.read_text(), sections)
        if dangling:
            bad[str(path.relative_to(ROOT))] = dangling
    assert bad == {}


def test_the_guard_sees_what_it_should():
    text = (
        "see `tests/test_doc_links.py`, sim/no_such_core.py and `benchmarks/GONE_<date>.json`;\n"
        "run `REPRO_X=1 make test` or\n```\nmake no-such-target PARENT=<sha>\n```\n"
        "but make sure prose about verbs/LITE is left alone\n"
    )
    assert missing(text) == ["sim/no_such_core.py", "make no-such-target"]
    assert "benchmarks/" in named_paths(text) and "test" in named_make_targets(text)
    # Written with escapes so this file holds no dangling reference itself.
    refs = (
        "DESIGN.md \u00a717 \"Host cost per WR\" and DESIGN \u00a711, the paper's "
        "\u00a74.2 and \u00a75; but DESIGN.md \u00a799, `DESIGN.md` \u00a798, "
        "\u00a717 \"No such\nlead\" and DESIGN \u00a711 \u201cHost cost per WR\u201d dangle\n"
    )
    assert dangling_sections(refs, design_sections()) == [
        "\u00a799", "\u00a798", '\u00a717 "No such lead"', '\u00a711 "Host cost per WR"',
    ]
