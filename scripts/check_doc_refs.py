#!/usr/bin/env python3
"""Fail if DESIGN.md / README.md or the code reference repo paths, tests or code names that no longer exist.

The docs name concrete files constantly (src/net/cursor.h, tests/...,
BENCH_*.json); refactors move files and leave the prose behind. This checker
extracts every repo-relative path-looking token from the given markdown files
and verifies it exists, so CI catches the drift the moment it lands.

The docs also cite gtest names in backticks (`Suite.Name`). Every (suite,
name) pair declared by TEST / TEST_F / TEST_P in tests/*.cpp is collected; a
backticked `Suite.Name` whose Suite is one of those suites must name one of
its tests. `Suite.*` and the parameterized form `Prefix/Suite.Name/*` are
accepted. Tokens whose first part is not a test suite (`meta.n`,
`core.ns_per_hop`) are not test references and are skipped.

The docs cite code names in backticks too: qualified names
(`net::cursor::move_to`, `api::op_stats::of(cursor)`) and calls (`settle()`,
`cur.give_up()`). Every part of a qualified name and every called name must
occur as a word in the code of src/ or bench/, so a doc that still cites a
deleted function fails. Comments are stripped first: a name that survives
only in a comment is as dead as the code it named. `std::` names belong to
the standard library and are skipped.

Code comments name files too ("see EXPERIMENTS.md", "bench/bench_common.h"),
so without FILE arguments every file under src/, bench/, tests/ and
examples/ gets the path and artifact check as well (not the test and code
name checks, which are about prose). scripts/ is not scanned: its docstrings
hold example paths.

Usage: scripts/check_doc_refs.py [FILE...]
       (defaults to DESIGN.md README.md, plus the code directories above)
"""

import glob
import os
import re
import sys

# src/net/cursor.h, tests/test_net.cpp, bench/bench_common.h,
# examples/quickstart.cpp, scripts/foo.py, .github/workflows/ci.yml — plus
# directory references like src/serve/ . Trailing braces expand:
# src/serve/route_cache.{h,cpp} means both files.
PATH_RE = re.compile(
    r"\b((?:src|tests|bench|examples|scripts|\.github)/[A-Za-z0-9_./\-]*"
    r"(?:\{[A-Za-z0-9_,. ]+\})?[A-Za-z0-9_/\-]*)"
)

# Doc prose also names the committed trajectory artifacts.
ARTIFACT_RE = re.compile(r"\b(BENCH_[A-Za-z0-9_]+\.json|[A-Z]+\.md|CMakePresets\.json|CMakeLists\.txt)\b")

GENERATED_OK = {
    # Patterns/wildcards and generated-at-runtime names that need not exist.
    "BENCH_.json",
}

# TEST(Suite, Name), TEST_F(Suite, Name), TEST_P(Suite, Name).
TEST_DECL_RE = re.compile(r"\bTEST(?:_F|_P)?\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)")

# `Suite.Name`, `Suite.*`, `Prefix/Suite.Name/*` inside backticks.
TEST_REF_RE = re.compile(r"`(?:\w+/)?(\w+)\.(\w+|\*)(?:/\*)?`")


# Backticked spans, and inside them `a::b::c` names and `name()` calls (bare,
# or through an object: `cur.give_up()`; a call after `::` is part of a
# qualified name).
SPAN_RE = re.compile(r"`([^`\n]+)`")
QUALIFIED_RE = re.compile(r"(?<![\w:])((?:[A-Za-z_]\w*::)+~?[A-Za-z_]\w*)")
CALL_RE = re.compile(r"(?<![\w:])(?:\w+\.)*([A-Za-z_]\w*)\(\)")
WORD_RE = re.compile(r"[A-Za-z_]\w*")

# A C++ comment, or a string or character literal, which is kept whole so
# that a "//" inside it does not start a comment.
COMMENT_OR_LITERAL_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.S
)


def strip_comments(code: str) -> str:
    """The source with every // and /* */ comment replaced by a space."""
    return COMMENT_OR_LITERAL_RE.sub(
        lambda m: " " if m.group(0).startswith("/") else m.group(0), code
    )


def expand(token: str):
    """src/a/b.{h,cpp} -> [src/a/b.h, src/a/b.cpp]; plain tokens unchanged."""
    m = re.match(r"^(.*)\{([^}]*)\}(.*)$", token)
    if not m:
        return [token]
    head, alts, tail = m.groups()
    return [f"{head}{alt.strip()}{tail}" for alt in alts.split(",")]


def check(md_path: str, repo_root: str):
    bad = []
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    tokens = set(PATH_RE.findall(text)) | set(ARTIFACT_RE.findall(text))
    for token in sorted(tokens):
        for path in expand(token):
            path = path.rstrip(".,:;")
            if not path or path in GENERATED_OK or "*" in path:
                continue
            is_dir_ref = path.endswith("/")
            has_extension = "." in path.rsplit("/", 1)[-1]
            if not is_dir_ref and not has_extension:
                # Prose like "tests/benches/examples", not a path reference.
                continue
            full = os.path.join(repo_root, path)
            ok = os.path.isdir(full) if is_dir_ref else os.path.exists(full)
            if not ok:
                bad.append((md_path, path))
    return bad


def declared_tests(repo_root: str):
    """{suite: {test names}} over every TEST/TEST_F/TEST_P in tests/*.cpp."""
    suites = {}
    for path in glob.glob(os.path.join(repo_root, "tests", "*.cpp")):
        with open(path, encoding="utf-8") as f:
            for suite, name in TEST_DECL_RE.findall(f.read()):
                suites.setdefault(suite, set()).add(name)
    return suites


def check_tests(md_path: str, suites):
    bad = []
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    for suite, name in sorted(set(TEST_REF_RE.findall(text))):
        if suite in suites and name != "*" and name not in suites[suite]:
            bad.append((md_path, f"{suite}.{name}"))
    return bad


def code_words(repo_root: str):
    """Every identifier-like word in the code of src/ and bench/, comments excluded."""
    words = set()
    for top in ("src", "bench"):
        for path in glob.glob(os.path.join(repo_root, top, "**", "*"), recursive=True):
            if os.path.isfile(path):
                with open(path, encoding="utf-8", errors="replace") as f:
                    words.update(WORD_RE.findall(strip_comments(f.read())))
    return words


def check_code_names(md_path: str, words):
    bad = set()
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    for span in SPAN_RE.findall(text):
        names = [q for q in QUALIFIED_RE.findall(span) if not q.startswith("std::")]
        names += CALL_RE.findall(span)
        for name in names:
            if any(part.lstrip("~") not in words for part in name.split("::")):
                bad.add((md_path, name))
    return sorted(bad)


def code_files(repo_root: str):
    """Every file under the code directories whose paths the checker reads."""
    files = []
    for top in ("src", "bench", "tests", "examples"):
        pattern = os.path.join(repo_root, top, "**", "*")
        files.extend(p for p in sorted(glob.glob(pattern, recursive=True)) if os.path.isfile(p))
    return files


def main(argv):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = argv[1:] or [
        os.path.join(repo_root, "DESIGN.md"),
        os.path.join(repo_root, "README.md"),
    ]
    suites = declared_tests(repo_root)
    words = code_words(repo_root)
    bad = []
    for md in files:
        bad.extend(check(md, repo_root))
        bad.extend(check_tests(md, suites))
        bad.extend(check_code_names(md, words))
    code = [] if argv[1:] else code_files(repo_root)
    for path in code:
        bad.extend(check(path, repo_root))
    if bad:
        for md, ref in bad:
            print(f"{md}: dead reference: {ref}", file=sys.stderr)
        return 1
    print(f"doc refs ok ({len(files)} docs and {len(code)} code files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
