#!/usr/bin/env python3
"""Project-invariant linter for the PASS tree.

Enforces four invariants that ordinary compilers and clang-tidy do not
know about, because they are *this project's* contracts:

  nvi-override     AqpSystem subclasses implement the protected hooks
                   (AnswerImpl is mandatory) and never redeclare the
                   public NVI entries Answer / AnswerMulti / StartSession.
                   Redeclaring an entry bypasses the degenerate-predicate
                   short-circuit and the cache decorator's interposition.

  fp-accumulation  Floating-point reduction over row data lives only in
                   src/kernel/ (the deterministic, lane-striped reduction
                   from the determinism PR). Outside the kernel this rule
                   bans std::accumulate / std::reduce /
                   std::transform_reduce, `#pragma omp`, and loops that
                   accumulate subscripted raw double-pointer data.
                   Deterministic merges of already-reduced per-partition
                   values (vectors, struct fields) remain fine.

  nondeterminism   No rand()/srand()/time()/std::random_device in src/.
                   Every random stream flows from an explicit uint64 seed
                   (EngineConfig::seed) so answers are replayable;
                   wall-clock randomness would silently break the exact
                   answer-cache tier and every golden test.

  naked-mutex      No std::mutex family types outside src/common/mutex.h
                   — use the annotated wrappers so Clang's thread-safety
                   analysis sees the lock. Additionally each wrapper
                   Mutex/SharedMutex variable must have at least one
                   GUARDED_BY/PT_GUARDED_BY/REQUIRES/ACQUIRED_* partner
                   annotation naming it in the same file: a lock that
                   guards nothing the analysis can check is a lock the
                   analysis cannot help with.

Usage:
  check_invariants.py [PATH...]          lint files / trees (default: src)
  check_invariants.py --list-rules      print rule names and exit
  check_invariants.py --rule NAME PATH  run one rule only (fixture tests)

Exits 0 when clean, 1 on findings, 2 on usage errors. Findings print as
`path:line: [rule] message`, one per line, stable order.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

RULES = ("nvi-override", "fp-accumulation", "nondeterminism", "naked-mutex")

# Paths (relative, '/'-separated) exempt per rule. Every scan kernel,
# generic and fixed-dim alike, lives in src/kernel/.
KERNEL_DIRS = ("src/kernel/",)
MUTEX_HEADER = "src/common/mutex.h"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines
    and column positions so reported line numbers match the source."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        two = text[i:i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c == '"' or c == "'":
            # R"(...)" raw strings: find the matching delimiter.
            if c == '"' and i > 0 and text[i - 1] == "R":
                m = re.match(r'R"([^(\s]*)\(', text[i - 1:])
                if m:
                    closer = ")" + m.group(1) + '"'
                    j = text.find(closer, i)
                    j = n if j == -1 else j + len(closer)
                    out.append("".join("\n" if ch == "\n" else " "
                                       for ch in text[i:j]))
                    i = j
                    continue
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# nvi-override


def class_bodies(text, base_pattern):
    """Yields (class_name, body_text, body_start_offset) for every class
    whose base-clause matches base_pattern."""
    for m in re.finditer(
            r"\b(?:class|struct)\s+(\w+)\s*(?:final\s*)?:\s*([^{;]*)\{",
            text):
        if not re.search(base_pattern, m.group(2)):
            continue
        # Brace-match the class body.
        depth = 1
        i = m.end()
        while i < len(text) and depth:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        yield m.group(1), text[m.end():i - 1], m.end()


# A method *declaration* of NAME inside a class body: a type-ish token
# sequence directly before `NAME(`, at a statement boundary. Invocations
# (`return Answer(q)`, `system.Answer(q)`, `= Answer(`) don't match.
def method_decl_re(name):
    return re.compile(
        r"(?:^|[;{}]|public:|protected:|private:)\s*"
        r"(?:virtual\s+)?(?:[\w:]+(?:<[^;{}]*?>)?[\s&*]+)"
        rf"{name}\s*\(", re.S)


def check_nvi(path, rel, text):
    findings = []
    for name, body, start in class_bodies(text, r"\bAqpSystem\b"):
        if not re.search(r"\bAnswerImpl\s*\(", body):
            findings.append(Finding(
                path, line_of(text, start), "nvi-override",
                f"{name} derives from AqpSystem but does not override "
                "AnswerImpl; implement the protected hook, not the "
                "public entry"))
        for entry in ("Answer", "AnswerMulti", "StartSession"):
            m = method_decl_re(entry).search(body)
            if m:
                findings.append(Finding(
                    path, line_of(text, start + m.start()), "nvi-override",
                    f"{name} redeclares the NVI entry {entry}(); override "
                    f"{entry}Impl instead (the non-virtual entry owns the "
                    "degenerate-predicate and cache interposition logic)"))
    return findings


# --------------------------------------------------------------------------
# fp-accumulation


STD_REDUCERS = re.compile(
    r"\bstd\s*::\s*(accumulate|reduce|transform_reduce)\b")
OMP_PRAGMA = re.compile(r"#\s*pragma\s+omp\b")
DOUBLE_PTR_DECL = re.compile(
    r"\b(?:const\s+)?(?:double|float)\s*\*\s*(?:const\s+)?"
    r"(?:__restrict__\s+)?(\w+)\s*[=;,)]")


def check_fp(path, rel, text):
    if rel.startswith(KERNEL_DIRS):
        return []
    findings = []
    for m in STD_REDUCERS.finditer(text):
        findings.append(Finding(
            path, line_of(text, m.start()), "fp-accumulation",
            f"std::{m.group(1)} outside src/kernel/ — row-data "
            "reduction must go through the deterministic kernel reducers"))
    for m in OMP_PRAGMA.finditer(text):
        findings.append(Finding(
            path, line_of(text, m.start()), "fp-accumulation",
            "#pragma omp outside src/kernel/ — parallel "
            "reduction order must stay deterministic; use the kernel "
            "reducers"))
    # Loops that accumulate subscripted raw double-pointer data: the
    # signature of ad-hoc row reduction. Merges of named vectors/struct
    # fields don't involve a raw double* and stay legal.
    ptr_names = set(DOUBLE_PTR_DECL.findall(text))
    if ptr_names:
        alts = "|".join(re.escape(p) for p in sorted(ptr_names))
        accum = re.compile(
            rf"[\w\].]+\s*\+=\s*[^;]*\b(?:{alts})\s*\[")
        for m in accum.finditer(text):
            findings.append(Finding(
                path, line_of(text, m.start()), "fp-accumulation",
                "accumulation over subscripted raw double-pointer data "
                "outside src/kernel/ — use the deterministic "
                "reducers"))
    return findings


# --------------------------------------------------------------------------
# nondeterminism


NONDET = [
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w.>])(?:std\s*::\s*)?"
                r"time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
]


def check_nondet(path, rel, text):
    findings = []
    for pattern, what in NONDET:
        for m in pattern.finditer(text):
            findings.append(Finding(
                path, line_of(text, m.start()), "nondeterminism",
                f"{what} in src/ — all randomness must derive from an "
                "explicit uint64 seed so answers replay bit-identically"))
    return findings


# --------------------------------------------------------------------------
# naked-mutex


STD_MUTEX = re.compile(
    r"\bstd\s*::\s*(recursive_mutex|recursive_timed_mutex|timed_mutex|"
    r"shared_timed_mutex|shared_mutex|mutex)\b")
WRAPPER_DECL = re.compile(
    r"(?:^|[;{}]\s*|\n)\s*(?:mutable\s+|static\s+)*"
    r"(?:pass\s*::\s*)?(?:Shared)?Mutex\s+(\w+)\s*(?:;|\{|ACQUIRED_)")


def check_mutex(path, rel, text):
    if rel.replace(os.sep, "/").endswith(MUTEX_HEADER[len("src/"):]) and \
            rel.replace(os.sep, "/").endswith("common/mutex.h"):
        return []
    findings = []
    for m in STD_MUTEX.finditer(text):
        findings.append(Finding(
            path, line_of(text, m.start()), "naked-mutex",
            f"std::{m.group(1)} — use the annotated wrappers in "
            "common/mutex.h (Mutex/SharedMutex) so the thread-safety "
            "analysis sees the capability"))
    for m in WRAPPER_DECL.finditer(text):
        name = m.group(1)
        partner = re.search(
            r"\b(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|"
            r"ACQUIRE|ACQUIRE_SHARED|RELEASE|EXCLUDES|ACQUIRED_AFTER|"
            r"ACQUIRED_BEFORE)\s*\(\s*(?:\*?\s*)?" + re.escape(name)
            + r"\s*[,)]", text)
        if not partner:
            findings.append(Finding(
                path, line_of(text, m.start(1)), "naked-mutex",
                f"mutex '{name}' has no GUARDED_BY/REQUIRES partner "
                "annotation in this file — annotate what it guards or "
                "the analysis cannot check it"))
    return findings


# --------------------------------------------------------------------------


CHECKS = {
    "nvi-override": check_nvi,
    "fp-accumulation": check_fp,
    "nondeterminism": check_nondet,
    "naked-mutex": check_mutex,
}


def lint_file(path, rules):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as err:
        print(f"check_invariants: cannot read {path}: {err}",
              file=sys.stderr)
        return []
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    rel = rel.replace(os.sep, "/")
    text = strip_comments_and_strings(raw)
    findings = []
    for rule in rules:
        findings.extend(CHECKS[rule](path, rel, text))
    return findings


def collect_files(paths):
    exts = (".h", ".cc", ".cpp", ".hpp")
    out = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, files in sorted(os.walk(p)):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(exts):
                        out.append(os.path.join(root, name))
        elif os.path.isfile(p):
            out.append(p)
        else:
            print(f"check_invariants: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def main(argv):
    parser = argparse.ArgumentParser(
        description="PASS project-invariant linter")
    parser.add_argument("paths", nargs="*",
                        default=[os.path.join(REPO_ROOT, "src")])
    parser.add_argument("--rule", action="append", choices=RULES,
                        help="run only these rules (default: all)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    rules = args.rule or list(RULES)
    findings = []
    for path in collect_files(args.paths):
        findings.extend(lint_file(path, rules))
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_invariants: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
