#!/usr/bin/env python3
"""Repo-specific determinism lint for the PARDON reproduction.

The codebase promises two contracts that ordinary compilers and test suites
cannot enforce:

  1. Bitwise determinism: the same config + seed produces bit-identical
     models, accuracies, and checkpoints across thread counts and GEMM
     backends (docs/TESTING.md, docs/CHECKPOINTING.md).
  2. Bounds-checked decoding: every byte that crosses a trust boundary
     (socket frames, update payloads, checkpoint files) is parsed through a
     reader that length-checks before every access (fl/wire.hpp).

This lint fails the build on source patterns that silently break either
contract. Rules (ids are what the allowlist references):

  rng-source         std::rand / srand / std::random_device / std::mt19937 /
                     minstd_rand / default_random_engine anywhere. The only
                     sanctioned generator is tensor::Pcg32 (seeded, forkable,
                     byte-stable across platforms).
  wall-clock-seed    std::time( / time(NULL) / system_clock::now in src/.
                     Wall clocks feeding anything but display/timestamp
                     fields break run-to-run reproducibility.
  unordered-iter     std::unordered_map / std::unordered_set in
                     determinism-critical directories (aggregation,
                     serialization, metrics export). Hash-order iteration is
                     not stable across libstdc++ versions or pointer layouts;
                     use std::map / sorted vectors, or allowlist a
                     lookup-only use with a reason.
  fp-accumulation    Parallel-order floating-point accumulation: parallel
                     STL execution policies, OpenMP reductions, and
                     std::atomic<float|double> accumulators. FP addition is
                     not associative; accumulation order must be fixed by
                     the schedule, never by thread interleaving.
  fp-contract        Kernel TUs listed in KERNEL_TUS must be compiled with
                     -ffp-contract=off in their CMakeLists so FMA contraction
                     cannot round GEMM backends apart.
  raw-memcpy-deser   memcpy in wire/checkpoint decode directories outside the
                     bounds-checked readers. New decode sites must go through
                     fl::wire::Get* (or be allowlisted with the bounds check
                     named in the reason).
  value-changing-math
                     Compiler flags that let the optimiser change
                     floating-point values (-ffast-math, -Ofast,
                     -funsafe-math-optimizations, -fassociative-math,
                     -freciprocal-math, -ffinite-math-only,
                     -fno-signed-zeros) in any CMakeLists.txt or *.cmake.
                     -fno-math-errno is allowed: it drops only errno
                     writes, and sqrt and / stay correctly rounded.

Allowlist: tools/lint_determinism_allowlist.txt. Each line is

    <rule-id> <repo-relative-path> [<substring>]  # <reason>

The reason is mandatory: an allowlist entry is a determinism design decision
and must say why the site is safe. With a substring only matching lines are
exempt; without it the whole file is exempt for that rule.

Exit status: 0 clean, 1 findings, 2 usage/config error.

Self-test: --self-test plants each violation class from
tests/lint_fixtures/ into a scratch tree and asserts the scanner reports
exactly the expected rule (and that the allowlist path suppresses it).
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import tempfile

# Directories scanned for source rules, relative to the repo root.
SCAN_DIRS = ("src", "tests", "bench", "tools", "examples", "fuzz")
SOURCE_EXTENSIONS = (".cpp", ".cc", ".hpp", ".h")
# Fixture sources deliberately contain violations; never scan them for real.
EXCLUDED_PREFIXES = ("tests/lint_fixtures/",)

# Directories whose containers feed aggregation, serialization, or export —
# the paths where iteration order reaches bytes or model parameters.
DETERMINISM_CRITICAL_DIRS = (
    "src/fl",
    "src/net",
    "src/obs",
    "src/metrics",
    "src/core",
    "src/baselines",
    "src/clustering",
    "src/tensor",
)

# Decode surfaces where raw memcpy is suspect (rule raw-memcpy-deser).
DECODE_DIRS = ("src/fl", "src/net")

# TUs that must carry -ffp-contract=off (rule fp-contract), mapped to the
# CMakeLists that owns the property line. simd_kernels.cpp is the AVX2/FMA TU:
# there the flag guarantees the ONLY fused multiply-adds are the explicit
# _mm256_fmadd_* intrinsics, so the addition chain is fixed by the kernel.
KERNEL_TUS = {
    "src/tensor/gemm.cpp": "src/tensor/CMakeLists.txt",
    "src/tensor/simd_kernels.cpp": "src/tensor/CMakeLists.txt",
}

# Flags that license value-changing floating-point rewrites (rule
# value-changing-math). -fno-math-errno is deliberately absent: it only drops
# errno writes, so IEEE sqrt and / results are unchanged.
VALUE_CHANGING_MATH = re.compile(
    r"(?<![\w-])(-ffast-math|-Ofast|-funsafe-math-optimizations"
    r"|-fassociative-math|-freciprocal-math|-ffinite-math-only"
    r"|-fno-signed-zeros)(?![\w-])"
)
# Top-level build trees (build/, build-asan/, ...) hold generated CMake files,
# not sources; hidden directories (.git, .bench_build) are skipped too.
BUILD_DIR_PREFIX = "build"

ALLOWLIST_PATH = "tools/lint_determinism_allowlist.txt"

LINE_RULES = [
    (
        "rng-source",
        re.compile(
            r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bmt19937\b"
            r"|\bminstd_rand\b|\bdefault_random_engine\b"
        ),
        None,  # scanned everywhere
    ),
    (
        "wall-clock-seed",
        re.compile(
            r"\bstd::time\s*\(|\btime\s*\(\s*NULL\s*\)"
            r"|\bsystem_clock::now\b"
        ),
        ("src",),
    ),
    (
        "unordered-iter",
        re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b"),
        DETERMINISM_CRITICAL_DIRS,
    ),
    (
        "fp-accumulation",
        re.compile(
            r"\bstd::execution::par\b|\bstd::execution::par_unseq\b"
            r"|#\s*pragma\s+omp\s.*\breduction\b"
            r"|\bstd::atomic\s*<\s*(?:float|double)\s*>"
        ),
        DETERMINISM_CRITICAL_DIRS,
    ),
    (
        "raw-memcpy-deser",
        re.compile(r"\bmemcpy\s*\("),
        DECODE_DIRS,
    ),
]


class Finding:
    def __init__(self, rule: str, path: str, line_no: int, line: str):
        self.rule = rule
        self.path = path
        self.line_no = line_no
        self.line = line

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.line.strip()}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literal contents, preserving line
    structure so reported line numbers stay exact."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; bail to code to stay line-exact
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append(c)
            elif c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


class AllowEntry:
    def __init__(self, rule: str, path: str, substring: str | None,
                 reason: str, line_no: int):
        self.rule = rule
        self.path = path
        self.substring = substring
        self.reason = reason
        self.line_no = line_no
        self.used = False

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule or self.path != finding.path:
            return False
        if self.substring is not None and self.substring not in finding.line:
            return False
        return True


def parse_allowlist(path: str) -> list[AllowEntry]:
    entries: list[AllowEntry] = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for line_no, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "#" not in line:
                raise SystemExit(
                    f"{path}:{line_no}: allowlist entry has no '# reason' — "
                    "every exemption must say why the site is safe"
                )
            body, reason = line.split("#", 1)
            reason = reason.strip()
            if not reason:
                raise SystemExit(
                    f"{path}:{line_no}: empty reason after '#'"
                )
            parts = body.split(None, 2)
            if len(parts) < 2:
                raise SystemExit(
                    f"{path}:{line_no}: expected '<rule> <path> [substring]'"
                )
            rule = parts[0]
            known = {r for r, _, _ in LINE_RULES} | {
                "fp-contract", "value-changing-math"}
            if rule not in known:
                raise SystemExit(
                    f"{path}:{line_no}: unknown rule '{rule}' "
                    f"(known: {', '.join(sorted(known))})"
                )
            entries.append(
                AllowEntry(rule, parts[1],
                           parts[2].strip() if len(parts) > 2 else None,
                           reason, line_no)
            )
    return entries


def iter_source_files(root: str):
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTENSIONS):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                if any(rel.startswith(p) for p in EXCLUDED_PREFIXES):
                    continue
                yield full, rel


def scan_file(full: str, rel: str) -> list[Finding]:
    with open(full, encoding="utf-8", errors="replace") as f:
        text = f.read()
    code = strip_comments_and_strings(text)
    raw_lines = text.splitlines()
    findings = []
    for line_no, line in enumerate(code.splitlines(), 1):
        for rule, pattern, dirs in LINE_RULES:
            if dirs is not None and not any(
                rel.startswith(d + "/") or rel == d for d in dirs
            ):
                continue
            if pattern.search(line):
                original = (
                    raw_lines[line_no - 1] if line_no <= len(raw_lines) else line
                )
                findings.append(Finding(rule, rel, line_no, original))
    return findings


def check_fp_contract(root: str) -> list[Finding]:
    """Every kernel TU must have -ffp-contract=off applied in its
    CMakeLists via set_source_files_properties."""
    findings = []
    for tu, cmake_rel in KERNEL_TUS.items():
        if not os.path.exists(os.path.join(root, tu)):
            continue  # TU was moved/removed; nothing to enforce
        cmake_path = os.path.join(root, cmake_rel)
        tu_name = os.path.basename(tu)
        ok = False
        if os.path.exists(cmake_path):
            text = open(cmake_path, encoding="utf-8").read()
            # One set_source_files_properties(...) call naming the TU and the
            # flag (whitespace/line breaks between them are fine).
            for match in re.finditer(
                r"set_source_files_properties\s*\(([^)]*)\)", text
            ):
                body = match.group(1)
                if tu_name in body and "-ffp-contract=off" in body:
                    ok = True
                    break
        if not ok:
            findings.append(
                Finding(
                    "fp-contract",
                    cmake_rel,
                    1,
                    f"kernel TU {tu} is not compiled with -ffp-contract=off "
                    "(FMA contraction would round GEMM backends apart)",
                )
            )
    return findings


def check_value_changing_math(root: str) -> list[Finding]:
    """No CMakeLists.txt or *.cmake may pass a value-changing math flag."""
    findings = []
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
        at_root = rel_dir == "."
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".")
            and not (at_root and d.startswith(BUILD_DIR_PREFIX))
            and not (d if at_root else f"{rel_dir}/{d}/").startswith(
                EXCLUDED_PREFIXES)
        )
        for name in sorted(filenames):
            if name != "CMakeLists.txt" and not name.endswith(".cmake"):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, encoding="utf-8", errors="replace") as f:
                for line_no, line in enumerate(f, 1):
                    code = line.split("#", 1)[0]  # CMake comments
                    if VALUE_CHANGING_MATH.search(code):
                        findings.append(
                            Finding("value-changing-math", rel, line_no, line))
    return findings


def run_scan(root: str, allowlist_path: str | None = None,
             quiet: bool = False) -> int:
    if allowlist_path is None:
        allowlist_path = os.path.join(root, ALLOWLIST_PATH)
    entries = parse_allowlist(allowlist_path)

    findings: list[Finding] = []
    for full, rel in iter_source_files(root):
        findings.extend(scan_file(full, rel))
    findings.extend(check_fp_contract(root))
    findings.extend(check_value_changing_math(root))

    reported = []
    for finding in findings:
        suppressed = False
        for entry in entries:
            if entry.matches(finding):
                entry.used = True
                suppressed = True
                break
        if not suppressed:
            reported.append(finding)

    status = 0
    for finding in sorted(reported, key=lambda f: (f.path, f.line_no, f.rule)):
        print(finding)
        status = 1

    for entry in entries:
        if not entry.used:
            print(
                f"{allowlist_path}:{entry.line_no}: stale allowlist entry "
                f"({entry.rule} {entry.path}): no finding matches — delete it"
            )
            status = 1

    if status == 0 and not quiet:
        print(f"lint_determinism: clean ({sum(1 for _ in iter_source_files(root))} files scanned)")
    return status


# ---------------------------------------------------------------- self-test --

# fixture file (under tests/lint_fixtures/) -> rule it must trigger.
FIXTURE_EXPECTATIONS = {
    "violation_rng_source.cpp": "rng-source",
    "violation_wall_clock_seed.cpp": "wall-clock-seed",
    "violation_unordered_iter.cpp": "unordered-iter",
    "violation_fp_accumulation.cpp": "fp-accumulation",
    "violation_raw_memcpy_deser.cpp": "raw-memcpy-deser",
}
CLEAN_FIXTURE = "clean.cpp"


def plant(tree: str, rel: str, content_path: str) -> None:
    dest = os.path.join(tree, rel)
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    shutil.copyfile(content_path, dest)


def scan_findings(tree: str) -> list[Finding]:
    entries = parse_allowlist(os.path.join(tree, ALLOWLIST_PATH))
    found: list[Finding] = []
    for full, rel in iter_source_files(tree):
        found.extend(scan_file(full, rel))
    found.extend(check_fp_contract(tree))
    found.extend(check_value_changing_math(tree))
    return [f for f in found if not any(e.matches(f) for e in entries)]


def run_self_test(root: str) -> int:
    fixtures = os.path.join(root, "tests", "lint_fixtures")
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print(f"  {'ok' if ok else 'FAIL'}  {name}" + (f" — {detail}" if detail and not ok else ""))
        if not ok:
            failures.append(name)

    # Each violation fixture, planted in a determinism-critical path, must
    # trigger exactly its rule.
    for fixture, rule in sorted(FIXTURE_EXPECTATIONS.items()):
        src = os.path.join(fixtures, fixture)
        with tempfile.TemporaryDirectory() as tree:
            plant(tree, "src/fl/planted.cpp", src)
            found = scan_findings(tree)
            rules = {f.rule for f in found}
            check(
                f"detects {rule} ({fixture})",
                rule in rules,
                f"found rules: {sorted(rules) or 'none'}",
            )

    # The clean fixture must produce no findings.
    with tempfile.TemporaryDirectory() as tree:
        plant(tree, "src/fl/planted.cpp", os.path.join(fixtures, CLEAN_FIXTURE))
        found = scan_findings(tree)
        check("clean fixture is clean", not found,
              "; ".join(str(f) for f in found))

    # rng-source outside a determinism-critical dir still fires (it is a
    # global rule) ...
    with tempfile.TemporaryDirectory() as tree:
        plant(tree, "tools/planted.cpp",
              os.path.join(fixtures, "violation_rng_source.cpp"))
        found = scan_findings(tree)
        check("rng-source fires outside critical dirs",
              {"rng-source"} == {f.rule for f in found},
              f"{[str(f) for f in found]}")

    # ... but unordered-iter does not (path-scoped rule).
    with tempfile.TemporaryDirectory() as tree:
        plant(tree, "tools/planted.cpp",
              os.path.join(fixtures, "violation_unordered_iter.cpp"))
        found = scan_findings(tree)
        check("unordered-iter is path-scoped", not found,
              "; ".join(str(f) for f in found))

    # Commented-out banned patterns must not fire.
    with tempfile.TemporaryDirectory() as tree:
        commented = os.path.join(tree, "src/fl/planted.cpp")
        os.makedirs(os.path.dirname(commented), exist_ok=True)
        with open(commented, "w", encoding="utf-8") as f:
            f.write("// std::mt19937 would break determinism, so we do not\n"
                    "// use it; std::rand() neither. memcpy( in a comment.\n"
                    "int x = 0;\n")
        found = scan_findings(tree)
        check("comments do not fire", not found,
              "; ".join(str(f) for f in found))

    # The allowlist path: a violation plus a matching entry (with reason)
    # scans clean; the same entry is reported as stale once the violation is
    # gone; an entry without a reason is a hard error.
    with tempfile.TemporaryDirectory() as tree:
        plant(tree, "src/fl/planted.cpp",
              os.path.join(fixtures, "violation_unordered_iter.cpp"))
        os.makedirs(os.path.join(tree, "tools"), exist_ok=True)
        with open(os.path.join(tree, ALLOWLIST_PATH), "w",
                  encoding="utf-8") as f:
            f.write("unordered-iter src/fl/planted.cpp  "
                    "# fixture: lookup-only index, never iterated\n")
        found = scan_findings(tree)
        check("allowlist suppresses finding", not found,
              "; ".join(str(f) for f in found))

    with tempfile.TemporaryDirectory() as tree:
        os.makedirs(os.path.join(tree, "tools"), exist_ok=True)
        with open(os.path.join(tree, ALLOWLIST_PATH), "w",
                  encoding="utf-8") as f:
            f.write("unordered-iter src/fl/absent.cpp  # nothing here\n")
        status = run_scan(tree, quiet=True)
        check("stale allowlist entry fails the scan", status == 1)

    with tempfile.TemporaryDirectory() as tree:
        os.makedirs(os.path.join(tree, "tools"), exist_ok=True)
        with open(os.path.join(tree, ALLOWLIST_PATH), "w",
                  encoding="utf-8") as f:
            f.write("unordered-iter src/fl/planted.cpp\n")
        try:
            run_scan(tree, quiet=True)
            check("reason-less allowlist entry is rejected", False,
                  "no error raised")
        except SystemExit:
            check("reason-less allowlist entry is rejected", True)

    # fp-contract: a kernel TU present without the CMake property fails; with
    # it, passes.
    with tempfile.TemporaryDirectory() as tree:
        os.makedirs(os.path.join(tree, "src/tensor"), exist_ok=True)
        open(os.path.join(tree, "src/tensor/gemm.cpp"), "w").write("int k;\n")
        open(os.path.join(tree, "src/tensor/CMakeLists.txt"), "w").write(
            "add_library(pardon_tensor gemm.cpp)\n")
        found = scan_findings(tree)
        check("fp-contract fires on missing flag",
              {"fp-contract"} == {f.rule for f in found},
              f"{[str(f) for f in found]}")

    with tempfile.TemporaryDirectory() as tree:
        os.makedirs(os.path.join(tree, "src/tensor"), exist_ok=True)
        open(os.path.join(tree, "src/tensor/gemm.cpp"), "w").write("int k;\n")
        open(os.path.join(tree, "src/tensor/CMakeLists.txt"), "w").write(
            "add_library(pardon_tensor gemm.cpp)\n"
            'set_source_files_properties(gemm.cpp PROPERTIES '
            'COMPILE_OPTIONS "-ffp-contract=off")\n')
        found = scan_findings(tree)
        check("fp-contract passes with flag", not found,
              "; ".join(str(f) for f in found))

    # fp-contract on the SIMD TU: gemm.cpp covered but simd_kernels.cpp
    # missing the flag (e.g. someone adds -mavx2 but drops -ffp-contract=off)
    # must fail; covered together, it passes.
    with tempfile.TemporaryDirectory() as tree:
        os.makedirs(os.path.join(tree, "src/tensor"), exist_ok=True)
        open(os.path.join(tree, "src/tensor/gemm.cpp"), "w").write("int k;\n")
        open(os.path.join(tree, "src/tensor/simd_kernels.cpp"), "w").write(
            "int s;\n")
        open(os.path.join(tree, "src/tensor/CMakeLists.txt"), "w").write(
            "add_library(pardon_tensor gemm.cpp simd_kernels.cpp)\n"
            'set_source_files_properties(gemm.cpp PROPERTIES '
            'COMPILE_OPTIONS "-ffp-contract=off")\n'
            'set_source_files_properties(simd_kernels.cpp PROPERTIES '
            'COMPILE_OPTIONS "-mavx2;-mfma")\n')
        found = scan_findings(tree)
        check("fp-contract fires on SIMD TU without flag",
              {"fp-contract"} == {f.rule for f in found},
              f"{[str(f) for f in found]}")

    with tempfile.TemporaryDirectory() as tree:
        os.makedirs(os.path.join(tree, "src/tensor"), exist_ok=True)
        open(os.path.join(tree, "src/tensor/gemm.cpp"), "w").write("int k;\n")
        open(os.path.join(tree, "src/tensor/simd_kernels.cpp"), "w").write(
            "int s;\n")
        open(os.path.join(tree, "src/tensor/CMakeLists.txt"), "w").write(
            "add_library(pardon_tensor gemm.cpp simd_kernels.cpp)\n"
            'set_source_files_properties(gemm.cpp PROPERTIES '
            'COMPILE_OPTIONS "-ffp-contract=off")\n'
            'set_source_files_properties(simd_kernels.cpp PROPERTIES '
            'COMPILE_OPTIONS "-ffp-contract=off;-mavx2;-mfma")\n')
        found = scan_findings(tree)
        check("fp-contract passes with flag on SIMD TU", not found,
              "; ".join(str(f) for f in found))

    # value-changing-math: each banned flag fails in a CMakeLists.txt and in
    # a *.cmake file; -fno-math-errno and a banned flag named only in a
    # comment pass.
    def plant_cmake(tree: str, rel: str, line: str) -> None:
        dest = os.path.join(tree, rel)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        with open(dest, "w", encoding="utf-8") as f:
            f.write("add_library(pardon_nn optimizer.cpp)\n" + line + "\n")

    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                 "-fassociative-math", "-freciprocal-math",
                 "-ffinite-math-only", "-fno-signed-zeros"):
        for rel in ("src/nn/CMakeLists.txt", "cmake/flags.cmake"):
            with tempfile.TemporaryDirectory() as tree:
                plant_cmake(tree, rel,
                            "set_source_files_properties(optimizer.cpp "
                            f'PROPERTIES COMPILE_OPTIONS "-O2;{flag}")')
                found = scan_findings(tree)
                check(f"value-changing-math fires on {flag} in {rel}",
                      {"value-changing-math"} == {f.rule for f in found},
                      f"{[str(f) for f in found]}")

    with tempfile.TemporaryDirectory() as tree:
        plant_cmake(tree, "src/nn/CMakeLists.txt",
                    "set_source_files_properties(optimizer.cpp "
                    'PROPERTIES COMPILE_OPTIONS "-fno-math-errno")')
        found = scan_findings(tree)
        check("value-changing-math allows -fno-math-errno", not found,
              "; ".join(str(f) for f in found))

    with tempfile.TemporaryDirectory() as tree:
        plant_cmake(tree, "src/nn/CMakeLists.txt",
                    "# Never -ffast-math or -Ofast: they change values.")
        found = scan_findings(tree)
        check("value-changing-math ignores CMake comments", not found,
              "; ".join(str(f) for f in found))

    print(f"self-test: {'PASS' if not failures else 'FAIL'} "
          f"({len(failures)} failures)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repo root to scan (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each violation class is detected")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test(args.root)
    return run_scan(args.root)


if __name__ == "__main__":
    sys.exit(main())
