#!/usr/bin/env python3
"""Check that every public src/ header is reached and that test oracles
stay out of the product.

Fails (exit 1) when:

  * a public header (src/<module>/include/sesame/<module>/<name>.hpp) is
    included by no file under src/, examples/, bench/ or perfbench/ other
    than its own src/<module>/<name>.cpp: nothing but tests would reach
    it, so it is either dead or belongs in tests/support;
  * a CMakeLists.txt outside tests/ names a library that
    tests/support/CMakeLists.txt defines, or a file under src/, examples/,
    bench/ or perfbench/ includes one of its sesame/testing/ headers.

Usage:
  check_src_reach.py [REPO_ROOT]

REPO_ROOT defaults to the parent of this script's directory. Prints one
line per problem and a summary.
"""

import pathlib
import re
import sys

PRODUCT_DIRS = ("src", "examples", "bench", "perfbench")
SOURCE_SUFFIXES = {".cpp", ".cc", ".hpp", ".h"}
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
ADD_LIBRARY = re.compile(r"add_library\(\s*([A-Za-z0-9_:]+)")


def product_sources(root):
    for top in PRODUCT_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def public_headers(root):
    """Returns {include spelling: own .cpp path} for every public header."""
    headers = {}
    for header in sorted((root / "src").glob("*/include/sesame/*/*.hpp")):
        module_dir = header.parents[3]
        spelling = header.relative_to(module_dir / "include").as_posix()
        headers[spelling] = module_dir / (header.stem + ".cpp")
    return headers


def unreached_headers(root):
    headers = public_headers(root)
    reached = set()
    for path in product_sources(root):
        for spelling in INCLUDE.findall(path.read_text(errors="replace")):
            own_cpp = headers.get(spelling)
            if own_cpp is not None and path != own_cpp:
                reached.add(spelling)
    return sorted(set(headers) - reached)


def oracle_leaks(root):
    support = root / "tests" / "support" / "CMakeLists.txt"
    names = set()
    if support.is_file():
        names.update(ADD_LIBRARY.findall(support.read_text()))
    problems = []
    if names:
        pattern = re.compile(
            r"(?<![A-Za-z0-9_:])(" + "|".join(map(re.escape, sorted(names)))
            + r")(?![A-Za-z0-9_])")
        cmakes = [root / "CMakeLists.txt"] + [
            p for top in PRODUCT_DIRS
            for p in sorted((root / top).rglob("CMakeLists.txt"))]
        for cmake in cmakes:
            if not cmake.is_file():
                continue
            rel = cmake.relative_to(root)
            for lineno, line in enumerate(cmake.read_text().splitlines(), 1):
                match = pattern.search(line.split("#", 1)[0])
                if match:
                    problems.append(f"{rel}:{lineno}: non-test target links "
                                    f"test library {match.group(1)}")
    for path in product_sources(root):
        for spelling in INCLUDE.findall(path.read_text(errors="replace")):
            if spelling.startswith("sesame/testing/"):
                problems.append(f"{path.relative_to(root)}: includes test "
                                f"oracle header {spelling}")
    return problems


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    root = root.resolve()
    if not (root / "src").is_dir():
        print(f"check_src_reach: no src/ under {root}", file=sys.stderr)
        return 2
    problems = [f"src header {h} is included only by its own .cpp or by "
                "tests" for h in unreached_headers(root)]
    problems += oracle_leaks(root)
    for p in problems:
        print("FAIL " + p)
    headers = len(public_headers(root))
    print(f"check_src_reach: {headers} public headers, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
