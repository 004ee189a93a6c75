#!/usr/bin/env python3
"""Object-level lint enforcing BitFlow's per-ISA linkage rule.

check_isa_hygiene.py keeps intrinsics and -m flags inside the per-ISA
translation units, but it reads sources.  The same rule can still break at
link time: a shared template or inline function that one per-ISA TU emits
with external (weak) linkage is one symbol to the linker, so it keeps one
TU's copy for every caller.  If that copy came from the AVX-512 TU, the u64
path runs zmm code and faults on a CPU without AVX-512, and no test on an
AVX-512 host notices.  The kernel and SIMD implementation headers therefore
give their bodies internal linkage, and each per-ISA kernel TU exports one
thing: its KernelTable.

This lint reads `nm -C --defined-only` of the built per-ISA objects (the
PER_ISA_TUS list of check_isa_hygiene.py) and fails on:

  1. any weak or global symbol in namespace bitflow::kernels::impl or
     bitflow::simd::inl (the implementation headers' namespaces);
  2. a pressedconv_<isa> object that exports anything in bitflow::kernels
     besides its one table, bitflow::kernels::kernel_table_<isa>, or that
     does not export the table.

DW.ref.__gxx_personality_v0 (a weak reference GCC emits in every TU that
can unwind) is ignored.  Objects whose source is not a per-ISA TU are
skipped, and every per-ISA TU must be among the objects given.

    check_isa_linkage.py OBJECT...     check built objects (ctest passes the
                                       $<TARGET_OBJECTS:...> of the per-ISA
                                       libraries)
    check_isa_linkage.py --self-test   check the canned nm output under
                                       tools/lint_fixtures/linkage/

Exit status: 0 when clean, 1 with one "object: message" per violation.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from check_isa_hygiene import PER_ISA_TUS  # noqa: E402

IMPL_NAMESPACES = ("bitflow::kernels::impl::", "bitflow::simd::inl::")
KERNELS_NAMESPACE = "bitflow::kernels::"
IGNORED = {"DW.ref.__gxx_personality_v0"}
KERNEL_TU = re.compile(r"^src/kernels/pressedconv_(\w+)\.cpp$")
# <build dir>/<source dir>/CMakeFiles/<target>.dir/<file>.o (Makefile and
# Ninja generators alike).
OBJECT_PATH = re.compile(r"^(?P<dir>.*)/CMakeFiles/[^/]+\.dir/(?P<file>.+)\.o$")


def is_exported(kind: str) -> bool:
    """Global (upper-case nm type) or weak/unique (w, v, u) symbols."""
    return kind.isupper() or kind in "wvu"


def scope_starts(name: str) -> list[str]:
    """The qualified names a demangled symbol is declared under: every
    depth-0 token start (the start of the string or after a space, outside
    template arguments and parameter lists).  A function template's
    demangled name begins with its return type, so the declaring scope may
    be the second token."""
    flat = name.replace("(anonymous namespace)", "{anonymous}")
    starts, depth = [], 0
    for i, ch in enumerate(flat):
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth = max(0, depth - 1)
        elif depth == 0 and (i == 0 or flat[i - 1] == " ") and ch != " ":
            starts.append(flat[i:])
    return starts


def in_namespace(name: str, prefix: str) -> bool:
    return any(s.startswith(prefix) for s in scope_starts(name))


def parse_nm(text: str) -> list[tuple[str, str]]:
    """(type, demangled name) per defined symbol of `nm -C --defined-only`."""
    symbols = []
    for line in text.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            symbols.append((parts[1], parts[2]))
    return symbols


def check_symbols(label: str, source: str, nm_text: str) -> list[str]:
    """Violations of the linkage rule in one per-ISA object."""
    errors = []
    kernel_tu = KERNEL_TU.match(source)
    exported_kernels = []
    for kind, name in parse_nm(nm_text):
        if name in IGNORED or not is_exported(kind):
            continue
        if any(in_namespace(name, ns) for ns in IMPL_NAMESPACES):
            errors.append(f"{label}: exports implementation symbol ({kind}) {name} — give it "
                          "internal linkage (unnamed namespace), or the linker may hand one "
                          "TU's copy to another ISA's callers")
        elif kernel_tu and in_namespace(name, KERNELS_NAMESPACE):
            exported_kernels.append((kind, name))
    if kernel_tu:
        table = f"{KERNELS_NAMESPACE}kernel_table_{kernel_tu.group(1)}"
        extra = [(k, n) for k, n in exported_kernels if n != table]
        for kind, name in extra:
            errors.append(f"{label}: exports ({kind}) {name} besides its KernelTable {table}")
        if len(exported_kernels) == len(extra):
            errors.append(f"{label}: does not export its KernelTable {table}")
    return errors


def source_of(obj: str) -> str | None:
    """The per-ISA TU an object was built from, or None for any other."""
    m = OBJECT_PATH.match(pathlib.Path(obj).resolve().as_posix())
    if not m:
        return None
    built = f"{m.group('dir')}/{m.group('file')}"
    for tu in PER_ISA_TUS:
        if built.endswith("/" + tu):
            return tu
    return None


def check_objects(objects: list[str], nm: str) -> tuple[list[str], int]:
    errors, seen = [], set()
    for obj in objects:
        source = source_of(obj)
        if source is None:
            continue
        seen.add(source)
        nm_run = subprocess.run([nm, "-C", "--defined-only", obj], capture_output=True,
                                text=True)
        if nm_run.returncode != 0:
            errors.append(f"{obj}: {nm} failed: {nm_run.stderr.strip()}")
            continue
        errors += check_symbols(obj, source, nm_run.stdout)
    for missing in sorted(PER_ISA_TUS - seen):
        errors.append(f"{missing}: per-ISA TU has no object among the arguments")
    return errors, len(seen)


def self_test(fixtures: pathlib.Path) -> int:
    """Each fixture is canned nm output headed by `# source: <per-ISA TU>`;
    bad fixtures add one `# expect: <substring>` line per violation."""
    failures, n_files, n_caught = [], 0, 0
    for path in sorted(fixtures.glob("*/*.nm")):
        n_files += 1
        text = path.read_text()
        source = re.search(r"^# source: (.+)$", text, re.M)
        expects = re.findall(r"^# expect: (.+)$", text, re.M)
        body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
        errors = check_symbols(path.name, source.group(1) if source else "", body)
        if path.parent.name == "good" and errors:
            failures.append(f"{path.name}: good fixture flagged:\n    " + "\n    ".join(errors))
        if path.parent.name == "bad":
            if not expects:
                failures.append(f"{path.name}: bad fixture has no '# expect:' line")
            for want in expects:
                if not any(want in e for e in errors):
                    failures.append(f"{path.name}: expected a violation containing '{want}', "
                                    f"got: {errors or '(nothing)'}")
            if len(errors) != len(expects):
                failures.append(f"{path.name}: expected {len(expects)} violation(s), got "
                                f"{len(errors)}: {errors}")
            n_caught += len(errors)
    if not list(fixtures.glob("good/*.nm")) or not list(fixtures.glob("bad/*.nm")):
        failures.append(f"{fixtures}: needs both good/ and bad/ fixtures")
    if failures:
        print(f"ISA linkage self-test: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"ISA linkage self-test: OK ({n_files} fixtures, {n_caught} seeded violations caught)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("objects", nargs="*", help="built object files")
    parser.add_argument("--nm", default="nm", help="nm executable (default: nm)")
    parser.add_argument("--self-test", action="store_true",
                        help="run against tools/lint_fixtures/linkage/ instead of objects")
    args = parser.parse_args()

    if args.self_test:
        return self_test(pathlib.Path(__file__).resolve().parent / "lint_fixtures" / "linkage")
    errors, n_checked = check_objects(args.objects, args.nm)
    if errors:
        print(f"ISA linkage: {len(errors)} violation(s) in {n_checked} per-ISA objects:",
              file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"ISA linkage: OK ({n_checked} per-ISA objects)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
