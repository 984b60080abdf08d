#!/usr/bin/env python3
"""Fail when a lib/ export has no user outside its own module.

    python3 scripts/export_gate.py [ROOT]

Lists every `val` in lib/**/*.mli (vals of a nested `module M : sig`
count as `Outer.M.name`) and counts its uses outside the module's own
.ml/.mli, across lib/, bin/, bench/, examples/, perfbench/_harness/ and
test/, with comments and string literals stripped. A use is a qualified
`Module.name`, also through module aliases (`module E = Pbse_smt.Expr`)
and opens, or an unqualified `name` in a file that opens the module
(`open`, `let open ... in`, `Module.( ... )`).

An export passes when lib/, bin/, bench/ or examples/ uses it. One used
only by test/ or perfbench/_harness/, or by nothing, fails unless
scripts/export_allowlist.txt lists it with a reason. An allowlist entry
fails too when its export no longer exists, or when lib/, bin/, bench/
or examples/ has come to use it. Qualified record labels (`r.M.f`,
`{ M.f = ... }`) are not uses. Exit status: 0 pass, 1 fail.
"""

import os
import re
import sys

SCAN_DIRS = ["lib", "bin", "bench", "examples", "perfbench/_harness", "test"]
PROGRAM_DIRS = ("lib/", "bin/", "bench/", "examples/")
ALLOWLIST = "scripts/export_allowlist.txt"

IDENT = r"[a-z_][A-Za-z0-9_']*"
PATH = r"[A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*"


def strip(src):
    """Blank out comments, string and char literals, keeping newlines."""
    out, i, n, depth = [], 0, len(src), 0

    def skip_string(i):
        i += 1
        while i < n and src[i] != '"':
            i += 2 if src[i] == "\\" else 1
        return i + 1

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            j = skip_string(i)
            out.append("" if depth else '""')
            out.append("\n" * src.count("\n", i, j))
            i = j
        elif m := re.compile(r"\{([a-z_]*)\|").match(src, i):
            end = src.find("|" + m.group(1) + "}", m.end())
            j = n if end < 0 else end + len(m.group(1)) + 2
            out.append("\n" * src.count("\n", i, j))
            i = j
        elif m := re.compile(r"'(?:\\[^']*|[^\\'\n])'").match(src, i):
            i = m.end()
        elif depth:
            if c == "\n":
                out.append(c)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def exports(root):
    """Yield (module path, val name, .mli path) for every lib/ export."""
    for dirpath, _, files in sorted(os.walk(os.path.join(root, "lib"))):
        for f in sorted(files):
            if not f.endswith(".mli"):
                continue
            path = os.path.join(dirpath, f)
            top = f[:-4].capitalize()
            stack = [top]
            for line in strip(open(path).read()).splitlines():
                if m := re.match(r"\s*module\s+([A-Z]\w*)\s*:\s*sig\b", line):
                    stack.append(stack[-1] + "." + m.group(1))
                elif re.match(r"\s*end\b", line) and len(stack) > 1:
                    stack.pop()
                elif m := re.match(r"\s*val\s+(" + IDENT + r")\s*:", line):
                    yield stack[-1], m.group(1), os.path.relpath(path, root)


def sources(root):
    for d in SCAN_DIRS:
        for dirpath, _, files in sorted(os.walk(os.path.join(root, d))):
            if "_build" in dirpath:
                continue
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    path = os.path.join(dirpath, f)
                    yield os.path.relpath(path, root), strip(open(path).read())


def resolve(path, aliases):
    head, _, rest = path.partition(".")
    seen = set()
    while head in aliases and head not in seen:
        seen.add(head)
        full = aliases[head]
        head, _, more = full.partition(".")
        rest = more + ("." + rest if rest and more else rest)
    return head + ("." + rest if rest else "")


class File:
    """One source file's aliases, opens and qualified/bare uses."""

    def __init__(self, rel, text):
        self.rel = rel
        self.aliases = {
            m.group(1): m.group(2)
            for m in re.finditer(
                r"\bmodule\s+([A-Z]\w*)\s*=\s*(" + PATH + r")\b(?!\s*\()", text
            )
        }
        self.opens = {
            resolve(m.group(1) or m.group(2), self.aliases)
            for m in re.finditer(
                r"\bopen!?\s+(" + PATH + r")|\b(" + PATH + r")\.\(", text
            )
        }
        self.qualified = [
            (resolve(m.group(1), self.aliases), m.group(2))
            for m in re.finditer(r"\b(" + PATH + r")\.(" + IDENT + r")", text)
            if not is_label(text, m.start(), m.end())
        ]
        self.bare = set(re.findall(r"(?<![.~?'\w])(" + IDENT + r")\b", text))

    def names(self, path):
        """Candidate full paths for a module path written in this file."""
        return [path] + [o + "." + path for o in self.opens]

    def opens_module(self, modpath):
        return any(ends_with(o, modpath) for o in self.opens)


def is_label(text, start, end):
    """A qualified record label (`r.M.f`, `{ M.f = ...; M.g }`), not a value."""
    if start > 0 and text[start - 1] == ".":
        return True
    before = text[max(0, start - 64) : start].rstrip()
    after = text[end : end + 64].lstrip()
    return (before.endswith(("{", ";")) or re.search(r"\bwith$", before) is not None) and (
        after[:1] in (";", "}", ":") or (after[:1] == "=" and after[:2] != "==")
    )


def ends_with(path, modpath):
    return path == modpath or path.endswith("." + modpath)


def own(rel, mli):
    stem = os.path.splitext(mli)[0]
    return os.path.splitext(rel)[0] == stem


def users(files, modpath, name, mli):
    found = set()
    for f in files:
        if own(f.rel, mli):
            continue
        if any(
            n == name and any(ends_with(c, modpath) for c in f.names(p))
            for p, n in f.qualified
        ) or (name in f.bare and f.opens_module(modpath)):
            found.add(f.rel)
    return found


def kind(user_files):
    if any(u.startswith(PROGRAM_DIRS) for u in user_files):
        return "used"
    if any(u.startswith("perfbench/") for u in user_files):
        return "harness-only"
    if user_files:
        return "test-only"
    return "unused"


def read_allowlist(root):
    entries = {}
    path = os.path.join(root, ALLOWLIST)
    if not os.path.exists(path):
        return entries
    for n, line in enumerate(open(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, reason = line.partition(":")
        if not reason.strip():
            sys.exit(f"{ALLOWLIST}:{n}: entry {key.strip()!r} has no reason")
        entries[key.strip()] = reason.strip()
    return entries


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = [File(rel, text) for rel, text in sources(root)]
    allow = read_allowlist(root)
    vals = list(exports(root))
    seen, failures = set(), []
    for modpath, name, mli in vals:
        key = modpath + "." + name
        seen.add(key)
        status = kind(users(files, modpath, name, mli))
        if status == "used":
            if key in allow:
                failures.append(f"stale allowlist entry {key}: now has a non-test user")
        elif key not in allow:
            failures.append(f"{status} export {key} ({mli})")
    for key in sorted(set(allow) - seen):
        failures.append(f"stale allowlist entry {key}: no such export")
    print(f"export gate: {len(vals)} exported vals, {len(allow)} allowlisted")
    for f in failures:
        print(f)
    if failures:
        print(f"export gate: {len(failures)} failure(s); delete the export, "
              f"or list it in {ALLOWLIST} with a reason")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
