#!/usr/bin/env python3
"""Documentation lint for the otw repository.

Zero-dependency checks (stdlib only), run by CI's docs-check job:

1. Markdown link integrity. Every ``[text](target)`` in every tracked
   ``*.md`` file is resolved: relative paths must exist on disk, and
   ``#fragment`` anchors (same-file or cross-file) must match a heading in
   the target file after GitHub's slugging rules (lowercase, punctuation
   stripped, spaces to hyphens, ``-1``/``-2`` suffixes for duplicates).
   External schemes (http/https/mailto) are not fetched.

2. Name drift guards, one table (``NAME_GUARDS``): every name a source
   file lists must appear backticked in the DESIGN.md section that
   documents it, so adding one without documenting it breaks CI:

   * ``TraceKind`` enumerators (``obs/trace.hpp``) in section 5b's trace
     schema table;
   * the counter schema's entries (``obs/counters.hpp``, the
     ``OTW_OBJECT_COUNTERS``/``OTW_LP_COUNTERS`` lists) in section 9;
   * ``HealthRule`` enumerators (``obs/live.hpp``) in section 9's watchdog
     rule table;
   * latency-attribution ``Seam`` enumerators (``obs/hist.hpp``) in
     section 10's seam table;
   * ``QueueKind`` enumerators (``tw/pending_set.hpp``) in section 10b's
     pending-event-set tables;
   * MIGRATE frame fields (``kMigrateFrameFields`` in
     ``platform/wire.hpp``) in section 8b's frame layout;
   * snapshot container fields (``kSnapshotManifestFields`` in
     ``platform/wire.hpp``, the ``OTWSNAP1`` file layout) in section 8c.

3. Flight schema drift guard. Every JSON key ``src/obs/flight.cpp``
   actually emits (the ``\"key\":`` literals) must appear in DESIGN.md
   section 10's dump-schema listing, so the documented ``otw-flight-v1``
   schema cannot silently drift from the writer.

4. Control-frame tag drift guard. Every transport-reserved wire tag
   (``kTag*`` constants >= 0xFF00 in
   ``src/platform/include/otw/platform/wire.hpp``) must appear in DESIGN.md
   section 8b's tag table with both its name and its hex value, so a new
   control frame cannot ship without a documented slot in the protocol.

Usage: ``python3 tools/check_docs.py`` from the repository root (or any
subdirectory; the root is located from this file's path). Exit 0 = clean.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACE_HEADER = REPO_ROOT / "src" / "obs" / "include" / "otw" / "obs" / "trace.hpp"
LIVE_HEADER = REPO_ROOT / "src" / "obs" / "include" / "otw" / "obs" / "live.hpp"
COUNTERS_HEADER = (REPO_ROOT / "src" / "obs" / "include" / "otw" / "obs"
                   / "counters.hpp")
HIST_HEADER = REPO_ROOT / "src" / "obs" / "include" / "otw" / "obs" / "hist.hpp"
FLIGHT_SOURCE = REPO_ROOT / "src" / "obs" / "flight.cpp"
PENDING_HEADER = (REPO_ROOT / "src" / "timewarp" / "include" / "otw" / "tw"
                  / "pending_set.hpp")
WIRE_HEADER = (REPO_ROOT / "src" / "platform" / "include" / "otw" / "platform"
               / "wire.hpp")
DESIGN = REPO_ROOT / "DESIGN.md"

# Directories never scanned for markdown (build trees, VCS internals).
SKIP_DIRS = {".git", "build", "build-werror", "build-tsan", "build-asan",
             "node_modules", ".cache"}

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
FENCE_RE = re.compile(r"^(```|~~~)")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip markup, lowercase, drop punctuation,
    spaces to hyphens."""
    # Inline code and emphasis markers vanish; their contents stay.
    text = re.sub(r"[`*_]", "", heading)
    # Links render as their text.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(md_path: Path) -> set:
    """All anchor slugs a GitHub render of this file would expose."""
    slugs = {}
    out = set()
    in_fence = False
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(2))
        n = slugs.get(slug, 0)
        slugs[slug] = n + 1
        out.add(slug if n == 0 else f"{slug}-{n}")
    return out


def markdown_files():
    for path in sorted(REPO_ROOT.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.relative_to(REPO_ROOT).parts):
            continue
        yield path


def extract_links(md_path: Path):
    """(line_number, target) for every inline link outside code fences."""
    links = []
    in_fence = False
    for lineno, line in enumerate(
            md_path.read_text(encoding="utf-8").splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        # Inline code spans can hold example links; mask them out.
        masked = re.sub(r"`[^`]*`", "", line)
        for m in LINK_RE.finditer(masked):
            links.append((lineno, m.group(1)))
    return links


def check_links():
    errors = []
    slug_cache = {}
    for md in markdown_files():
        rel = md.relative_to(REPO_ROOT)
        for lineno, target in extract_links(md):
            if re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*:", target):
                continue  # http:, https:, mailto: — not fetched
            path_part, _, fragment = target.partition("#")
            if path_part:
                dest = (md.parent / path_part).resolve()
                if not dest.exists():
                    errors.append(f"{rel}:{lineno}: broken link "
                                  f"'{target}' (no such file)")
                    continue
            else:
                dest = md
            if fragment:
                if dest.suffix.lower() != ".md" or dest.is_dir():
                    continue  # anchors into non-markdown are not checkable
                if dest not in slug_cache:
                    slug_cache[dest] = heading_slugs(dest)
                if fragment.lower() not in slug_cache[dest]:
                    errors.append(f"{rel}:{lineno}: broken anchor "
                                  f"'{target}' (no heading slugs to "
                                  f"'#{fragment}')")
    return errors


def enum_members(header: Path, enum_name: str):
    """Enumerator names of one ``enum class`` in a header, in order.
    ``kCount``-style sentinels are skipped."""
    text = header.read_text(encoding="utf-8")
    m = re.search(rf"enum\s+class\s+{enum_name}[^{{]*\{{(.*?)\}};", text, re.S)
    if not m:
        sys.exit(f"error: could not find 'enum class {enum_name}' "
                 f"in {header}")
    body = re.sub(r"//[^\n]*", "", m.group(1))  # strip comments
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    members = []
    for entry in body.split(","):
        name = entry.split("=")[0].strip()
        if name and name != "kCount":
            members.append(name)
    return members


def design_section(label: str, what: str):
    """The text of DESIGN.md from a ``## <label>`` heading to the next ##."""
    lines = DESIGN.read_text(encoding="utf-8").splitlines()
    start = None
    for i, line in enumerate(lines):
        if re.match(rf"^##\s+{re.escape(label)}\b", line):
            start = i
            break
    if start is None:
        sys.exit(f"error: DESIGN.md has no '## {label}' section ({what})")
    end = len(lines)
    for i in range(start + 1, len(lines)):
        if lines[i].startswith("## "):
            end = i
            break
    return "\n".join(lines[start:end])


def control_tags():
    """(name, hex value) of every transport-reserved control tag — the
    ``kTag*`` WireTag constants >= 0xFF00 in wire.hpp."""
    text = WIRE_HEADER.read_text(encoding="utf-8")
    tags = []
    for m in re.finditer(
            r"inline\s+constexpr\s+WireTag\s+(kTag\w+)\s*=\s*(0[xX][0-9A-Fa-f]+)",
            text):
        name, value = m.group(1), m.group(2)
        if int(value, 16) >= 0xFF00:
            tags.append((name, "0x" + value[2:].upper()))
    if not tags:
        sys.exit(f"error: no reserved kTag* constants found in {WIRE_HEADER}")
    return tags


def check_control_tag_drift():
    errors = []
    section = design_section("8b", "mesh data plane")
    for name, value in control_tags():
        if not re.search(rf"`{re.escape(name)}`", section):
            errors.append(f"DESIGN.md: control tag {name} exists in "
                          f"wire.hpp but is missing from the section 8b "
                          f"tag table")
        elif not re.search(rf"`{re.escape(value)}`", section):
            errors.append(f"DESIGN.md: control tag {name} is documented "
                          f"in section 8b but without its value {value}")
    return errors


def initializer_names(header: Path, array: str):
    """The string literals of a ``const char* <array>[] = {...}`` listing."""
    text = header.read_text(encoding="utf-8")
    m = re.search(rf"{array}\[\]\s*=\s*\{{(.*?)\}};", text, re.S)
    names = re.findall(r'"([^"]+)"', m.group(1)) if m else []
    if not names:
        sys.exit(f"error: could not find a non-empty {array} in {header}")
    return names


def schema_counters():
    """Every counter of the schema's X-macro lists, in declaration order."""
    names = re.findall(r"^\s*X\((\w+)\)",
                       COUNTERS_HEADER.read_text(encoding="utf-8"), re.M)
    if not names:
        sys.exit(f"error: no X(name) counter entries in {COUNTERS_HEADER}")
    return names


# (what, names, DESIGN.md section, where in it): each name must appear
# backticked in that section.
NAME_GUARDS = [
    ("TraceKind", lambda: enum_members(TRACE_HEADER, "TraceKind"), "5b",
     "trace schema table"),
    ("schema counter", schema_counters, "9", "counter schema listing"),
    ("HealthRule", lambda: enum_members(LIVE_HEADER, "HealthRule"), "9",
     "watchdog rule table"),
    ("Seam", lambda: enum_members(HIST_HEADER, "Seam"), "10", "seam table"),
    ("QueueKind", lambda: enum_members(PENDING_HEADER, "QueueKind"), "10b",
     "implementation table"),
    ("MIGRATE frame field",
     lambda: initializer_names(WIRE_HEADER, "kMigrateFrameFields"), "8b",
     "frame layout"),
    ("snapshot container field",
     lambda: initializer_names(WIRE_HEADER, "kSnapshotManifestFields"), "8c",
     "container layout"),
]


def check_name_drift():
    errors = []
    for what, names, label, where in NAME_GUARDS:
        section = design_section(label, where)
        for name in names():
            if not re.search(rf"`{re.escape(name)}`", section):
                errors.append(f"DESIGN.md: {what} '{name}' is not documented "
                              f"in section {label}'s {where}")
    return errors


def flight_schema_keys():
    """JSON keys the flight-recorder writer emits, from the ``\\"key\\":``
    string literals in flight.cpp."""
    text = FLIGHT_SOURCE.read_text(encoding="utf-8")
    return sorted(set(re.findall(r'\\"([A-Za-z_][A-Za-z_0-9]*)\\":', text)))


def check_flight_schema_drift():
    errors = []
    section = design_section("10", "latency attribution plane")
    keys = flight_schema_keys()
    if not keys:
        sys.exit(f"error: no emitted JSON keys found in {FLIGHT_SOURCE}")
    for key in keys:
        if not re.search(rf"\b{re.escape(key)}\b", section):
            errors.append(f"DESIGN.md: flight.cpp emits JSON key "
                          f"'{key}' but section 10's otw-flight-v1 "
                          f"schema listing does not mention it")
    return errors


def main():
    errors = (check_links() + check_name_drift() + check_flight_schema_drift()
              + check_control_tag_drift())
    n_md = sum(1 for _ in markdown_files())
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"\ncheck_docs: FAIL ({len(errors)} error(s) across "
              f"{n_md} markdown files)", file=sys.stderr)
        return 1
    guarded = ", ".join(f"{len(names())} {what} names (section {label})"
                        for what, names, label, _ in NAME_GUARDS)
    print(f"check_docs: OK — {n_md} markdown files, links and anchors "
          f"resolve; documented: {guarded}, "
          f"{len(control_tags())} control-frame tags (section 8b), "
          f"{len(flight_schema_keys())} flight schema keys (section 10)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
