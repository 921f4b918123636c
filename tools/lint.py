#!/usr/bin/env python3
"""Cross-checks the DESIGN.md name inventories against the sources.

Each row of INVENTORIES pairs a set of names collected from the sources
with the DESIGN.md table that documents them. The contract is two-way: an
undocumented live name and a documented-but-dead one are both errors. A
row may also require a naming convention, and name families that must
stay live (the two-way check cannot catch a family deleted from both code
and table at once). The `loc` row checks the section 7.6 scoreboard:
BENCH_loc.json's `change` block must hold the tree's line counts. Stage 3
of tools/check_static.sh and the tier-1 ctest `lint`; runs standalone.

Exit code 0 when every row is clean; 1 with one line per violation
otherwise.
"""

import dataclasses
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DOTTED = r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$"


@dataclasses.dataclass
class Inventory:
    row: str                # printed row name
    what: str               # what one name is, in messages
    verb: str               # what the sources do with a name
    table: str              # the DESIGN.md table, in messages
    anchor: str             # the bold paragraph opener above the table
    cell: str               # first-column regex; group 1 is a name
    calls: tuple = ()       # call-site regexes over `roots`; group 1 is a name
    roots: tuple = ("src",)
    excluded: tuple = ()    # framework files; their comments quote examples
    array: tuple = None     # or (file, array regex, literal regex)
    convention: tuple = None  # (description, regex) every name must match
    discard: tuple = ()     # convention-header placeholders in the table
    families: tuple = ()    # prefixes some source name must carry


INVENTORIES = [
    Inventory(  # DESIGN.md §11
        "fault points", "point", "used", "fault-point table", "Point naming",
        r"`([a-z][a-z0-9_.]*)`",
        # LsmBTree::WriteCurrent forwards its point name to MaybeFail.
        calls=(r'MaybeFail(?:Write)?\(\s*"([^"]+)"',
               r'WriteCurrent\(\s*"([^"]+)"'),
        excluded=("src/common/fault_injection.h",
                  "src/common/fault_injection.cc"),
        convention=("layer.object.op", DOTTED),
        discard=("layer.component.event",)),
    Inventory(  # DESIGN.md §10
        "metrics", "metric", "registered", "metric table", "Metric naming",
        r"`(pregelix[a-z0-9_.]*)`",
        calls=(r'Get(?:Counter|Gauge)\(\s*"([^"]+)"',),
        roots=("src", "bench"),
        excluded=("src/common/metrics_registry.h",
                  "src/common/metrics_registry.cc"),
        convention=("pregelix.<layer>.<name>",
                    r"^pregelix(\.[a-z][a-z0-9_]*){2,}$"),
        discard=("pregelix.layer.name",),
        families=("pregelix.optimizer.", "pregelix.verifier.")),
    Inventory(  # DESIGN.md §15
        "endpoints", "endpoint", "served", "endpoint table", "Endpoint table",
        r"`(/[^`]*)`",
        array=("src/server/server.cc", r"kEndpoints\[\]\s*=\s*\{(.*?)\};",
               r'"(/[^"]*)"')),
    Inventory(  # DESIGN.md §15
        "journal categories", "category", "appended",
        "journal-category table", "Journal categories",
        r"`([a-z][a-z0-9_.]*)`",
        calls=(r'EventJournal::Global\(\)\.Append\(\s*"([^"]+)"',),
        excluded=("src/common/event_journal.h",
                  "src/common/event_journal.cc"),
        convention=("layer.event", DOTTED)),
    Inventory(  # DESIGN.md §18
        "verifier rules", "rule", "added", "rule table", "Rule table",
        r"`([a-z][a-z0-9-]*)`",
        calls=(r'\bAdd\(\s*"([^"]+)"',),
        roots=("src/dataflow",),
        convention=("word-word", r"^[a-z][a-z0-9]*(-[a-z][a-z0-9]*)+$")),
    Inventory(  # DESIGN.md §20
        "ledger categories", "time category", "declared", "category table",
        "Category table", r"`([a-z][a-z0-9_]*)`",
        array=("src/common/time_ledger.h",
               r"kTimeCategoryNames\[[^\]]*\]\s*=\s*\{(.*?)\};",
               r'"([a-z][a-z0-9_]*)"')),
]


def collect(inv):
    """Source names -> usage sites; None when the array is missing."""
    if inv.array:
        path, array, literal = inv.array
        match = re.search(array, (REPO / path).read_text(), re.S)
        if match is None:
            return None
        return {name: [path] for name in re.findall(literal, match.group(1))}
    names = {}
    for root in inv.roots:
        for path in sorted((REPO / root).rglob("*")):
            rel = str(path.relative_to(REPO))
            if path.suffix not in (".h", ".cc") or rel in inv.excluded:
                continue
            text = path.read_text()
            for call in inv.calls:
                for match in re.finditer(call, text):
                    line = text.count("\n", 0, match.start()) + 1
                    names.setdefault(match.group(1), []).append(f"{rel}:{line}")
    return names


def documented(inv, design):
    """First-column names of the table after the anchor; None if absent."""
    match = re.search(r"^\*\*" + re.escape(inv.anchor) + r"\*\*.*?(\n\|.*?)\n\n",
                      design, re.S | re.M)
    if match is None:
        return None
    names = set()
    for line in match.group(1).splitlines():
        if line.startswith("|") and not set(line) <= {"|", "-", " "}:
            names.update(re.findall(inv.cell, line.split("|")[1]))
    return names - set(inv.discard)


def check(inv, src, doc):
    errors = []
    if inv.convention:
        described, regex = inv.convention
        errors += [f"{inv.what} '{name}' violates the {described} convention "
                   f"({inv.verb} at {sites[0]})"
                   for name, sites in sorted(src.items())
                   if not re.match(regex, name)]
    errors += [f"{inv.what} '{name}' ({inv.verb} at {sites[0]}) is missing "
               f"from the DESIGN.md {inv.table}"
               for name, sites in sorted(src.items()) if name not in doc]
    errors += [f"{inv.what} '{name}' is documented in DESIGN.md but never "
               f"{inv.verb} in the sources" for name in sorted(doc - set(src))]
    roots = " or ".join(root + "/" for root in inv.roots)
    errors += [f"required {inv.what} family '{family}*' has no registration "
               f"in {roots}" for family in inv.families
               if not any(name.startswith(family) for name in src)]
    return errors


# The section 7.6 scoreboard (bench/bench_sec76_software_simplicity.cc):
# the Pregel core and the reused infrastructure it builds on.
LOC_CORE = "src/pregel"
LOC_REUSED = ("src/dataflow", "src/storage", "src/buffer", "src/io",
              "src/dfs", "src/common")


def count_loc(module):
    """Non-blank, non-`//` lines of the module's .h/.cc files, counted as
    bench_sec76_software_simplicity counts them."""
    lines = 0
    for path in (REPO / module).rglob("*"):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        for line in path.read_text().split("\n"):
            code = line.lstrip(" \t")
            if code and not code.startswith("//"):
                lines += 1
    return lines


def check_loc():
    """(core, reused infra, errors): BENCH_loc.json's `change` block
    against the tree's counts."""
    change = json.loads((REPO / "BENCH_loc.json").read_text())["change"]
    modules = {m: count_loc(m) for m in (LOC_CORE,) + LOC_REUSED}
    tree = {"core_loc": modules[LOC_CORE],
            "reused_infra_loc": sum(modules[m] for m in LOC_REUSED)}
    errors = [f"BENCH_loc.json change.{key} is {change.get(key)}, the tree "
              f"counts {n}" for key, n in tree.items() if change.get(key) != n]
    errors += [f"BENCH_loc.json change.modules[\"{m}\"] is "
               f"{change['modules'].get(m)}, the tree counts {n}"
               for m, n in modules.items() if change["modules"].get(m) != n]
    return tree["core_loc"], tree["reused_infra_loc"], errors


def report(row, errors, agreed):
    """Prints one row's verdict; 1 when it failed."""
    if not errors:
        print(f"lint: {row}: OK ({agreed})")
        return 0
    for error in errors:
        sys.stderr.write(f"lint: {row}: {error}\n")
    sys.stderr.write(f"lint: {row}: FAILED ({len(errors)} error(s))\n")
    return 1


def main():
    design = (REPO / "DESIGN.md").read_text()
    failed = 0
    for inv in INVENTORIES:
        src, doc = collect(inv), documented(inv, design)
        if src is None:
            errors = [f"cannot find the names array in {inv.array[0]}"]
        elif doc is None:
            errors = [f"cannot find the table in DESIGN.md (expected after "
                      f"the '**{inv.anchor}**' paragraph)"]
        else:
            errors = check(inv, src, doc)
        failed += report(inv.row, errors, f"{len(src or ())} names, sources "
                         f"and DESIGN.md agree")
    core, reused, errors = check_loc()
    failed += report("loc", errors, f"core {core}, reused infra {reused}; "
                     f"BENCH_loc.json agrees")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
