"""Compare two result files written by perfbench/run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses, with exit status 2, to compare results of different workloads,
trace modes or rational backends.  Otherwise prints each metric before
and after with their ratio and, for untraced runs, whether the outputs
of the first round were byte-identical (same digest).  Exit status 1
means the digests differ or either run had failed items.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (json.load(open(path)) for path in argv)
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            print("refusing to compare: %s %r vs %r" % (key, before[key], after[key]), file=sys.stderr)
            return 2
    backends = before["environment"]["backend"], after["environment"]["backend"]
    if backends[0] != backends[1]:
        print("refusing to compare across rational backends: %s vs %s" % backends, file=sys.stderr)
        return 2
    print("%s, trace %d, backend %s" % (before["workload"], before["trace"], backends[0]))
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            continue
        ratio = "%.3f" % (new["value"] / old["value"]) if old["value"] else "-"
        print("  %-46s %14.6g -> %-14.6g %-6s x%s" % (name, old["value"], new["value"], old["unit"], ratio))
    same = before.get("digest") == after.get("digest")
    if "digest" in before:
        print("  outputs %s (seeds %d and %d)" % (
            "byte-identical" if same else "DIFFER", before["seed"], after["seed"]))
    print("  failed items: %d -> %d" % (before["failed"], after["failed"]))
    return 0 if same and not before["failed"] and not after["failed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
