"""Assemble markdown tables from bench_results.jsonl (written by
``jobs/tables.py``) in the layout of the paper's Table 2 and Table 3.

Usage: python jobs/summarize_results.py [path/to/bench_results.jsonl]
"""
import json
import sys


def load(path):
    cells = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            cells[(r["table"], r["graph"], r["algo"])] = r  # last run wins
    return cells


def fmt(r, key="wall_s"):
    if r is None:
        return "-"
    if r["status"] == "t":
        return "t"
    if r["status"] == "wrong":
        return "WRONG"
    return f"{r[key]:.2f}"


def wall(r):
    """``r``'s seconds if it is an ok row, else None."""
    return r["wall_s"] if r is not None and r["status"] == "ok" else None


def ratio(num, den, digits):
    """``num / den`` as ``<x>x``, or ``n/a`` when either side is missing."""
    return f"{num / den:.{digits}f}x" if num is not None and den is not None else "n/a"


def rounds(r):
    return r["rounds"] if r and r["status"] == "ok" else "-"


def graph_rows(cells, tab, algos):
    """Yield (graph, first row, [row or None per algo]) for each graph of
    ``tab``, in the order the graphs first appear in the results."""
    first = {}
    for (t, g, _), r in cells.items():
        if t == tab:
            first.setdefault(g, r)
    for g, r in first.items():
        yield g, r, [cells.get((tab, g, a)) for a in algos]


def table2(cells):
    print("| graph | n | m | #SCC | SCC1 | ours(s) | ours rounds | GBBS(s) | GBBS rounds | MS(s) | iSpan(s) | SEQ(s) | best-base/ours |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    algos = ["ours", "gbbs", "multistep", "ispan", "seq"]
    for g, first, rows in graph_rows(cells, "table2", algos):
        ours, gbbs, ms, isp, seq = rows
        ref = next((r for r in rows if r and r["status"] == "ok"), first)
        best = min((w for w in map(wall, (gbbs, ms, isp)) if w is not None), default=None)
        print(
            f"| {g} | {first['n']} | {first['m']} | {ref['n_scc']} | {ref['scc1']} "
            f"| {fmt(ours)} | {rounds(ours)} | {fmt(gbbs)} | {rounds(gbbs)} "
            f"| {fmt(ms)} | {fmt(isp)} | {fmt(seq)} | {ratio(best, wall(ours), 1)} |"
        )


def table3(cells, tab, variants):
    hdr = "| graph | n | m | " + " | ".join(
        f"{v}(s) | {v} rounds" for v in variants
    ) + " | baseline/ours |"
    print(hdr)
    print("|" + "---|" * (3 + 2 * len(variants) + 1))
    for g, first, rows in graph_rows(cells, tab, variants):
        body = " | ".join(f"{fmt(r)} | {rounds(r)}" for r in rows)
        print(f"| {g} | {first['n']} | {first['m']} | {body} | {ratio(wall(rows[1]), wall(rows[0]), 2)} |")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    cells = load(argv[0] if argv else "bench_results.jsonl")
    print("## Table 2 (SCC)\n")
    table2(cells)
    print("\n## Table 3 connectivity\n")
    table3(cells, "table3cc", ["ours", "dhs21", "seq"])
    print("\n## Table 3 LE-lists\n")
    table3(cells, "table3le", ["ours", "parlay", "seq"])


if __name__ == "__main__":
    main()
