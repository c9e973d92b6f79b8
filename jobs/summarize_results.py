"""Assemble markdown tables from bench_results.jsonl (written by
``jobs/tables.py``) in the layout of the paper's Table 2, Table 3 and
Fig. 10, and of its τ study (Sec. 6.3).

Usage: python jobs/summarize_results.py [path/to/bench_results.jsonl]
"""
import json
import sys

import numpy as np


def load(path):
    cells = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            cells[(r["table"], r["graph"], r["algo"])] = r  # last run wins
    return cells


def ok(r):
    return r is not None and r["status"] == "ok"


def fmt(r):
    if ok(r):
        return f"{r['wall_s']:.2f}"
    return "-" if r is None else "t" if r["status"] == "t" else "WRONG"


def wall(r):
    """``r``'s seconds if it is an ok row, else None."""
    return r["wall_s"] if ok(r) else None


def ratio(num, den, digits):
    """``num / den`` as ``<x>x``, or ``n/a`` when either side is missing."""
    return f"{num / den:.{digits}f}x" if num is not None and den is not None else "n/a"


def rounds(r):
    return r["rounds"] if ok(r) else "-"


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
        ref = next(filter(ok, rows), first)
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


def fig10(cells):
    """Per-search rounds without VGC (``gbbs``, τ = 1) and with it
    (``ours``), from Table 2's rows.  ``gbbs`` runs the same searches in
    the same rounds as ``plain``: its two-pass frontiers and exact table
    sizing change visits and rehash cost, not frontiers."""
    print("| graph | searches | rounds(tau=1) | rounds(VGC) | avg y/x | max y/x |")
    print("|---|---|---|---|---|---|")
    for g, _, (gbbs, ours) in graph_rows(cells, "table2", ["gbbs", "ours"]):
        # Same seed => same batches => searches align 1:1.
        ys, xs = (r.get("search_rounds", []) if ok(r) else [] for r in (gbbs, ours))
        k = min(len(xs), len(ys))
        if k == 0:
            print(f"| {g} | - | - | - | - | - |")
            continue
        ys, xs = (np.maximum(np.asarray(a[:k], float), 1) for a in (ys, xs))
        ratio = ys / xs
        print(f"| {g} | {k} | {int(ys.sum())} | {int(xs.sum())} | {ratio.mean():.1f} | {ratio.max():.1f} |")


def tau(cells):
    """Each τ's modeled 96-core and measured seconds, per graph."""
    taus = list(dict.fromkeys(a for t, _, a in cells if t == "tau"))
    print("| graph | " + " | ".join(f"{a[:3]}={a[3:]}" for a in taus) + " |")
    print("|---|" + "---|" * len(taus))
    for g, _, rows in graph_rows(cells, "tau", taus):
        body = " | ".join(f"{r['sim96_s']:.4f} / {r['wall_s']:.2f}" if ok(r) else fmt(r) for r in rows)
        print(f"| {g} | {body} |")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    cells = load(argv[0] if argv else "bench_results.jsonl")
    print("## Table 2 (SCC)\n")
    table2(cells)
    print("\n## Table 3 connectivity\n")
    table3(cells, "table3cc", ["ours", "dhs21", "seq"])
    print("\n## Table 3 LE-lists\n")
    table3(cells, "table3le", ["ours", "parlay", "seq"])
    print("\n## Fig. 10: rounds per search (from Table 2)\n")
    fig10(cells)
    print("\n## τ study: modeled 96-core seconds / measured seconds\n")
    tau(cells)


if __name__ == "__main__":
    main()
