"""Assemble markdown tables from bench_results.jsonl (written by the
benchmark harness) in the layout of the paper's Table 2 and Table 3.

Usage: python jobs/summarize_results.py [path/to/bench_results.jsonl]
"""
import json
import sys
from collections import defaultdict


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


def table2(cells):
    order = ["SOC-LJ'", "SOC-TW'", "WEB-SD'", "WEB-CW'", "KNN-HH5'", "KNN-CH5'",
             "KNN-GL2'", "KNN-GL5'", "LAT-SQR'", "LAT-REC'", "LAT-SQRp'", "LAT-RECp'"]
    graphs = [g for g in order if ("table2", g, "ours") in cells]
    print("| graph | n | m | #SCC | SCC1 | ours(s) | ours rounds | GBBS(s) | GBBS rounds | MS(s) | iSpan(s) | SEQ(s) | best-base/ours |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    for g in graphs:
        get = lambda a: cells.get(("table2", g, a))
        ours, gbbs, ms, isp, seq = (get(a) for a in ["ours", "gbbs", "multistep", "ispan", "seq"])
        base = [r["wall_s"] for r in (gbbs, ms, isp) if r and r["status"] == "ok"]
        ratio = (min(base) / ours["wall_s"]) if base and ours and ours["status"] == "ok" else float("nan")
        print(
            f"| {g} | {ours['n']} | {ours['m']} | {ours['n_scc']} | {ours['scc1']} "
            f"| {fmt(ours)} | {ours['rounds'] if ours['status']=='ok' else '-'} "
            f"| {fmt(gbbs)} | {gbbs['rounds'] if gbbs and gbbs['status']=='ok' else '-'} "
            f"| {fmt(ms)} | {fmt(isp)} | {fmt(seq)} | {ratio:.1f}x |"
        )


def table3(cells, tab, variants):
    graphs = []
    seen = set()
    for (t, g, a) in cells:
        if t == tab and g not in seen:
            seen.add(g)
            graphs.append(g)
    hdr = "| graph | n | m | " + " | ".join(
        f"{v}(s) | {v} rounds" for v in variants
    ) + " | baseline/ours |"
    print(hdr)
    print("|" + "---|" * (3 + 2 * len(variants) + 1))
    for g in graphs:
        get = lambda a: cells.get((tab, g, a))
        rows = [get(v) for v in variants]
        ours, base = rows[0], rows[1]
        ratio = (
            base["wall_s"] / ours["wall_s"]
            if ours and base and ours["status"] == "ok" and base["status"] == "ok"
            else float("nan")
        )
        body = " | ".join(
            f"{fmt(r)} | {r['rounds'] if r and r['status']=='ok' else '-'}" for r in rows
        )
        print(f"| {g} | {rows[0]['n']} | {rows[0]['m']} | {body} | {ratio:.2f}x |")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "bench_results.jsonl"
    cells = load(path)
    print("## Table 2 (SCC)\n")
    table2(cells)
    print("\n## Table 3 connectivity\n")
    table3(cells, "table3cc", ["ours", "dhs21", "seq"])
    print("\n## Table 3 LE-lists\n")
    table3(cells, "table3le", ["ours", "parlay", "seq"])


if __name__ == "__main__":
    main()
