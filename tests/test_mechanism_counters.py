"""Mechanism counters pinned to recorded values.

Each entry is ``(rounds, edge_visits, pair_inserts, table_rehash_cost,
count)`` for one driver-path run, where ``count`` is the number of SCCs
(SCC), of components (CC) or the total LE-list size (LE-lists).
``rounds`` counts barriers: the forward and backward searches of one
batch or pivot share theirs.  The four counters are the paper's
mechanisms, so a refactor of the kernels or the driver merges must leave
every entry unchanged.
"""
from __future__ import annotations

from functools import cache

import pytest

from repro.baselines.ispan import ispan_scc
from repro.baselines.multistep import multistep_scc
from repro.cc.connectivity import CC_VARIANTS, ldd_uf_jtb
from repro.core import csr as csrmod
from repro.core.scc import VARIANTS, bgss_scc
from repro.graphs.suite import table2_suite, table3_suite
from repro.lelists.lelists import LE_VARIANTS, le_lists
from tests.graph_zoo import zoo, zoo_sym


def _row(c, count: int) -> tuple[int, int, int, int, int]:
    return (c.rounds, c.edge_visits, c.pair_inserts, c.table_rehash_cost, count)


@cache
def _graphs(kind: str) -> dict[str, csrmod.CSR]:
    if kind == "zoo":
        return zoo()
    if kind == "zoo_sym":
        return zoo_sym()
    suite = table2_suite(scale=0.25) if kind == "table2" else table3_suite(scale=0.25)
    return {g.name: csrmod.from_arrays(g.n, g.src, g.dst) for g in suite}


def scc_rows(c: csrmod.CSR) -> tuple:
    out = []
    for variant in VARIANTS:
        r = bgss_scc(None, csr=c, variant=variant)
        out.append(_row(r.counters, r.n_scc))
    return tuple(out)


def cc_rows(c: csrmod.CSR) -> tuple:
    out = []
    for variant in CC_VARIANTS:
        r = ldd_uf_jtb(None, csr=c, variant=variant)
        out.append(_row(r.counters, r.n_components))
    return tuple(out)


def le_rows(c: csrmod.CSR) -> tuple:
    out = []
    for variant in LE_VARIANTS:
        r = le_lists(None, csr=c, variant=variant)
        out.append(_row(r.counters, r.total_size()))
    return tuple(out)


def baseline_rows(c: csrmod.CSR) -> tuple:
    out = []
    for fn in (multistep_scc, ispan_scc):
        r = fn(None, c, serial_cutoff=0)
        out.append(_row(r.counters, r.n_scc))
    return tuple(out)


# bgss_scc, one entry per variant in VARIANTS order (gbbs, plain, vgc1, final).
SCC_ZOO = {
    "singleton": ((0, 0, 0, 0, 1), (0, 0, 0, 0, 1), (0, 0, 0, 0, 1), (0, 0, 0, 0, 1)),
    "no_edges": ((0, 0, 0, 0, 5), (0, 0, 0, 0, 5), (0, 0, 0, 0, 5), (0, 0, 0, 0, 5)),
    "self_loop": ((1, 0, 0, 0, 3), (1, 0, 0, 0, 3), (1, 0, 0, 0, 3), (1, 0, 0, 0, 3)),
    "two_cycle": ((2, 2, 0, 0, 1), (2, 2, 0, 0, 1), (2, 2, 0, 0, 1), (2, 2, 0, 0, 1)),
    "path": ((8, 29, 4, 0, 6), (8, 19, 4, 0, 6), (8, 19, 4, 0, 6), (6, 19, 4, 0, 6)),
    "cycle": ((8, 56, 0, 0, 1), (8, 56, 0, 0, 1), (8, 56, 0, 0, 1), (8, 56, 0, 0, 1)),
    "two_cliques_bridge": ((6, 118, 6, 0, 2), (6, 93, 6, 0, 2), (6, 93, 6, 0, 2), (5, 93, 6, 0, 2)),
    "dag": ((6, 29, 3, 0, 7), (6, 19, 3, 0, 7), (6, 19, 3, 0, 7), (5, 19, 3, 0, 7)),
    "star_out": ((0, 0, 0, 0, 9), (0, 0, 0, 0, 9), (0, 0, 0, 0, 9), (0, 0, 0, 0, 9)),
    "rand_sparse": ((23, 624, 8, 0, 42), (23, 555, 8, 0, 42), (18, 361, 8, 0, 42), (14, 361, 8, 0, 42)),
    "rand_dense": ((4, 264, 0, 0, 1), (4, 243, 0, 0, 1), (1, 800, 0, 0, 1), (1, 800, 0, 0, 1)),
    "rmat": ((10, 546, 0, 0, 131), (10, 462, 0, 0, 131), (6, 1095, 0, 0, 131), (6, 1095, 0, 0, 131)),
    "web": ((29, 1899, 36, 0, 165), (29, 1616, 36, 0, 165), (27, 1430, 36, 0, 165), (12, 1430, 36, 0, 165)),
    "knn": ((92, 4016, 573, 960, 33), (92, 2008, 573, 384, 33), (83, 2008, 573, 384, 33), (11, 2008, 573, 384, 33)),
    "lattice": ((37, 3502, 16, 0, 35), (37, 3349, 16, 0, 35), (18, 554, 16, 0, 35), (9, 554, 16, 0, 35)),
    "lattice_sparse": ((41, 726, 109, 0, 141), (41, 363, 109, 0, 141), (39, 363, 109, 0, 141), (10, 363, 109, 0, 141)),
}
SCC_TABLE2 = {
    "SOC-LJ'": ((5, 1625, 0, 0, 85), (5, 1599, 0, 0, 85), (4, 1099, 0, 0, 85), (4, 1099, 0, 0, 85)),
    "SOC-TW'": ((5, 1508, 0, 0, 60), (5, 1405, 0, 0, 60), (4, 1196, 0, 0, 60), (4, 1196, 0, 0, 60)),
    "WEB-SD'": ((39, 1777, 63, 0, 155), (39, 1445, 63, 0, 155), (37, 1481, 63, 0, 155), (13, 1481, 63, 0, 155)),
    "WEB-CW'": ((42, 25073, 1043, 7104, 315), (42, 12881, 1043, 5376, 315), (40, 12931, 1043, 5376, 315), (17, 13023, 1043, 5376, 315)),
    "KNN-HH5'": ((105, 11732, 991, 2880, 31), (105, 5866, 991, 0, 31), (97, 5866, 991, 0, 31), (13, 5871, 991, 0, 31)),
    "KNN-CH5'": ((80, 7430, 610, 1536, 18), (80, 3715, 610, 0, 18), (62, 3715, 610, 0, 18), (9, 3715, 610, 0, 18)),
    "KNN-GL2'": ((86, 5484, 998, 3840, 204), (86, 2742, 998, 0, 204), (82, 2742, 998, 0, 204), (14, 2742, 998, 0, 204)),
    "KNN-GL5'": ((50, 20522, 66, 0, 7), (50, 16739, 66, 0, 7), (21, 7132, 66, 0, 7), (10, 7132, 66, 0, 7)),
    "LAT-SQR'": ((97, 5425, 154, 0, 199), (97, 3059, 154, 0, 199), (45, 2406, 154, 0, 199), (14, 2406, 154, 0, 199)),
    "LAT-REC'": ((172, 6678, 1324, 5568, 259), (172, 3339, 1324, 0, 259), (161, 3339, 1324, 0, 259), (14, 3339, 1324, 0, 259)),
    "LAT-SQRp'": ((91, 3318, 593, 3840, 539), (91, 1659, 593, 0, 539), (86, 1659, 593, 0, 539), (13, 1659, 593, 0, 539)),
    "LAT-RECp'": ((71, 2796, 447, 1920, 550), (71, 1398, 447, 0, 550), (69, 1398, 447, 0, 550), (13, 1398, 447, 0, 550)),
}
# ldd_uf_jtb, CC_VARIANTS order (dhs21, ours).
CC_ZOO_SYM = {
    "singleton": ((1, 0, 0, 0, 1), (1, 0, 0, 0, 1)),
    "no_edges": ((4, 0, 0, 0, 5), (4, 0, 0, 0, 5)),
    "self_loop": ((3, 4, 0, 0, 2), (2, 2, 0, 0, 2)),
    "two_cycle": ((2, 4, 0, 0, 1), (1, 2, 0, 0, 1)),
    "path": ((4, 20, 0, 0, 1), (1, 10, 0, 0, 1)),
    "cycle": ((4, 32, 0, 0, 1), (1, 16, 0, 0, 1)),
    "two_cliques_bridge": ((3, 52, 0, 0, 1), (1, 26, 0, 0, 1)),
    "dag": ((3, 28, 0, 0, 1), (1, 14, 0, 0, 1)),
    "star_out": ((3, 32, 0, 0, 1), (1, 16, 0, 0, 1)),
    "rand_sparse": ((8, 308, 0, 0, 5), (5, 154, 0, 0, 5)),
    "rand_dense": ((3, 1264, 0, 0, 1), (2, 645, 0, 0, 1)),
    "rmat": ((18, 3012, 0, 0, 60), (16, 1580, 0, 0, 60)),
    "web": ((11, 2592, 0, 0, 5), (6, 1302, 0, 0, 5)),
    "knn": ((14, 1528, 0, 0, 4), (4, 764, 0, 0, 4)),
    "lattice": ((9, 1152, 0, 0, 1), (2, 576, 0, 0, 1)),
    "lattice_sparse": ((14, 676, 0, 0, 5), (4, 338, 0, 0, 5)),
}
CC_TABLE3 = {
    "SOC-LJ'-sym": ((18, 5196, 0, 0, 42), (15, 2650, 0, 0, 42)),
    "WEB-SD'-sym": ((7, 3460, 0, 0, 2), (3, 1730, 0, 0, 2)),
    "KNN-HH5'-sym": ((16, 6560, 0, 0, 8), (8, 3288, 0, 0, 8)),
    "KNN-GL5'-sym": ((12, 6348, 0, 0, 1), (4, 3177, 0, 0, 1)),
    "LAT-SQR'-sym": ((12, 4608, 0, 0, 1), (3, 2304, 0, 0, 1)),
    "LAT-SQRp'-sym": ((26, 2712, 0, 0, 24), (17, 1357, 0, 0, 24)),
    "ROAD-GE'": ((17, 7172, 0, 0, 1), (3, 3592, 0, 0, 1)),
    "ROAD-USA'": ((22, 14400, 0, 0, 1), (4, 7218, 0, 0, 1)),
}
# le_lists, LE_VARIANTS order (parlay, ours).
LE_ZOO_SYM = {
    "singleton": ((1, 0, 0, 0, 1), (1, 0, 0, 0, 1)),
    "no_edges": ((3, 0, 0, 0, 5), (3, 0, 0, 0, 5)),
    "self_loop": ((3, 6, 1, 0, 4), (3, 3, 1, 0, 4)),
    "two_cycle": ((3, 6, 1, 0, 3), (3, 3, 1, 0, 3)),
    "path": ((9, 44, 8, 0, 14), (9, 22, 8, 0, 14)),
    "cycle": ((13, 112, 20, 0, 22), (13, 56, 20, 0, 22)),
    "two_cliques_bridge": ((8, 116, 10, 0, 18), (8, 58, 10, 0, 18)),
    "dag": ((7, 56, 8, 0, 15), (7, 28, 8, 0, 15)),
    "star_out": ((7, 76, 15, 0, 24), (7, 38, 15, 0, 24)),
    "rand_sparse": ((29, 1074, 152, 192, 187), (29, 537, 152, 192, 187)),
    "rand_dense": ((10, 3352, 68, 0, 100), (10, 1676, 68, 0, 100)),
    "rmat": ((29, 11540, 650, 2688, 733), (29, 5770, 650, 2688, 733)),
    "web": ((39, 12608, 1064, 2304, 1034), (39, 6304, 1064, 2304, 1034)),
    "knn": ((81, 6894, 710, 384, 745), (81, 3447, 710, 384, 745)),
    "lattice": ((46, 6376, 653, 576, 652), (46, 3188, 653, 576, 652)),
    "lattice_sparse": ((68, 3826, 650, 576, 625), (68, 1913, 650, 576, 625)),
}
# (multistep_scc, ispan_scc), serial_cutoff=0 so every piece runs on the engine.
BASELINES_ZOO = {
    "singleton": ((0, 0, 0, 0, 1), (0, 0, 0, 0, 1)),
    "no_edges": ((0, 0, 0, 0, 5), (0, 0, 0, 0, 5)),
    "self_loop": ((1, 6, 0, 0, 3), (1, 6, 0, 0, 3)),
    "two_cycle": ((2, 6, 0, 0, 1), (2, 6, 0, 0, 1)),
    "path": ((0, 10, 0, 0, 6), (0, 10, 0, 0, 6)),
    "cycle": ((8, 72, 0, 0, 1), (8, 72, 0, 0, 1)),
    "two_cliques_bridge": ((7, 102, 0, 0, 2), (5, 65, 0, 0, 2)),
    "dag": ((0, 12, 0, 0, 7), (0, 12, 0, 0, 7)),
    "star_out": ((0, 9, 0, 0, 9), (0, 9, 0, 0, 9)),
    "rand_sparse": ((36, 727, 0, 0, 42), (31, 662, 0, 0, 42)),
    "rand_dense": ((4, 301, 0, 0, 1), (4, 301, 0, 0, 1)),
    "rmat": ((5, 2169, 0, 0, 131), (5, 2169, 0, 0, 131)),
    "web": ((4, 2727, 0, 0, 165), (4, 2727, 0, 0, 165)),
    "knn": ((62, 5106, 0, 0, 33), (170, 2460, 0, 0, 33)),
    "lattice": ((33, 3173, 0, 0, 35), (34, 3141, 0, 0, 35)),
    "lattice_sparse": ((4, 511, 0, 0, 141), (4, 511, 0, 0, 141)),
}

CASES = [
    (scc_rows, "zoo", SCC_ZOO),
    (scc_rows, "table2", SCC_TABLE2),
    (cc_rows, "zoo_sym", CC_ZOO_SYM),
    (cc_rows, "table3", CC_TABLE3),
    (le_rows, "zoo_sym", LE_ZOO_SYM),
    (baseline_rows, "zoo", BASELINES_ZOO),
]


@pytest.mark.parametrize(
    "rows, kind, name, want",
    [
        pytest.param(rows, kind, name, want, id=f"{rows.__name__}-{kind}-{name}")
        for rows, kind, table in CASES
        for name, want in table.items()
    ],
)
def test_counters_pinned(rows, kind, name, want):
    assert rows(_graphs(kind)[name]) == want
