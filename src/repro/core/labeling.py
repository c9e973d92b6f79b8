"""BGSS per-batch labeling (Alg. 1 lines 8-13, paper Sec. 4.4).

After a batch's forward/backward multi-reachability searches produce pair
sets L_out (s reaches v) and L_in (v reaches s):

- a vertex with some source in *both* sets is strongly connected to that
  source: it is **finished** and labeled with the largest such source id
  (all members of the SCC share that max, so the label is consistent);
- any other vertex touched by the searches gets a new **signature** label
  hashing (old label, sorted R_in, sorted R_out), so vertices with
  different reachability information — which cannot share an SCC — end up
  with different labels, and later searches skip the cross edges between
  them.

:func:`label_batch` is the one implementation: pandas, driver-side, used
by the SCC engine.  A signature is a blake2b hash forced negative, so it
can never collide with a finished label, which is a vertex id >= 0.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd


def _sig_hash(old_label: int, r_in: tuple, r_out: tuple) -> int:
    h = hashlib.blake2b(repr((int(old_label), r_in, r_out)).encode(), digest_size=8)
    return -(int.from_bytes(h.digest(), "big") >> 1) - 1  # always negative


def label_batch(
    pairs_in: tuple[np.ndarray, np.ndarray],
    pairs_out: tuple[np.ndarray, np.ndarray],
    labels: np.ndarray,
    finished: np.ndarray,
) -> int:
    """Apply one batch's labeling in place; returns #newly finished."""
    div = pd.DataFrame({"v": pairs_in[0], "s": pairs_in[1]})
    dov = pd.DataFrame({"v": pairs_out[0], "s": pairs_out[1]})
    both = div.merge(dov, on=["v", "s"])
    n_new = 0
    if len(both):
        scc_lab = both.groupby("v")["s"].max()
        idx = scc_lab.index.to_numpy(dtype=np.int64)
        labels[idx] = scc_lab.to_numpy(dtype=np.int64)
        n_new = int((~finished[idx]).sum())
        finished[idx] = True
    touched = np.union1d(div["v"].unique(), dov["v"].unique()).astype(np.int64)
    touched = touched[~finished[touched]]
    if len(touched):
        sig_in = div.groupby("v")["s"].apply(lambda s: tuple(sorted(s)))
        sig_out = dov.groupby("v")["s"].apply(lambda s: tuple(sorted(s)))
        for v in touched.tolist():
            labels[v] = _sig_hash(
                labels[v], sig_in.get(v, ()), sig_out.get(v, ())
            )
    return n_new
