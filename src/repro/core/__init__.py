"""Core contribution of the paper: VGC reachability with one-pass
(hash-bag) frontiers, BGSS SCC."""
