"""Vectorized fast paths for the experiment pipeline.

The object structures in :mod:`repro.quadtree` are the readable,
queryable reference implementations; this package holds numpy kernels
that reproduce specific reductions of them — bit-identically — without
materializing trees.  Currently:

- :func:`vector_census` / :class:`LeafPartition` — the Morton-code
  census engine, selected by ``engine="vector"`` in the runtime;
- :func:`vector_census_batch` — the same engine over a stack of
  trials at once (one interleave + one argsort per batch), which pool
  workers use to amortize numpy fixed costs across a whole chunk;
- :func:`~repro.kernels.quantize.morton_cells` — the one exact
  coordinates → grid-cells quantizer all of the above encode with
  (closed form on dyadic roots, a replay of the tree's descent
  otherwise);
- :class:`QueryKernel` / :class:`PartialMatchResult` — sort-once batch
  *query* kernels over the same sorted Morton array: range queries as
  code-interval stabs, exact batched k-NN, and partial match with
  exact tree-visit cost accounting (``engine="vector"`` on the query
  paths).
"""

from .census import LeafPartition, vector_census, vector_census_batch
from .queries import PartialMatchResult, QueryKernel

__all__ = [
    "LeafPartition",
    "PartialMatchResult",
    "QueryKernel",
    "vector_census",
    "vector_census_batch",
]
