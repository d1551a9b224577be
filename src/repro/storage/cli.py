"""``python -m repro storage`` — build, inspect, and validate paged trees.

Three subcommands close the loop the paper's model opens:

- ``build``  — generate a seeded workload and build a
  :class:`~repro.storage.paged_tree.PagedPRQuadtree` on disk;
- ``stat``   — print a page file's shape, occupancy census, and pool
  counters;
- ``validate`` — structural invariants plus the planner's
  prediction-vs-reality report
  (:meth:`repro.core.planning.StoragePlanner.validate_against`).

With ``--verbose`` each command installs a tracer and prints the span
tree, so page I/O and buffer-pool behavior are visible next to the
results.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..obs import Tracer, tracing
from .paged_tree import PagedPRQuadtree
from .pagefile import StorageError

_DISTRIBUTIONS = ("uniform", "gaussian")


def _generator(name: str, dim: int, seed: int):
    from ..workloads import GaussianPoints, UniformPoints

    if name == "uniform":
        return UniformPoints(dim=dim, seed=seed)
    if name == "gaussian":
        return GaussianPoints(dim=dim, seed=seed)
    raise ValueError(f"unknown distribution {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro storage",
        description="Build and validate disk-backed PR quadtrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build", help="build a paged PR quadtree from a seeded workload"
    )
    build.add_argument("path", help="page file to create")
    build.add_argument("--n", type=int, default=1000,
                       help="points to insert (default: %(default)s)")
    build.add_argument("--capacity", type=int, default=4,
                       help="bucket capacity m (default: %(default)s)")
    build.add_argument("--dim", type=int, default=2,
                       help="space dimension (default: %(default)s)")
    build.add_argument("--seed", type=int, default=1987,
                       help="workload RNG seed (default: %(default)s)")
    build.add_argument("--distribution", choices=_DISTRIBUTIONS,
                       default="uniform",
                       help="point distribution (default: %(default)s)")
    build.add_argument("--page-size", type=int, default=4096,
                       help="bytes per page (default: %(default)s)")
    build.add_argument("--pool-pages", type=int, default=64,
                       help="buffer pool frames (default: %(default)s)")
    build.add_argument("--policy", choices=("lru", "clock"), default="lru",
                       help="pool eviction policy (default: %(default)s)")
    build.add_argument("--bulk", action="store_true",
                       help="sorted bulk-load: write leaves in one "
                            "sequential pass (fast cold start)")
    build.add_argument("--verbose", action="store_true",
                       help="print the instrumentation span tree")

    stat = sub.add_parser("stat", help="print a page file's shape")
    stat.add_argument("path", help="page file to inspect")
    stat.add_argument("--verbose", action="store_true",
                      help="print the instrumentation span tree")

    validate = sub.add_parser(
        "validate",
        help="check invariants and compare against the planner's prediction",
    )
    validate.add_argument("path", help="page file to validate")
    validate.add_argument("--tolerance", type=float, default=0.10,
                          help="allowed relative page-count error "
                               "(default: %(default)s)")
    validate.add_argument("--verbose", action="store_true",
                          help="print the instrumentation span tree")
    return parser


def _cmd_build(args: argparse.Namespace) -> int:
    generator = _generator(args.distribution, args.dim, args.seed)
    if args.bulk:
        from .bulkload import bulk_load_paged

        tree = bulk_load_paged(
            args.path,
            generator.generate_array(args.n),
            capacity=args.capacity,
            dim=args.dim,
            page_size=args.page_size,
            pool_pages=args.pool_pages,
            policy=args.policy,
        )
        try:
            inserted = len(tree)
            stats = tree.stats()
        finally:
            tree.close()
    else:
        tree = PagedPRQuadtree.create(
            args.path,
            capacity=args.capacity,
            dim=args.dim,
            page_size=args.page_size,
            pool_pages=args.pool_pages,
            policy=args.policy,
        )
        try:
            inserted = tree.insert_many(generator.generate(args.n))
            tree.checkpoint()
            stats = tree.stats()
        finally:
            tree.close()
    how = "bulk-loaded" if args.bulk else "built"
    print(f"{how} {args.path}: {inserted} points in "
          f"{stats['leaf_pages']} pages "
          f"({stats['page_size']}B each, {stats['splits']} splits)")
    pool = stats["pool"]
    print(f"  pool ({stats['pool_policy']}, {stats['pool_capacity']} frames): "
          f"{pool['hits']} hits, {pool['misses']} misses, "
          f"{pool['evictions']} evictions, {pool['writebacks']} writebacks")
    return 0


def _cmd_stat(args: argparse.Namespace) -> int:
    with PagedPRQuadtree.open(args.path) as tree:
        census = tree.occupancy_census()  # walks pages through the pool
        stats = tree.stats()  # after the walk, so pool counters are live
        print(f"{args.path}: {stats['points']} points, "
              f"{stats['leaf_pages']} data pages + "
              f"{stats['free_pages']} free "
              f"({stats['file_bytes']} bytes, "
              f"page size {stats['page_size']})")
        print(f"  capacity m={tree.capacity}, dim={tree.dim}, "
              f"height {tree.height()}")
        print(f"  mean occupancy {census.average_occupancy():.3f} "
              f"({census.average_occupancy() / tree.capacity:.1%} full)")
        print(f"  occupancy census: {list(census.counts)}")
        pool = stats["pool"]
        print(f"  pool ({stats['pool_policy']}, "
              f"{stats['pool_capacity']} frames): "
              f"hit rate {tree.pool.hit_rate:.1%} "
              f"({pool['hits']} hits, {pool['misses']} misses, "
              f"{pool['evictions']} evictions)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from ..core.planning import StoragePlanner

    with PagedPRQuadtree.open(args.path) as tree:
        tree.validate()
        print(f"{args.path}: structure OK "
              f"({tree.leaf_count()} leaf pages, {len(tree)} points)")
        planner = StoragePlanner(buckets=tree.fanout)
        report = planner.validate_against(tree.pagefile)
    print(report.summary())
    if not report.within(args.tolerance):
        print(f"FAIL: page-count error {report.page_error:+.1%} exceeds "
              f"{args.tolerance:.0%} tolerance")
        return 1
    print(f"OK: prediction within {args.tolerance:.0%} tolerance")
    return 0


_HANDLERS = {
    "build": _cmd_build,
    "stat": _cmd_stat,
    "validate": _cmd_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        if args.verbose:
            tracer = Tracer()
            with tracing(tracer):
                status = handler(args)
            print()
            print(tracer.render())
            return status
        return handler(args)
    except (StorageError, FileNotFoundError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
