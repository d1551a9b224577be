"""repro — population analysis for hierarchical data structures.

A full reproduction of Nelson & Samet, *"A Population Analysis for
Hierarchical Data Structures"* (SIGMOD 1987): the population model and
its solvers, the hierarchical structures it describes (PR quadtree
family, PMR quadtree, extendible hashing, grid file, EXCELL), the
statistical baseline it contrasts against, and the complete experiment
harness regenerating every table and figure in the paper.

Quickstart::

    from repro import PopulationModel, PRQuadtree, UniformPoints

    model = PopulationModel(capacity=4)
    print(model.expected_distribution())   # Table 1 theory row, m=4
    print(model.average_occupancy())       # Table 2 theory value, m=4

    tree = PRQuadtree(capacity=4)
    tree.insert_many(UniformPoints(seed=0).generate(1000))
    print(tree.occupancy_census().proportions())  # the experiment
"""

from ._lazy import exports

#: Public names, by the submodule that defines them (``module:name``
#: for an alias); each loads on first use, see :mod:`repro._lazy`.
_EXPORTS = {
    "AreaWeightedModel": "core",
    "ModelComparison": "core",
    "OscillationFit": "core",
    "PMRPopulationModel": "core",
    "PopulationModel": "core",
    "SteadyState": "core",
    "post_split_average_occupancy": "core",
    "solve_analytic": "core",
    "solve_eigen": "core",
    "solve_fixed_point_iteration": "core",
    "solve_newton": "core",
    "transform_matrix": "core",
    "Excell": "excell",
    "run_figure2": "experiments",
    "run_figure3": "experiments",
    "run_table1": "experiments",
    "run_table2": "experiments",
    "run_table3": "experiments",
    "run_table4": "experiments",
    "run_table5": "experiments",
    "Point": "geometry",
    "Rect": "geometry",
    "Segment": "geometry",
    "GridFile": "gridfile",
    "ExtendibleHashing": "hashing",
    "CensusAccumulator": "quadtree",
    "DepthCensus": "quadtree",
    "OccupancyCensus": "quadtree",
    "PMRQuadtree": "quadtree",
    "PointQuadtree": "quadtree",
    "PRBintree": "quadtree",
    "PRQuadtree": "quadtree",
    "ExperimentSpec": "runtime",
    "ResultCache": "runtime",
    "RunReport": "runtime",
    "RuntimeConfig": "runtime",
    "runtime_session": "runtime",
    "BufferPool": "storage",
    "PagedPRQuadtree": "storage",
    "PageFile": "storage",
    "ClusteredPoints": "workloads",
    "DiagonalPoints": "workloads",
    "GaussianPoints": "workloads",
    "RandomSegments": "workloads",
    "UniformPoints": "workloads",
    "logarithmic_sample_sizes": "workloads",
}

__version__ = "1.0.0"

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
