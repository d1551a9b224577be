"""Experiment harness and regenerators for every table and figure."""

from . import paper_data
from .._lazy import exports

#: Public names, by the submodule that defines them (``module:name``
#: for an alias); each loads on first use, see :mod:`repro._lazy`.
_EXPORTS = {
    "FIGURE1_POINTS": "figures",
    "FigureSeries": "figures",
    "build_figure1_tree": "figures",
    "render_quadtree_ascii": "figures",
    "render_semilog_ascii": "figures",
    "run_figure2": "figures",
    "run_figure3": "figures",
    "write_phasing_csv": "csv_export",
    "write_sweep_csv": "csv_export",
    "write_table1_csv": "csv_export",
    "write_table2_csv": "csv_export",
    "write_table3_csv": "csv_export",
    "FitResult": "goodness",
    "chi_squared_fit": "goodness",
    "generate_report": "report",
    "SizeSweepPoint": "harness",
    "TrialSet": "harness",
    "build_tree": "harness",
    "gaussian_factory": "harness",
    "occupancy_vs_size": "harness",
    "run_trials": "harness",
    "spec_for": "harness",
    "uniform_factory": "harness",
    "CAPACITIES": "tables",
    "PhasingRow": "tables",
    "Table1Row": "tables",
    "Table2Row": "tables",
    "Table3Result": "tables",
    "format_phasing_table": "tables",
    "format_table1": "tables",
    "format_table2": "tables",
    "format_table3": "tables",
    "run_table1": "tables",
    "run_table2": "tables",
    "run_table3": "tables",
    "run_table4": "tables",
    "run_table5": "tables",
}

__all__ = sorted([*_EXPORTS, "paper_data"])
__getattr__, __dir__ = exports(__name__, _EXPORTS)
