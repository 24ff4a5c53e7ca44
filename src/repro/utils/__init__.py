"""Shared utilities (ASCII rendering, roster lookup)."""

from .ascii_plots import render_histogram, render_table, to_csv
from .roster import lookup

__all__ = ["render_histogram", "render_table", "to_csv", "lookup"]
