"""Shared utilities: array helpers, durable writes, timing, ASCII tables."""

from repro.utils.arrays import (
    aligned_zeros,
    as_contiguous,
    check_1d,
    ensure_dtype,
)
from repro.utils.durable import (
    fsync_dir,
    fsync_file,
    replace_durable,
    write_bytes_durable,
    write_json_durable,
    write_text_durable,
)
from repro.utils.tables import Table, render_grid
from repro.utils.timing import Timer, min_time

__all__ = [
    "aligned_zeros",
    "as_contiguous",
    "check_1d",
    "ensure_dtype",
    "fsync_dir",
    "fsync_file",
    "replace_durable",
    "write_bytes_durable",
    "write_json_durable",
    "write_text_durable",
    "Table",
    "render_grid",
    "Timer",
    "min_time",
]
