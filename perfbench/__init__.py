"""The wire-level benchmark of the pub/sub stack (run ``perfbench/run.py``)."""
