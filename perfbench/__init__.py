"""The repository benchmark: three workloads, measured end to end and per layer.

``perfbench/run.py`` is the command; see ``perfbench/README.md``.
"""
