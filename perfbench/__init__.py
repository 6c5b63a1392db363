"""chromabench's layered benchmark: seeded corpora, CLI workflow, oracle gate, tracer.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
