"""Cold-process benchmark of the qfcodes cross-checked pipeline.

Run ``python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0``
from the repository root; see ``perfbench/README.md``.
"""
