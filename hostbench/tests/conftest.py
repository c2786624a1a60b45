"""Make the benchmark's modules and the program importable in tests."""

import os
import sys

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HOSTBENCH)
for path in (HOSTBENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
