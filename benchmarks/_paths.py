"""Path setup for running the benchmarks from a checkout.

The repository root is on the path for the test-only ``reference``
package, the oracle the kernel-vs-reference tables time and check.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT / "src"), str(_ROOT / "benchmarks"), str(_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
