"""Time `import flagheight.cli` in a fresh process, bracketed and sampled
by the reference kernel, and print {"import_s", "kernel_s"} as JSON.

Run by run.py once per set-up sample:  python3 flagbench/import_probe.py
"""

import json
import sys
import time
from pathlib import Path

from refkernel import Sampler, bracket

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

bracket()  # warm-up: the first kernel runs of a fresh process run cold
before = bracket()
with Sampler() as sampler:
    start = time.perf_counter()
    import flagheight.cli  # noqa: E402,F401
    elapsed = time.perf_counter() - start
print(json.dumps({"import_s": elapsed - sampler.excluded,
                  "kernel_s": before + sampler.samples + bracket()}))
