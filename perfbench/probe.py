"""Fresh-process layer probe for traced runs: prints, as JSON, the time of a
fresh `import fermichip.cli` and of the first fermi_fn call per order."""

import json
import time

t0 = time.perf_counter()
import fermichip.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0

from fermichip import polylog  # noqa: E402

first = {}
for n in (1.5, 2.0, 3.0, 4.0):
    t0 = time.perf_counter()
    polylog.fermi_fn(n, 1.0)
    first[str(n)] = time.perf_counter() - t0
print(json.dumps({"import_s": import_s, "first_call_s": first}))
