"""One fresh-process set-up sample: ``import repro`` plus ``Session`` construction.

Usage: ``python3 perfbench/setup_probe.py <src dir> [<store path>]``.  With a
store path the session opens that persistent store, as a warm restart does.
Prints ``{"import_s": ..., "session_s": ...}``.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import repro  # noqa: E402

imported = time.perf_counter()
session = repro.Session(persist_path=sys.argv[2]) if len(sys.argv) > 2 else repro.Session()
constructed = time.perf_counter()
session.close()
print(json.dumps({"import_s": imported - started, "session_s": constructed - imported}))
