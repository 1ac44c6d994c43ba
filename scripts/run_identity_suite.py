"""Run the symbolic identity suite and print one line per check.

Equivalent to `pertlab operad verify`; kept as a script so the suite can
be run with custom caps from the environment (PERTLAB_CAPS) while
profiling, without going through document IO.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time

from pertlab.operad_sym import all_passed, default_caps, verify_identity_suite


def main() -> int:
    caps = default_caps()
    print(f"caps: index<={caps.max_index} length<={caps.max_length} "
          f"fweight<={caps.max_fweight} degree<={caps.max_degree}")
    print(f"python={platform.python_version()} nproc={os.cpu_count()}")
    t0 = time.perf_counter()
    report = verify_identity_suite(caps)
    dt = time.perf_counter() - t0
    for check in report:
        state = "PASS" if check.passed else "FAIL"
        print(f"{check.name:32s} {state}  {check.detail}")
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"total: {dt:.2f}s  peak RSS: {peak_mib:.1f} MiB")
    return 0 if all_passed(report) else 1


if __name__ == "__main__":
    sys.exit(main())
