"""One benchmark process: a single fracobs CLI command, timed from inside.

    python3 perfbench/child.py probe     --report R --config C
    python3 perfbench/child.py run       --report R --config C [--trace] -- <cli args>
    python3 perfbench/child.py mlf-bands --report R

``run.py`` starts one of these per command, one at a time, with ``src`` on
PYTHONPATH. Set-up ends once ``fracobs.cli`` is imported and the config is
loaded; the parent subtracts its own spawn time (same monotonic clock) from
the ``ready`` stamp written here. ``probe`` stops after set-up and reports
library versions and BLAS threads. ``mlf-bands`` times E_alpha on argument
bands fixed by value. The report is one JSON file; the exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time

# x ranges of E_alpha(-x): below the series switch, the cancellation gap
# where the router this benchmark was added against falls back to mpmath
# (measured per alpha), and the asymptotic range. Fixed by value so a new
# router is timed on the same points.
MLF_BANDS = {
    "small": {0.3: (0.0, 1.0), 0.5: (0.0, 1.0), 0.84: (0.0, 1.0), 0.95: (0.0, 1.0)},
    "gap": {0.3: (1.9, 2.7), 0.5: (2.9, 5.3), 0.84: (6.0, 17.0), 0.95: (7.5, 26.0)},
    "large": {0.3: (30.0, 300.0), 0.5: (30.0, 300.0), 0.84: (30.0, 300.0), 0.95: (30.0, 300.0)},
}
BAND_POINTS = {"small": 4096, "gap": 64, "large": 4096}
BAND_MIN_SECONDS = 0.25


def blas_threads() -> int | None:
    """Largest thread count reported by the OpenBLAS builds numpy and scipy load."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found.append(int(fn()))
                    break
    return max(found) if found else None


def versions() -> dict:
    import numpy
    import scipy

    import fracobs

    try:  # the E_alpha fallback imports it lazily; a later router may not
        import mpmath
    except ImportError:
        mpmath = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": getattr(mpmath, "__version__", None),
        "fracobs_file": os.path.relpath(fracobs.__file__),
        "blas_threads": blas_threads(),
    }


def mlf_bands() -> dict:
    """Points per second of mlf_values on each band, and a sanity check.

    E_alpha(-x) for 0 < alpha <= 1 lies in (0, 1] and does not increase
    with x; a band whose values break that counts as a failed check.
    """
    import numpy as np

    from fracobs.fraccalc import mlf_values

    rates, bad = {}, []
    for band, per_alpha in MLF_BANDS.items():
        for alpha, (lo, hi) in per_alpha.items():
            x = np.linspace(lo, hi, BAND_POINTS[band])
            points, start = 0, time.perf_counter()
            while True:
                values = mlf_values(alpha, -x)
                points += x.size
                elapsed = time.perf_counter() - start
                if elapsed >= BAND_MIN_SECONDS:
                    break
            rates[f"{band}.a{alpha}"] = points / elapsed
            if not (np.all(values > 0.0) and np.all(values <= 1.0)
                    and np.all(np.diff(values) <= 1e-12 * values[:-1])):
                bad.append(f"{band}.a{alpha}")
    return {"pts_per_s": rates, "failed_bands": bad}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "run", "mlf-bands"))
    parser.add_argument("--report", required=True)
    parser.add_argument("--config")
    parser.add_argument("--trace", action="store_true")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    report: dict = {}
    code = 0
    if args.mode == "mlf-bands":
        report.update(mlf_bands())
    else:
        import fracobs.cli as cli

        cli.RunConfig.load(args.config)
        report["ready"] = time.monotonic()
        if args.mode == "probe":
            report.update(versions())
        else:
            tracer = None
            if args.trace:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            start = time.perf_counter()
            code = cli.main(cli_args)
            report["wall_s"] = time.perf_counter() - start
            report["exit"] = code
            if tracer is not None:
                report["trace"] = tracer.summary()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
