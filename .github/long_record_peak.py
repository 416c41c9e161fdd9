"""Peak memory of simulate then reconstruct, on a short record and on longer ones.

Peak memory is set by the data, not by kernel scratch, by tables of
record length times modes or by second copies of the record. Each case
runs `simulate` then `reconstruct` on a short record and on longer ones,
each as `python -m fracobs.cli` under the running interpreter, takes
each command's own peak RSS from its finished process and prints it, so
the command that sets a long pair's peak shows.
It fails when a long pair's peak is more than its bound above the short
pair's:

- alpha = 0.84, graded, 64 then 8,192 samples (about 0.5 s): 6 MB, and
  32,768 samples (about 1 s): 11 MB;
- alpha = 1, three sensors escalating to 8 modes, 64 then 65,536
  samples: 12 MB, and 262,144 samples: 14 MB.

    python .github/long_record_peak.py

It runs the same installed or from a source checkout with PYTHONPATH=src.

Work files go to a temporary directory under $RUNNER_TEMP, if it is set.
"""

import os
import subprocess
import sys
import tempfile

GRADED = """alpha = 0.84
horizon = 1.0
modes = 3
epsilon = 1e-2
sensor.kind = pointwise
sensor.location = 0.3
state.kind = coefficients
state.coefficients = 0.1, -0.05, 0.02
time.grading = graded
solver.kind = tikhonov
solver.value = 1e-10
"""

ALPHA_ONE = """alpha = 1
horizon = 1
modes = 4
epsilon = 1.5e-4
sensor1.kind = pointwise
sensor1.location = 0.2
sensor2.kind = pointwise
sensor2.location = 0.55
sensor3.kind = zonal
sensor3.support.lo = 0.9
sensor3.support.hi = 1.0
state.kind = poly_sq
time.grading = graded
solver.kind = tikhonov
solver.value = 1e-7
escalation.step = 4
"""

# (name, config without time.samples, short sample count, (long sample count, bound in MB)...)
CASES = (
    ("graded", GRADED, 64, ((8192, 6.0), (32768, 11.0))),
    ("alpha1", ALPHA_ONE, 64, ((65536, 12.0), (262144, 14.0))),
)


def peak_mb(args: list[str]) -> float:
    """Run one fracobs command to its end; its own peak RSS in MB."""
    args = [sys.executable, "-m", "fracobs.cli", *args]
    proc = subprocess.Popen(args)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args)
    return usage.ru_maxrss / 1024.0


def pair_peaks(work: str, name: str, config: str, samples: int) -> tuple[float, float]:
    """The peaks of simulate and of reconstruct on one record, in MB."""
    cfg, run = os.path.join(work, f"{name}{samples}.cfg"), os.path.join(work, f"{name}{samples}")
    with open(cfg, "w") as fh:
        fh.write(f"{config}time.samples = {samples}\n")
    peaks = (
        peak_mb(["simulate", "--config", cfg, "--out", run]),
        peak_mb(["reconstruct", "--config", cfg, "--out", run,
                 "--measurements", os.path.join(run, "measurements.csv")]),
    )
    print(f"{name}: {samples} samples peak {max(peaks):.1f} MB "
          f"(simulate {peaks[0]:.1f} MB, reconstruct {peaks[1]:.1f} MB)")
    return peaks


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory(dir=os.environ.get("RUNNER_TEMP")) as work:
        for name, config, short, longs in CASES:
            low = max(pair_peaks(work, name, config, short))
            for long, bound in longs:
                high = max(pair_peaks(work, name, config, long))
                if high - low > bound:
                    failed.append(f"the {long:,}-sample {name} pair peaks {high - low:.1f} MB "
                                  f"above the {short}-sample pair, more than {bound:.0f} MB")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
