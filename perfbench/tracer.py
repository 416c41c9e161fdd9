"""Outside-in span tracer for the fracobs layers.

The package binds its helpers by name at import (``from .fraccalc import
mlf_values`` and so on), so wrapping a function only where it is defined
would miss every call made through another module. ``Tracer.install``
therefore replaces every module attribute that *is* the traced function,
in all six fracobs modules, with one wrapper. Third-party callables bound
into a module (``hum.eigh`` is ``scipy.linalg.eigh``) are wrapped in that
module only.

Each wrapper records a span (name, start, end, parent) in memory and keeps
per-name call counts, total time and self time (duration minus the time
covered by direct child spans). Work the tracer does for itself after a
call returns, such as counting distinct E_alpha arguments, falls into no
span's self time and is summed as ``bookkeeping_s``.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

MODULES = ("fraccalc", "spectral", "system", "observability", "hum", "cli")

# (span name, defining module, attribute path, wrap every fracobs alias?)
# Methods and third-party callables are wrapped where named only.
SPANS = (
    ("fraccalc.mlf_values", "fraccalc", "mlf_values", True),
    ("fraccalc.ml_product_matrix", "fraccalc", "ml_product_matrix", True),
    ("fraccalc.caputo_values", "fraccalc", "caputo_values", True),
    ("spectral.eigenpairs", "spectral", "eigenpairs", True),
    ("spectral.grad_coupling", "spectral", "grad_coupling", True),
    ("system.project_initial_state", "system", "project_initial_state", True),
    ("system.generate_measurements", "system", "generate_measurements", True),
    ("system.output_matrix", "system", "output_matrix", True),
    ("system.MeasurementRecord.to_csv", "system", "MeasurementRecord.to_csv", False),
    ("system.MeasurementRecord.from_csv", "system", "MeasurementRecord.from_csv", False),
    ("observability.test_gradient_strategic", "observability", "test_gradient_strategic", True),
    ("hum.assemble_gram", "hum", "assemble_gram", True),
    ("hum.assemble_rhs", "hum", "assemble_rhs", True),
    ("hum.solve_reconstruction", "hum", "solve_reconstruction", True),
    ("hum.eigh", "hum", "eigh", False),
    ("hum.reconstruct", "hum", "reconstruct", True),
    ("hum.omega_error", "hum", "omega_error", True),
    ("hum.residual_against", "hum", "residual_against", True),
    ("hum.ReconstructionResult.write_csv", "hum", "ReconstructionResult.write_csv", False),
    ("cli.simulate", "cli", "cmd_simulate", True),
    ("cli.reconstruct", "cli", "cmd_reconstruct", True),
    ("cli.check-strategic", "cli", "cmd_check_strategic", True),
    ("cli.sweep-sensor", "cli", "cmd_sweep_sensor", True),
)


class _Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Collects spans from wrapped fracobs functions in this process."""

    def __init__(self) -> None:
        self.stats = {name: _Stat() for name, *_ in SPANS}
        self.spans: list[tuple[str, float, float, int]] = []
        self.bookkeeping_s = 0.0
        self.mlf_points = 0
        self.reconstruct_iterations = 0
        self._mlf_args: dict[float, list[np.ndarray]] = {}
        # one frame per open span: [span index, time covered by children]
        self._stack: list[list] = []

    # -- hooks run after a call returns; their time is bookkeeping --------

    def _after_mlf(self, args, kwargs, result, error) -> None:
        alpha = float(args[0] if args else kwargs["alpha"])
        z = np.asarray(args[1] if len(args) > 1 else kwargs["z"], dtype=float)
        self.mlf_points += z.size
        self._mlf_args.setdefault(alpha, []).append(np.unique(z))

    def _after_reconstruct(self, args, kwargs, result, error) -> None:
        if result is not None:
            self.reconstruct_iterations += result.iterations
        elif error is not None:
            self.reconstruct_iterations += len(getattr(error, "residual_history", ()))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                if after is not None:
                    after(args, kwargs, result, error)
                t2 = clock()
                spans[frame[0]] = (name, t0, t1, parent)
                stat.calls += 1
                stat.total_s += t1 - t0
                stat.self_s += (t1 - t0) - frame[1]
                self.bookkeeping_s += t2 - t1
                if stack:
                    stack[-1][1] += t2 - t0

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every traced function at each module attribute bound to it."""
        modules = [importlib.import_module(f"fracobs.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, modules))
        hooks = {
            "fraccalc.mlf_values": self._after_mlf,
            "hum.reconstruct": self._after_reconstruct,
        }
        for name, home, path, aliases in SPANS:
            owner = by_name[home]
            *classes, attr = path.split(".")
            for part in classes:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            after = hooks.get(name)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, after)))
                continue
            wrapped = self._wrap(name, raw, after)
            if not aliases:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, alias, wrapped)

    def summary(self) -> dict:
        """Per-span counts and times, plus the E_alpha argument counts.

        Called after the traced command has returned, so counting the
        distinct (alpha, argument) pairs here is not part of
        ``bookkeeping_s``, which is time spent inside the command.
        """
        distinct = sum(
            np.unique(np.concatenate(parts)).size for parts in self._mlf_args.values()
        )
        return {
            "spans": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in self.stats.items()
            },
            "mlf_points": self.mlf_points,
            "mlf_distinct": distinct,
            "reconstruct_iterations": self.reconstruct_iterations,
            "bookkeeping_s": self.bookkeeping_s,
            "span_log": self.spans,
        }
