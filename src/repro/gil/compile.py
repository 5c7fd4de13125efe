"""Placeholder left by the removed compiled GIL pipeline.

GIL programs run through one stepper, :func:`repro.gil.semantics.step`.
This module remains only because the verdict-level benchmark's layer
tracer (``perfbench/spans.py``) imports :class:`CompiledProg` and wraps
its ``step``; the next change to the benchmark drops that import, and
this module with it.
"""


class CompiledProg:
    """Empty stand-in for the removed compiled program; nothing builds one."""

    def step(self, cfg):
        """Always raises: there is no compiled pipeline to step through."""
        raise NotImplementedError(
            "the compiled GIL pipeline was removed; "
            "use repro.gil.semantics.step"
        )
