"""Control-flow signals of the specialization engine.

Raised and caught inside :mod:`repro.tempo.specializer` (and its
:mod:`repro.tempo.induction` rule); none of them escapes
:func:`repro.tempo.driver.specialize`.
"""


class SpecReturn(Exception):
    """Static-control return while specializing an inlined callee."""

    def __init__(self, value):
        self.value = value


class SpecBreak(Exception):
    """Static-control ``break`` out of a static loop."""


class SpecContinue(Exception):
    """Static-control ``continue`` in a static loop."""


class NeedsOutline(Exception):
    """Raised when an inline trial meets a return under dynamic control."""


class NeedsLoopDemotion(Exception):
    """Raised when a static loop meets a dynamic break/continue."""
