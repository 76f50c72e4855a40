"""Scheduled FIR transmissibility estimation for switching linear systems.

Offline, one FIR model pair per working condition is identified from
measured outputs alone: a primary model from all pseudo-inputs to the
target output, and an auxiliary model between two halves of the
pseudo-inputs.  Online, a windowed Bayes classifier over the auxiliary
family picks the active condition and schedules the matching primary
model to estimate the target, without ever observing the excitation.

``import transched`` loads no submodule.  Each name is imported from the
module that defines it, e.g. ``from transched.scheduler import
schedule_estimate``, so a command that never touches, say, the simulator
never pays for importing it.
"""

__version__ = "0.1.0"
