"""Deterministic, seeded crash-point injection.

A :class:`CrashInjector` is armed with one named site and an occurrence
count; execution calls :meth:`CrashInjector.point` as it passes each
site, and the injector raises :class:`SimulatedCrash` the n-th time the
armed site is reached.  Everything is plain counting — the same
``(site, occurrence)`` against the same workload always kills execution
at the same simulated instant, which is what makes kill-and-recover
conformance checks replayable.

Sites (see :mod:`repro.durability.manager` for where each fires):

* ``pre-flush`` — statement logged, before the persistence barrier;
* ``mid-flush`` — between two dirty-line writebacks of the barrier;
* ``post-flush-pre-commit`` — lines durable, commit marker not yet
  written (the classic torn-commit window).
"""

import random

CRASH_SITES = ("pre-flush", "mid-flush", "post-flush-pre-commit")


class SimulatedCrash(Exception):
    """The simulated machine lost power.

    Deliberately *not* a :class:`~repro.errors.ReproError`: a crash is
    not a malformed request, and nothing that handles simulator errors
    should accidentally swallow one.
    """

    def __init__(self, site, occurrence):
        super().__init__(
            f"simulated crash at {site!r} (occurrence {occurrence})"
        )
        self.site = site
        self.occurrence = occurrence


class CrashInjector:
    """Kills execution the n-th time the armed site is passed."""

    def __init__(self, site, occurrence=1):
        if site not in CRASH_SITES:
            raise ValueError(
                f"unknown crash site {site!r}; choose from {CRASH_SITES}"
            )
        if occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {occurrence}")
        self.site = site
        self.occurrence = occurrence
        #: Times each site was passed (diagnostics; keeps counting after
        #: the crash fires so sweep reports can show site frequencies).
        self.counts = dict.fromkeys(CRASH_SITES, 0)
        self.fired = False

    @classmethod
    def from_seed(cls, seed, max_occurrence=3):
        """A deterministic random injector: same seed, same crash."""
        rng = random.Random(seed)
        return cls(
            site=CRASH_SITES[rng.randrange(len(CRASH_SITES))],
            occurrence=rng.randint(1, max_occurrence),
        )

    def point(self, site):
        """Record passing ``site``; raise if it is the armed one."""
        self.counts[site] = self.counts.get(site, 0) + 1
        if (
            not self.fired
            and site == self.site
            and self.counts[site] >= self.occurrence
        ):
            self.fired = True
            raise SimulatedCrash(site, self.occurrence)

    def __repr__(self):
        state = "fired" if self.fired else "armed"
        return f"CrashInjector({self.site!r}, n={self.occurrence}, {state})"
