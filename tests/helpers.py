"""Shared test utilities."""

import numpy as np

from hillbands import PeriodicJacobi


def random_operator(rng, period, hop_range=(0.4, 1.8), onsite_range=(-1.5, 1.5)):
    return PeriodicJacobi(
        rng.uniform(*hop_range, period), rng.uniform(*onsite_range, period)
    )

