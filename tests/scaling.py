"""The scaled copy of a system that the scale-invariance tests compare
against: every length of the spheroid and the gap times one factor."""

import dataclasses

from casimir_spectral.model import PlacedParticle, Spheroid


def scaled_config(config, factor):
    """config with the spheroid's axes and the gap multiplied by factor."""
    s = config.particle.spheroid
    spheroid = Spheroid(s.r_major * factor, s.r_minor * factor, s.family)
    particle = PlacedParticle(spheroid, config.particle.gap * factor)
    return dataclasses.replace(config, particle=particle)
