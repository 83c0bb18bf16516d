"""Site-specific radar clutter and target channel simulator.

The simulator builds clutter and target channel impulse responses from
scene geometry (terrain, land cover, platform trajectories), convolves
them with transmit waveforms to produce receiver IQ data cubes, and
provides the downstream pieces needed to exercise that data: a
range-Doppler processing chain, waveform optimization against channel
second moments, and MIMO channel separation.
"""

__version__ = "0.1.0"

from .errors import ConfigurationError, ConditioningError

__all__ = ["ConfigurationError", "ConditioningError", "__version__"]
