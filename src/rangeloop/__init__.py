"""Place recognition for spinning LiDAR from range-view projections.

The package turns raw point clouds into compact global descriptors whose
nearest-neighbor structure recovers revisited places, independent of the
heading the sensor had at revisit time.  Pieces:

* ``rangeview``    spherical projection of clouds to range images, and
                   range-overlap ground truth between pairs of scans
* ``backbone``     width-preserving convolutional feature extractor
* ``ssm``          selective state-space sequence transforms (scan form and
                   an equivalent convolutional form for the time-invariant
                   special case)
* ``block``        the multi-direction sequence mixing block built on the SSM
* ``descriptor``   feature-cluster aggregation head producing the final
                   rotation-insensitive descriptor
* ``pipeline``     full model assembly plus parameter (de)serialization;
                   ``ModelConfig`` is the model's one configuration, and
                   the parameters are one name -> Tensor dict keyed by the
                   checkpoint names, laid out by ``param_layout``
* ``training``     overlap-supervised metric losses and the fit loop
* ``retrieval``    descriptor databases, search, and evaluation protocols
* ``synthworld``   analytic scene generator used by the self-contained demos
                   and the end-to-end tests
* ``tensor``       the numpy autodiff substrate everything above runs on
"""

from .errors import ConfigError, ContractError, DegenerateInputError, ShapeError
from .tensor import Tape, Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "DegenerateInputError",
    "ShapeError",
    "Tape",
    "Tensor",
    "backward",
    "__version__",
]
