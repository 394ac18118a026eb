"""Cost modeling for vision architectures.

Exact integer FLOPs/memory accounting for CNN and ViT specs, scaling
transforms over architecture and evaluation knobs, sweep enumeration with
Pareto frontier extraction, and FLOPs-budget matching.

The names imported here are the library's contract; the submodules are
internal and serve the ``visioncost`` command.
"""

from .arch import EvalConfig, save_spec
from .cost import cost_report
from .presets import resnet50, vit_small
from .scaling import ScalingTransform, TransformKind, make_config, parse_config_id

__version__ = "0.1.0"
