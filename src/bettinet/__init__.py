"""Topological complexity measurement for datasets and dense-network layers."""

__version__ = "0.1.0"

# Per-class sample cap and b0 collapse threshold of ``analyze`` and
# ``sweep``, and the hidden layers of a ``sweep`` net.  ``advisor`` re-exports
# them; they live here so that the CLI parser reads them without the trainer.
DEFAULT_CLASS_CAP = 200
DEFAULT_THRESHOLD = 0.5
SWEEP_HIDDEN_LAYERS = 3
