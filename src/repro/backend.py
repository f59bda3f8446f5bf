# benchmarks/e2e still imports these two names from here; nothing else does.
from .model.machine import get_machine, machine_digest

__all__ = ["get_machine", "machine_digest"]
